(* In-memory span recorder for traced runs.

   A span has a name, a start, an end and a parent; every span of one
   operation (one optimize call, one refresh batch, one service tick)
   carries that operation's id.  Spans recorded outside any operation
   (set-up, end-of-episode checks) carry op -1: they are written out but
   left out of the per-operation figures.  Recording is off unless
   [enabled] is set, in which case [span] costs two clock reads and one
   list cons.  Nothing is written until the run ends ([to_json]). *)

type t = {
  id : int;
  op : int;  (** -1 outside any operation *)
  parent : int;  (** -1 for a root span *)
  name : string;
  t0 : float;
  t1 : float;
}

let enabled = ref false
let recorded : t list ref = ref []
let next_id = ref 0
let next_op = ref 0
let current_op = ref (-1)

(* Open spans, innermost first; [cursor] is where the next synthetic child
   ([phases]) starts. *)
type frame = { f_id : int; mutable cursor : float }

let stack : frame list ref = ref []
let now = Unix.gettimeofday

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let parent_id () = match !stack with [] -> -1 | f :: _ -> f.f_id

(* Every span opened until the next [new_op] or [no_op] belongs to a
   fresh operation: one search, one refresh batch (with its delta
   generation, and any rebuild or scrub after it) or one service tick. *)
let new_op () =
  current_op := !next_op;
  incr next_op

(* Spans opened from here until the next [new_op] belong to no
   operation. *)
let no_op () = current_op := -1

let span name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = parent_id () in
    let t0 = now () in
    stack := { f_id = id; cursor = t0 } :: !stack;
    let close () =
      stack := List.tl !stack;
      recorded :=
        { id; op = !current_op; parent; name; t0; t1 = now () } :: !recorded
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* [phases children] records already-measured sub-phases of the innermost
   open span (e.g. [Search_stats.phase_timings] of a search that just
   returned inside it), laid out back to back from the span's start. *)
let phases children =
  match !stack with
  | [] -> ()
  | f :: _ when !enabled ->
      List.iter
        (fun (name, secs) ->
          let t0 = f.cursor in
          f.cursor <- t0 +. secs;
          recorded :=
            {
              id = fresh_id ();
              op = !current_op;
              parent = f.f_id;
              name;
              t0;
              t1 = f.cursor;
            }
            :: !recorded)
        children
  | _ -> ()

(* Every recorded span with its self time: its duration minus the time
   its direct children cover. *)
let with_self () =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt children s.parent) in
      Hashtbl.replace children s.parent (prev +. (s.t1 -. s.t0)))
    !recorded;
  List.map
    (fun s ->
      let kids = Option.value ~default:0. (Hashtbl.find_opt children s.id) in
      (s, Float.max 0. (s.t1 -. s.t0 -. kids)))
    !recorded

(* Summed self seconds and span count per span name, sorted by name. *)
let self_times () =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let t, n = Option.value ~default:(0., 0) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (t +. self, n + 1))
    (with_self ());
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

(* The layer of a span is its name up to the first dot
   ("maintenance.refresh" -> "maintenance"). *)
let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time per layer, in ms per traced operation: the self times of the
   spans that belong to an operation, summed by layer and divided by the
   number of operations that recorded spans. *)
let layer_self_ms () =
  let in_ops = List.filter (fun (s, _) -> s.op >= 0) (with_self ()) in
  let ops = List.sort_uniq compare (List.map (fun (s, _) -> s.op) in_ops) in
  let acc = Hashtbl.create 8 in
  List.iter
    (fun (s, self) ->
      let l = layer s.name in
      Hashtbl.replace acc l (self +. Option.value ~default:0. (Hashtbl.find_opt acc l)))
    in_ops;
  List.sort compare
    (Hashtbl.fold
       (fun l secs acc ->
         (l ^ ".self_ms", 1000. *. secs /. float_of_int (List.length ops)) :: acc)
       acc [])

(* Cost of recording one empty span, in nanoseconds, measured on 200,000
   spans.  The recorded spans are dropped again. *)
let cost_ns () =
  let n = 200_000 in
  let saved_enabled = !enabled and saved = !recorded in
  enabled := true;
  let t0 = now () in
  for _ = 1 to n do
    span "probe" ignore
  done;
  let dt = now () -. t0 in
  enabled := saved_enabled;
  recorded := saved;
  dt /. float_of_int n *. 1e9

let to_json () =
  let module J = Vis_util.Json in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity !recorded in
  J.List
    (List.map
       (fun s ->
         J.Obj
           [
             ("id", J.Int s.id);
             ("op", J.Int s.op);
             ("parent", J.Int s.parent);
             ("name", J.String s.name);
             ("start_s", J.Float (s.t0 -. base));
             ("end_s", J.Float (s.t1 -. base));
           ])
       (List.rev !recorded))

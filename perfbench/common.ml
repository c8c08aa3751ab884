(* What every workload shares: the run context, the result record, the
   episode scaffolding and small statistics helpers.  The metric catalogue
   is BENCHMARK.json (read by vbench.ml). *)

type ctx = {
  seed : int;
  seconds : float;  (** measuring window; at least one operation runs *)
  trace : bool;
}

(* A workload's outcome.  [metrics] may omit per-layer metrics the
   workload does not exercise, never an end-to-end one. *)
type result = {
  attempted : int;
  failed : int;
  problems : string list;  (** failed output checks; [] = correct *)
  metrics : (string * float) list;
}

let now = Unix.gettimeofday

(* Linear-interpolation quantile (q in [0, 1]) of a non-empty list. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    let j = min (n - 1) (i + 1) in
    a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let median xs = quantile 0.5 xs
let med_or_zero = function [] -> 0. | l -> median l
let sum xs = List.fold_left ( +. ) 0. xs
let mean xs = sum xs /. float_of_int (List.length xs)

let ratio a b = if b = 0. then 0. else a /. b

(* Seconds taken by [f ()], with its result. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* [repeat_for ctx f] calls [f i] for i = 0, 1, ...  The first call
   always runs; another starts only if, at the mean pace so far, it ends
   within [ctx.seconds] of the first call's start.  A call is never cut
   short.  Returns the number of calls. *)
let repeat_for ctx f =
  let t0 = now () in
  let i = ref 0 in
  let next_fits () =
    let elapsed = now () -. t0 in
    elapsed *. float_of_int (!i + 1) /. float_of_int !i <= ctx.seconds
  in
  while !i = 0 || next_fits () do
    (* Start every call from a compacted heap, so the heap peak is that of
       one call rather than of the garbage left by earlier ones. *)
    Gc.compact ();
    f !i;
    incr i
  done;
  !i

(* Mean self time of the spans called [name], in ms (0 when none). *)
let span_self_ms name =
  match List.assoc_opt name (Span.self_times ()) with
  | Some (secs, n) when n > 0 -> 1000. *. secs /. float_of_int n
  | _ -> 0.

(* Traced runs alternate: even operations are traced, odd ones untraced,
   so the traced-vs-untraced difference of one run is its tracing
   overhead. *)
let traced_op ctx i = ctx.trace && i mod 2 = 0

let with_tracing on f =
  Span.enabled := on;
  Fun.protect ~finally:(fun () -> Span.enabled := false) f

(* Overhead in percent of traced over untraced operation times. *)
let overhead_pct ~traced ~untraced =
  match (traced, untraced) with
  | [], _ | _, [] -> 0.
  | _ -> 100. *. ((median traced /. median untraced) -. 1.)

(* Host speed: the median time of a fixed single-domain kernel (hashing,
   sorting, allocation), in ms.  Printed beside every result, since a
   shared host can run the same work at very different speeds. *)
let host_ref_ms () =
  let kernel () =
    let h = Hashtbl.create 4096 in
    for i = 0 to 15_000 do
      Hashtbl.replace h ((i * 7919) land 0xffff) [ i ]
    done;
    let a = Array.init 10_000 (fun i -> (i * 7919) mod 10_007) in
    Array.sort compare a;
    Hashtbl.length h + a.(0)
  in
  median (List.init 15 (fun _ -> snd (timed (fun () -> ignore (Sys.opaque_identity (kernel ())))))) *. 1000.

let words_to_mb w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.

(* Peak size of the OCaml major heap, in MB (see [repeat_for]).  It
   depends on when the collector ran, so it is only a per-layer figure. *)
let peak_heap_mb () = words_to_mb (Gc.quick_stat ()).Gc.top_heap_words

(* Live major heap after a full collection, in MB: what an operation's
   results keep alive when called while they are still referenced. *)
let live_heap_mb () =
  Gc.full_major ();
  words_to_mb (Gc.quick_stat ()).Gc.live_words

(* [episodes ctx ~ops episode] repeats [episode ~first_op] within the
   window, where an episode runs [ops] operations numbered from
   [first_op]. *)
let episodes ctx ~ops episode =
  let eps = ref [] in
  ignore (repeat_for ctx (fun k -> eps := episode ~first_op:(k * ops) :: !eps));
  List.rev !eps

(* The median of a run's set-up times, topped up with calls of [extra] to
   at least three, so that set-up time is a median too.  The extra set-ups
   belong to no operation. *)
let setup_median setups ~extra =
  Span.no_op ();
  median
    (setups
    @ List.init (max 0 (3 - List.length setups)) (fun _ -> snd (timed extra)))

(* A problem when the seed-determined figures [exact] of repeated units of
   one run differ. *)
let agree what exact = function
  | [] -> []
  | x :: rest ->
      if List.for_all (fun y -> exact y = exact x) rest then []
      else [ what ^ " of one seed disagree" ]

(* The figures every workload reports about the run as a whole.
   [committed] holds the time of every operation that did not fail, with
   whether it was traced; the tracing overhead compares only those, so a
   failed operation's partial time does not skew it. *)
let run_figures ~attempted ~failed ~committed =
  let secs_of traced =
    List.filter_map (fun (t, s) -> if t = traced then Some s else None) committed
  in
  [
    ("ok_frac", float_of_int (attempted - failed) /. float_of_int attempted);
    ("run.ops", float_of_int attempted);
    ("run.peak_heap_mb", peak_heap_mb ());
    ( "run.trace_overhead_pct",
      overhead_pct ~traced:(secs_of true) ~untraced:(secs_of false) );
  ]
  @ Span.layer_self_ms ()

(* Tests for the A* estimate ([Heuristic]): on seeded random walks down the
   search tree, the incremental ĥ — per-state tables shared with or copied
   from the parent, entries derived on first read — equals a from-scratch ĥ
   that re-derives every input through the cost memo, bit for bit.  The
   reference below is the estimate as it was written before states carried
   tables. *)

module Bitset = Vis_util.Bitset
module Wmask = Vis_util.Wmask
module Schema = Vis_catalog.Schema
module Element = Vis_costmodel.Element
module Problem = Vis_core.Problem
module Config_id = Vis_core.Config_id
module Heuristic = Vis_core.Heuristic
module Schemas = Vis_workload.Schemas

(* ĥ of ([mask], [pos]) from scratch: every input looked up through a fresh
   evaluator of [mask]. *)
let reference_h (prep : Heuristic.prep) p cid mask pos =
  let schema = p.Problem.schema in
  let n = Array.length prep.Heuristic.features in
  let n_targets = Array.length prep.Heuristic.targets in
  let n_rels = Schema.n_relations schema in
  let hv = Config_id.has_view cid mask in
  let eval = Config_id.evaluator cid mask in
  let eligible k =
    match prep.Heuristic.features.(k) with
    | Problem.F_view _ | Problem.F_compress _ -> true
    | Problem.F_index ix -> (
        match ix.Element.ix_elem with
        | Element.Base _ -> true
        | Element.View w ->
            Bitset.equal w (Schema.all_relations schema)
            || hv w
            ||
            match Hashtbl.find_opt prep.Heuristic.view_pos (Bitset.to_int w) with
            | Some vp -> vp >= pos
            | None -> false)
  in
  let target_alive ti =
    let vp = prep.Heuristic.target_view_pos.(ti) in
    vp < 0 || vp >= pos
    ||
    match prep.Heuristic.targets.(ti) with
    | Element.View w -> hv w
    | Element.Base _ -> true
  in
  let ins_gap = Array.make_matrix n_targets n_rels 0. in
  for ti = 0 to n_targets - 1 do
    let elem = prep.Heuristic.targets.(ti) in
    if target_alive ti then
      Bitset.iter
        (fun r ->
          let gap =
            Heuristic.ins_eval_of eval elem r -. prep.Heuristic.full_ins.(ti).(r)
          in
          if gap > 0. then ins_gap.(ti).(r) <- gap)
        (Element.rels elem)
  done;
  let h1 = ref 0. in
  for k = pos to n - 1 do
    if eligible k then begin
      let benefit =
        List.fold_left
          (fun acc (ti, r) -> acc +. ins_gap.(ti).(r))
          prep.Heuristic.key_benefit.(k) prep.Heuristic.affected.(k)
      in
      let term = prep.Heuristic.lb_cost.(k) -. benefit in
      if term < 0. then h1 := !h1 +. term
    end
  done;
  let h2 = ref 0. in
  for ti = 0 to n_targets - 1 do
    let elem = prep.Heuristic.targets.(ti) in
    let maintained =
      match elem with
      | Element.View w -> Bitset.equal w (Schema.all_relations schema) || hv w
      | Element.Base _ -> true
    in
    if maintained then
      Bitset.iter
        (fun r ->
          let d, u = Heuristic.delupd_of eval elem r in
          let dgap = Float.max 0. (d -. prep.Heuristic.full_del.(ti).(r)) in
          let ugap = Float.max 0. (u -. prep.Heuristic.full_upd.(ti).(r)) in
          h2 := !h2 -. ins_gap.(ti).(r) -. dgap -. ugap)
        (Element.rels elem)
  done;
  for r = 0 to n_rels - 1 do
    let d, u = Heuristic.delupd_of eval (Element.Base r) r in
    h2 := !h2 -. Float.max 0. (d -. prep.Heuristic.full_base_del.(r));
    h2 := !h2 -. Float.max 0. (u -. prep.Heuristic.full_base_upd.(r))
  done;
  Float.max !h1 !h2

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* One walk from the root to a complete state.  At every state both
   successors are estimated (the "without" one shares the parent's table,
   the "with" one copies the chunks the flipped bit touches), each against
   the reference; the parent is then re-estimated, to show its table took no
   writes from either child, and the walk continues into a random one. *)
let walk ~name p seed =
  let cid = Config_id.of_problem p in
  let prep = Vis_util.Parallel.using ~jobs:1 (fun pool -> Heuristic.prepare ~pool p) in
  let h = Heuristic.make cid prep in
  let prep_bit =
    Array.map
      (fun f -> Option.get (Config_id.bit_of_feature cid f))
      prep.Heuristic.features
  in
  let n = Array.length prep_bit in
  let rng = Random.State.make [| seed; n |] in
  let check what mask pos got =
    let want = reference_h prep p cid mask pos in
    if not (same_bits got want) then
      Alcotest.failf "%s seed %d %s at pos %d: incremental %h, reference %h" name
        seed what pos got want
  in
  let root = Heuristic.root h in
  let root_mask = Config_id.empty cid in
  check "root" root_mask 0 (Heuristic.estimate h root root_mask ~pos:0);
  let rec go mask tbl pos =
    if pos < n then begin
      let before = Heuristic.estimate h tbl mask ~pos in
      let succ_mask with_f = if with_f then Config_id.add cid mask prep_bit.(pos) else mask in
      let can_add =
        match prep.Heuristic.features.(pos) with
        | Problem.F_index _ -> Heuristic.eligible h mask pos pos
        | Problem.F_view _ | Problem.F_compress _ -> true
      in
      let children =
        List.map
          (fun with_f ->
            let m = succ_mask with_f in
            let t = Heuristic.child h ~parent:tbl mask m in
            check (if with_f then "with" else "without") m (pos + 1)
              (Heuristic.estimate h t m ~pos:(pos + 1));
            (m, t))
          (if can_add then [ false; true ] else [ false ])
      in
      if not (same_bits before (Heuristic.estimate h tbl mask ~pos)) then
        Alcotest.failf "%s seed %d: parent estimate changed at pos %d" name seed pos;
      let m, t = List.nth children (Random.State.int rng (List.length children)) in
      go m t (pos + 1)
    end
  in
  go root_mask root 0

let walks ~name ?(compression = false) schema seeds () =
  let p = Problem.make ~compression schema in
  List.iter (walk ~name p) seeds

let () =
  Alcotest.run "heuristic"
    [
      ( "incremental = from scratch",
        [
          Alcotest.test_case "chain-4" `Quick
            (walks ~name:"chain-4" (Schemas.chain ~n:4 ()) [ 1; 2; 3; 4 ]);
          Alcotest.test_case "chain-4 compressed" `Quick
            (walks ~name:"chain-4c" ~compression:true (Schemas.chain ~n:4 ()) [ 5; 6; 7 ]);
          Alcotest.test_case "chain-7 (two mask words)" `Quick
            (walks ~name:"chain-7" (Schemas.chain ~n:7 ()) [ 8; 9 ]);
          Alcotest.test_case "chain-7 compressed" `Quick
            (walks ~name:"chain-7c" ~compression:true (Schemas.chain ~n:7 ()) [ 10 ]);
          Alcotest.test_case "star-7" `Quick
            (walks ~name:"star-7" (Schemas.star ~n_dims:6 ()) [ 11; 12 ]);
          Alcotest.test_case "star-7 compressed" `Quick
            (walks ~name:"star-7c" ~compression:true (Schemas.star ~n_dims:6 ()) [ 13 ]);
        ] );
    ]

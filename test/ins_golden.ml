(* Golden rendering of the insertion-plan optimizer: for seeded random
   configurations on four problems, the total maintenance cost and, for
   every maintained element and delta relation, the full [prop_ins]
   breakdown and its winning plan.  Floats print as [%h], so the text pins
   every bit.  [test/ins_golden.expected] is this module's output recorded
   before the insertion DP was rewritten over precomputed skeletons; the
   costmodel suite asserts that the current code reproduces it exactly. *)

module Bitset = Vis_util.Bitset
module Schema = Vis_catalog.Schema
module Element = Vis_costmodel.Element
module Config = Vis_costmodel.Config
module Cost = Vis_costmodel.Cost
module Problem = Vis_core.Problem
module Schemas = Vis_workload.Schemas

(* A random configuration of [p]: each candidate view with probability
   [pv], each index whose element is materialized with probability [pi],
   each compression candidate with probability 1/2. *)
let random_config rng p ~pv ~pi =
  let views =
    List.filter (fun _ -> Random.State.float rng 1. < pv) p.Problem.candidate_views
  in
  let indexes =
    List.filter
      (fun _ -> Random.State.float rng 1. < pi)
      (Problem.indexes_for_views p views)
  in
  List.fold_left
    (fun c e -> if Random.State.bool rng then Config.add_compress c e else c)
    (Config.make ~views ~indexes)
    (Problem.compress_candidates p)

let render_config buf p config =
  let schema = p.Problem.schema in
  let pr fmt = Printf.bprintf buf fmt in
  pr "config %s\n" (Config.describe schema config);
  pr "total_of %h\n" (Cost.total_of p.Problem.derived config);
  pr "problem_total %h\n" (Problem.total p config);
  let eval = Cost.create p.Problem.derived config in
  List.iter
    (fun target ->
      Bitset.iter
        (fun rel ->
          let pi, plan = Cost.prop_ins eval ~target ~rel in
          pr "%s/%s eval %h apply %h save %h index %h tuples %h plan %s\n"
            (Element.name schema target)
            (Schema.relation schema rel).Schema.rel_name
            pi.Cost.p_eval pi.Cost.p_apply pi.Cost.p_save pi.Cost.p_index
            pi.Cost.p_result_tuples
            (Format.asprintf "%a" (Cost.pp_ins_plan schema ~target ~rel) plan))
        (Element.rels target))
    (Cost.maintained_elements eval)

let problems () =
  [
    ("schema1", Problem.make (Schemas.schema1 ()), 12, 0.4, 0.4);
    ("chain4", Problem.make (Schemas.chain ~n:4 ()), 12, 0.3, 0.3);
    ("star7", Problem.make (Schemas.star ~n_dims:6 ()), 4, 0.08, 0.3);
    ( "chain3-compress",
      Problem.make ~compression:true (Schemas.chain ~n:3 ()),
      12, 0.4, 0.4 );
  ]

let render () =
  let buf = Buffer.create (1 lsl 16) in
  List.iteri
    (fun i (name, p, n, pv, pi) ->
      let rng = Random.State.make [| 0x1e5; i |] in
      for k = 1 to n do
        Printf.bprintf buf "== %s #%d\n" name k;
        render_config buf p (random_config rng p ~pv ~pi)
      done)
    (problems ());
  Buffer.contents buf

(* optimize-star7 and optimize-chain4: what [visadvisor optimize] waits
   for, [Problem.make] plus the A* search, repeated on one schema. *)

open Common
module Astar = Vis_core.Astar
module Problem = Vis_core.Problem
module Search_stats = Vis_core.Search_stats
module Cost = Vis_costmodel.Cost
module Schemas = Vis_workload.Schemas

type kind =
  | Star7  (** budgeted A*, fixed expansion budget, no beam, jobs 2 *)
  | Chain4  (** A* to a proven optimum, jobs 1 *)

let jobs = function Star7 -> 2 | Chain4 -> 1
let star_budget = 5_000

(* The seed perturbs the base cardinality by at most 0.25%, so each seed
   is its own instance of the same shape. *)
let make_schema kind ~seed =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let jitter = 1. +. (0.0025 *. (Random.State.float rng 2. -. 1.)) in
  match kind with
  (* A fact table and six dimensions.  Star-8 (seven dimensions) has the
     same shape, but its fixed prepare and greedy-seed phases take about
     3 s, so only five searches fit a 30-s window and their p90 is close to
     the slowest one. *)
  | Star7 -> Schemas.star ~base_card:(2_000. *. jitter) ~n_dims:6 ()
  | Chain4 -> Schemas.chain ~base_card:(10_000. *. jitter) ~n:4 ()

(* Set-up is what the advisor does before optimizing: read the schema.  It
   is rendered to the schema DSL and parsed back, as [visadvisor -f]
   would read it. *)
let setup kind ~seed =
  Vis_catalog.Dsl.parse_string (Vis_catalog.Dsl.to_string (make_schema kind ~seed))

(* What one search leaves behind; the problem and its memo are dropped. *)
type op = {
  secs : float;  (** Problem.make + search *)
  make_secs : float;
  total_of_secs : float;
  phases : (string * float) list;
  exact : (string * float) list;  (** counts every repetition reproduces *)
  cache : (string * float) list;  (** memo counters *)
  work_balance : float;
  problems : string list;
  live_mb : float;  (** live heap with the problem and result held *)
}

(* The deterministic counts of one search. *)
let counters (p : Problem.t) (r : Astar.result) ~gap =
  let s = r.Astar.search_stats in
  let fi = float_of_int in
  let pruned rule = fi (Search_stats.pruned s rule) in
  let incr =
    match p.Problem.encoding with
    | None -> []
    | Some enc ->
        let i = Cost.incr_stats enc in
        [
          ("costmodel.full_evals", fi i.Cost.is_full);
          ("costmodel.delta_evals", fi i.Cost.is_delta);
          ("costmodel.reused_evals", fi i.Cost.is_reused);
          ("costmodel.elems_computed", fi i.Cost.is_elems_computed);
          ("costmodel.elems_copied", fi i.Cost.is_elems_copied);
        ]
  in
  [
    ("design_cost_io", r.Astar.best_cost);
    ("core.certificate_gap", gap);
    ("core.expanded", fi (Search_stats.expanded s));
    ("core.generated", fi (Search_stats.generated s));
    ("core.evaluated", fi (Search_stats.evaluated s));
    ( "core.expanded_per_generated",
      ratio (fi (Search_stats.expanded s)) (fi (Search_stats.generated s)) );
    ("core.max_frontier", fi (Search_stats.max_frontier s));
    ("core.pruned.dominance", pruned "dominance");
    ("core.pruned.incumbent-bound", pruned "incumbent-bound");
    ("core.pruned.ineligible-index", pruned "ineligible-index");
    ("core.pruned.stale-bound", pruned "stale-bound");
    ("core.pruned.beam-width", pruned "beam-width");
    ("core.pruned.expansion-budget", pruned "expansion-budget");
    ("core.rounds", fi (Search_stats.round_count s));
    ( "core.modeled_speedup",
      Option.value ~default:1. (Search_stats.modeled_speedup s ~jobs:2) );
  ]
  @ incr

(* Memo counters.  Exact at jobs 1; at jobs 2 two domains may both derive
   an entry the other is about to store, so hits and misses vary a little
   from run to run. *)
let cache_counters (p : Problem.t) =
  let cs = Cost.cache_stats p.Problem.cache in
  let fi = float_of_int in
  [
    ("costmodel.cache_hits", fi cs.Cost.cs_hits);
    ("costmodel.cache_misses", fi cs.Cost.cs_misses);
    ("costmodel.cache_hit_rate", Cost.hit_rate cs);
    ("costmodel.cache_entries", fi cs.Cost.cs_entries);
    ("costmodel.cache_evictions", fi cs.Cost.cs_evictions);
  ]

let optimize kind schema =
  let t0 = now () in
  let p, make_secs =
    timed (fun () -> Span.span "core.problem_make" (fun () -> Problem.make schema))
  in
  let r, cert =
    Span.span "core.astar" (fun () ->
        let r, cert =
          match kind with
          | Star7 -> Astar.search_budgeted ~max_expanded:star_budget ~jobs:(jobs Star7) p
          | Chain4 -> (
              try (Astar.search ~jobs:(jobs Chain4) p, Astar.Optimal)
              with Astar.Budget_exceeded _ ->
                (* reported as a failed check below *)
                Astar.search_budgeted ~jobs:(jobs Chain4) p)
        in
        Span.phases
          (List.map
             (fun (n, s) -> ("core.astar." ^ n, s))
             (Search_stats.phase_timings r.Astar.search_stats));
        (r, cert))
  in
  let secs = now () -. t0 in
  let rederived, total_of_secs =
    timed (fun () ->
        Span.span "costmodel.total_of" (fun () ->
            Cost.total_of p.Problem.derived r.Astar.best))
  in
  let gap, optimal =
    match cert with
    | Astar.Optimal -> (0., true)
    | Astar.Bounded { gap; _ } -> (gap, false)
  in
  let problems =
    List.filter_map Fun.id
      [
        (if rederived <> r.Astar.best_cost then
           Some
             (Printf.sprintf
                "Cost.total_of re-derives %.17g, search returned %.17g"
                rederived r.Astar.best_cost)
         else None);
        (if not (Problem.valid_config p r.Astar.best) then
           Some "returned design is not a valid configuration"
         else None);
        (if kind = Chain4 && not optimal then
           Some "chain-4 search earned no Optimal certificate"
         else None);
      ]
  in
  {
    secs;
    make_secs;
    total_of_secs;
    phases = Search_stats.phase_timings r.Astar.search_stats;
    exact = counters p r ~gap;
    cache = cache_counters p;
    work_balance =
      Option.value ~default:1. (Search_stats.work_balance r.Astar.search_stats);
    problems;
    live_mb = live_heap_mb ();
  }

let run kind ctx =
  let schema = setup kind ~seed:ctx.seed in
  let ops = ref [] and traced = ref [] and setups = ref [] in
  let n =
    repeat_for ctx (fun i ->
        (* Set-up takes well under 1 ms, and a burst of repeats shares one
           moment of the host's speed, so it is timed 25 times before every
           search, across the whole window. *)
        for _ = 1 to 25 do
          setups := snd (timed (fun () -> setup kind ~seed:ctx.seed)) :: !setups
        done;
        let on = traced_op ctx i in
        Span.new_op ();
        ops := with_tracing on (fun () -> optimize kind schema) :: !ops;
        traced := on :: !traced)
  in
  let ops = List.rev !ops and traced = List.rev !traced in
  let first = List.hd ops in
  let exact op = op.exact @ if kind = Chain4 then op.cache else [] in
  let problems =
    List.concat_map (fun op -> op.problems) ops @ agree "repeated searches" exact ops
  in
  let failed = List.length (List.filter (fun op -> op.problems <> []) ops) in
  let med f = median (List.map f ops) in
  let phase name op = Option.value ~default:0. (List.assoc_opt name op.phases) in
  let ms = List.map (fun op -> 1000. *. op.secs) ops in
  {
    attempted = n;
    failed;
    problems;
    metrics =
      first.exact @ first.cache
      @ [
          ("setup_s", median !setups);
          ("op_ms_mean", mean ms);
          ("run.op_ms_p50", median ms);
          ("op_ms_p90", quantile 0.9 ms);
          ("live_heap_mb", med (fun op -> op.live_mb));
          ("core.problem_make_s", med (fun op -> op.make_secs));
          ("core.prepare_s", med (phase "prepare"));
          ("core.greedy_seed_s", med (phase "greedy-seed"));
          ("core.search_s", med (phase "search"));
          ("core.work_balance", first.work_balance);
          ("costmodel.total_of_ms", 1000. *. med (fun op -> op.total_of_secs));
        ]
      @ run_figures ~attempted:n ~failed
          ~committed:
            (List.filter_map
               (fun (on, op) -> if op.problems = [] then Some (on, op.secs) else None)
               (List.combine traced ops));
  }

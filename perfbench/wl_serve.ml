(* serve-drift: the advisor daemon ([Service]) at jobs 1 with four
   tenants at zipf-weighted rates, ticked back to back.  Tenant 0's delta
   volume steps up threefold half-way, so the monitor -> sensitivity ->
   budgeted-A* loop re-optimizes and swaps designs mid-run.  Every pool is
   sized to hold its tenant's data: this is the in-cache counterpart of
   refresh-stream.

   Like refresh-stream, the run is a sequence of identical episodes, so
   every counter is exact for a seed. *)

open Common
module Service = Vis_service.Service
module Stream = Vis_service.Stream
module Schemas = Vis_workload.Schemas
module Problem = Vis_core.Problem
module Astar = Vis_core.Astar
module Schema = Vis_catalog.Schema

let tenants = 4
let ticks = 120
(* One domain: on a shared 2-vCPU host the jobs-2 tick loop, which fans
   out to the second domain every few tens of milliseconds, swung by up to
   2x between runs; at jobs 1 it stays steady.  optimize-star7 keeps the
   pool busy at jobs 2. *)
let jobs = 1
let base_rate = 8.

(* About 600 pages of data per tenant in a 4000-page pool.  Equal insert
   and delete fractions keep each tenant's stored size level. *)
let schema () =
  Schemas.validation ~base_card:400. ~mem_pages:4_000 ~ins_frac:0.01
    ~del_frac:0.01 ~upd_frac:0.005 ()

let drift k =
  if k = 0 then Stream.Step { at = ticks / 2; factor = 3. } else Stream.Constant

(* The arrival schedule is a fixed trace (stream seed 42): the run's seed
   draws each tenant's data and delta contents.  Batch sizes follow the
   schema's statistics, so the monitor sees the same load on every seed
   and re-optimizes on the same ticks. *)
let arrival_seed = 42

let config =
  {
    Service.default_config with
    Service.sv_seed = arrival_seed;
    sv_jobs = jobs;
    sv_warmup = 2;
    sv_band = 1.5;
    sv_budget = 4_000;
  }

(* Set-up's spans belong to no operation. *)
let setup ~seed =
  Span.no_op ();
  let schema = schema () in
  let design =
    Span.span "core.astar" (fun () -> (Astar.search ~jobs (Problem.make schema)).Astar.best)
  in
  let svc = Service.create ~config () in
  for k = 0 to tenants - 1 do
    ignore
      (Service.add_tenant ~seed:((seed * 7919) + k)
         ~rate:(base_rate *. Stream.zipf_weight ~s:0.8 ~rank:k)
         ~drift:(drift k) ~config:design svc schema)
  done;
  (schema, svc)

type tick_out = {
  t_secs : float;
  t_traced : bool;
  t_reopt : bool;
  t_failed : bool;  (** a tenant's refresh group ended in an error *)
}

type episode = {
  e_setup : float;
  e_ticks : tick_out list;
  e_stats : Service.tenant_stats list;
  e_totals : Service.totals;
  e_design_cost : float;
  e_live_mb : float;
}

let sum_stats svc f =
  List.fold_left (fun a id -> a + f (Service.stats svc id)) 0 (Service.tenant_ids svc)

let episode ctx ~first_op =
  let (schema, svc), setup =
    timed (fun () -> with_tracing ctx.trace (fun () -> setup ~seed:ctx.seed))
  in
  let outs =
    List.init ticks (fun i ->
        Span.new_op ();
        let reopts = sum_stats svc (fun s -> s.Service.ts_reopts) in
        let failed = sum_stats svc (fun s -> s.Service.ts_failed) in
        let on = traced_op ctx (first_op + i) in
        let (), secs =
          with_tracing on (fun () ->
              timed (fun () -> Span.span "service.tick" (fun () -> Service.tick svc)))
        in
        {
          t_secs = secs;
          t_traced = on;
          t_reopt = sum_stats svc (fun s -> s.Service.ts_reopts) > reopts;
          t_failed = sum_stats svc (fun s -> s.Service.ts_failed) > failed;
        })
  in
  (* Each tenant's final design, costed at the rates it faces at the end
     of the run. *)
  let design_cost =
    List.fold_left
      (fun acc id ->
        let factor = Stream.drift_factor (drift id) ~tick:ticks in
        let p = Problem.make (Schema.scale_deltas schema factor) in
        acc +. Problem.total p (Service.incumbent svc id))
      0. (Service.tenant_ids svc)
  in
  let stats = List.map (Service.stats svc) (Service.tenant_ids svc) in
  let totals = Service.totals svc in
  let live_mb = live_heap_mb () in
  Service.shutdown svc;
  {
    e_setup = setup;
    e_ticks = outs;
    e_stats = stats;
    e_totals = totals;
    e_design_cost = design_cost;
    e_live_mb = live_mb;
  }

(* The per-tenant sums restate how [Service.totals] is computed; they
   guard against that changing.  The tick count is counted here. *)
let check e =
  let t = e.e_totals in
  let sum f = List.fold_left (fun a s -> a + f s) 0 e.e_stats in
  List.filter_map Fun.id
    [
      (if t.Service.tt_reopts < 1 then Some "no re-optimization happened" else None);
      (if t.Service.tt_swaps < 1 then Some "no configuration swap happened" else None);
      (if t.Service.tt_ticks <> ticks then
         Some (Printf.sprintf "service counted %d ticks, %d were run" t.Service.tt_ticks ticks)
       else None);
      (if sum (fun s -> s.Service.ts_rows) <> t.Service.tt_rows then
         Some "per-tenant rows do not sum to the total"
       else None);
      (if sum (fun s -> s.Service.ts_batches) <> t.Service.tt_batches then
         Some "per-tenant batches do not sum to the total"
       else None);
    ]

let run ctx =
  let eps = episodes ctx ~ops:ticks (episode ctx) in
  let setups =
    setup_median (List.map (fun e -> e.e_setup) eps) ~extra:(fun () ->
        Service.shutdown (snd (setup ~seed:ctx.seed)))
  in
  let e1 = List.hd eps in
  let all = List.concat_map (fun e -> e.e_ticks) eps in
  let attempted = List.length all in
  let failed = List.length (List.filter (fun o -> o.t_failed) all) in
  let problems =
    List.concat_map check eps @ agree "episodes" (fun e -> e.e_stats) eps
  in
  let fi = float_of_int in
  let t = e1.e_totals in
  let sum f = fi (List.fold_left (fun a s -> a + f s) 0 e1.e_stats) in
  let ms l = List.map (fun o -> 1000. *. o.t_secs) l in
  let all_ms = ms all in
  let tick_wall = Common.sum all_ms /. 1000. in
  let rows = fi (List.fold_left (fun a e -> a + e.e_totals.Service.tt_rows) 0 eps) in
  {
    attempted;
    failed;
    problems;
    metrics =
      [
        ("setup_s", setups);
        ("op_ms_mean", mean all_ms);
        ("run.op_ms_p50", median all_ms);
        ("op_ms_p90", quantile 0.9 all_ms);
        ("design_cost_io", e1.e_design_cost);
        ("live_heap_mb", median (List.map (fun e -> e.e_live_mb) eps));
        ("service.tick_ms_reopt", med_or_zero (ms (List.filter (fun o -> o.t_reopt) all)));
        ( "service.tick_ms_refresh_only",
          med_or_zero (ms (List.filter (fun o -> not o.t_reopt) all)) );
        ("service.rows_per_s", rows /. tick_wall);
        ("service.reopts", fi t.Service.tt_reopts);
        ("service.checks", sum (fun s -> s.Service.ts_checks));
        ("service.gated", sum (fun s -> s.Service.ts_gated));
        ("service.swaps", fi t.Service.tt_swaps);
        ("service.swaps_per_reopt", ratio (fi t.Service.tt_swaps) (fi t.Service.tt_reopts));
        ("service.bounded", sum (fun s -> s.Service.ts_bounded));
        ("service.group_syncs", sum (fun s -> s.Service.ts_group_syncs));
        ( "service.batches_per_sync",
          ratio (fi t.Service.tt_batches) (sum (fun s -> s.Service.ts_group_syncs)) );
        ("service.sim_p99_latency_ms", t.Service.tt_p99_latency_ms);
        ("storage.wal_syncs", ratio (sum (fun s -> s.Service.ts_wal_syncs)) (fi t.Service.tt_batches));
        ("maintenance.io_per_row", ratio (sum (fun s -> s.Service.ts_io)) (fi t.Service.tt_rows));
      ]
      @ run_figures ~attempted ~failed
          ~committed:
            (List.filter_map
               (fun o -> if o.t_failed then None else Some (o.t_traced, o.t_secs))
               all);
  }

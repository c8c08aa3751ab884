(* refresh-stream: one client applying a stream of delta batches to a
   checksum-protected warehouse far larger than its buffer pool, one
   [Refresh.run_protected] call per batch, with a [Warehouse.scrub] pass
   every few batches.

   The run is a sequence of identical episodes (set-up, then the same
   [batches] batches), so every counter is exact for a seed however many
   episodes fit in the window.  A batch that raises counts as failed; the
   warehouse is then rebuilt from the logical mirror, which has the batch
   applied, so the stream attempts the same batches whether or not the
   batch failed. *)

open Common
module Schemas = Vis_workload.Schemas
module Datagen = Vis_workload.Datagen
module Warehouse = Vis_maintenance.Warehouse
module Refresh = Vis_maintenance.Refresh
module Validate = Vis_maintenance.Validate
module Iostats = Vis_storage.Iostats
module Problem = Vis_core.Problem
module Astar = Vis_core.Astar

let jobs = 1
let batches = 64
let scrub_every = 8

(* About 11k data pages behind the schema's 40-page pool.  Equal insert
   and delete fractions keep the stored size level. *)
let schema () =
  Schemas.validation ~base_card:10_000. ~ins_frac:0.01 ~del_frac:0.01
    ~upd_frac:0.005 ()

(* Per-batch storage counters. *)
let storage_counters =
  Iostats.
    [
      ("storage.reads", reads);
      ("storage.writes", writes);
      ("storage.accesses", accesses);
      ("storage.pool_evictions", pool_evictions);
      ("storage.pool_overflows", pool_overflows);
      ("storage.wal_writes", wal_writes);
      ("storage.wal_syncs", wal_syncs);
      ("storage.checksum_verifications", checksum_verifications);
      ("storage.checksum_failures", checksum_failures);
    ]

type batch_out = {
  b_secs : float;
  b_traced : bool;
  b_rows : int;
  b_ok : bool;
  b_io : int;  (** measured page I/O of an applied batch *)
  b_predicted : float;
  b_counts : int list;  (** [storage_counters], in order *)
  b_hits : int;
  b_misses : int;
}

type episode = {
  e_setup : float;
  e_build : float;
  e_design_cost : float;
  e_batches : batch_out list;
  e_datagen : float list;
  e_scrub : float list;
  e_rebuild : float list;
  e_check : float;
  e_problems : string list;
  e_live_mb : float;
  e_convicted : int;  (** pages the scrubs convicted *)
}

type env = {
  schema : Vis_catalog.Schema.t;
  design : Vis_costmodel.Config.t;
  design_cost : float;
  dataset : Datagen.dataset;
  warehouse : Warehouse.t;
  rng : Random.State.t;  (** draws the delta batches *)
  build : float;
}

(* Set-up: choose the design (the search runs here, once), generate the
   data and build the checksum-protected warehouse.  Its spans belong to no
   operation. *)
let setup ctx =
  Span.no_op ();
  let span name f = with_tracing ctx.trace (fun () -> Span.span name f) in
  let schema = schema () in
  let p = span "core.problem_make" (fun () -> Problem.make schema) in
  let r = span "core.astar" (fun () -> Astar.search ~jobs p) in
  let rng = Random.State.make [| ctx.seed; 0x57ea |] in
  let dataset = Datagen.generate ~rng schema in
  let warehouse, build =
    timed (fun () ->
        span "maintenance.build" (fun () ->
            Warehouse.build ~checksums:true schema r.Astar.best dataset))
  in
  {
    schema;
    design = r.Astar.best;
    design_cost = r.Astar.best_cost;
    dataset;
    warehouse;
    rng;
    build;
  }

(* One batch is one operation: its delta generation, the refresh, and the
   rebuild or scrub after it.  A traced run traces alternate blocks of
   [scrub_every] batches, so each traced block carries its one scrub and
   traced batches scrub at the same rate as all batches. *)
let episode ctx ~first_op =
  let env, setup = timed (fun () -> setup ctx) in
  let { schema; design; rng; _ } = env in
  let mirror = ref env.dataset and w = ref env.warehouse in
  let datagen = ref [] and scrubs = ref [] and rebuilds = ref [] in
  let convicted = ref 0 in
  let outs =
    List.init batches (fun i ->
        Span.new_op ();
        let on = traced_op ctx ((first_op + i) / scrub_every) in
        with_tracing on @@ fun () ->
        let batch, dg =
          timed (fun () ->
              Span.span "workload.datagen" (fun () ->
                  Datagen.deltas_evolving ~rng schema !mirror))
        in
        datagen := dg :: !datagen;
        let outcome, secs =
          timed (fun () ->
              Span.span "maintenance.refresh" (fun () ->
                  try Ok (Refresh.run_protected !w batch)
                  with Vis_storage.Buffer_pool.Corruption page -> Error page))
        in
        let st = !w.Warehouse.w_stats in
        let counts = List.map (fun (_, get) -> get st) storage_counters in
        let hits = Iostats.pool_hits st and misses = Iostats.pool_misses st in
        mirror := Datagen.apply schema !mirror batch;
        let rows = Datagen.batch_rows batch in
        let out =
          {
            b_secs = secs;
            b_traced = on;
            b_rows = rows;
            b_ok = false;
            b_io = 0;
            b_predicted = 0.;
            b_counts = counts;
            b_hits = hits;
            b_misses = misses;
          }
        in
        let out =
          match outcome with
          | Ok (Ok (report, _)) ->
              {
                out with
                b_ok = true;
                b_io = Refresh.total_io report;
                b_predicted = report.Refresh.rp_predicted;
              }
          | Ok (Error _) | Error _ ->
              let fresh, secs =
                timed (fun () ->
                    Span.span "maintenance.rebuild" (fun () ->
                        Warehouse.build ~checksums:true schema design !mirror))
              in
              rebuilds := secs :: !rebuilds;
              w := fresh;
              out
        in
        if (i + 1) mod scrub_every = 0 then begin
          let report, secs =
            timed (fun () ->
                Span.span "maintenance.scrub" (fun () ->
                    Warehouse.scrub ~fail_unrecoverable:false !w))
          in
          scrubs := secs :: !scrubs;
          convicted := !convicted + report.Warehouse.sc_corrupt
        end;
        out)
  in
  let live_mb = live_heap_mb () in
  Span.no_op ();
  let views, check =
    timed (fun () ->
        with_tracing ctx.trace (fun () ->
            Span.span "maintenance.check_views" (fun () -> Validate.check_views !w)))
  in
  let problems =
    (if Validate.all_ok views then []
     else [ "Validate.check_views: a view disagrees with its recomputation" ])
    @
    match Warehouse.integrity_check !w with
    | Ok () -> []
    | Error msg -> [ "Warehouse.integrity_check: " ^ msg ]
  in
  {
    e_setup = setup;
    e_build = env.build;
    e_design_cost = env.design_cost;
    e_batches = outs;
    e_datagen = List.rev !datagen;
    e_scrub = List.rev !scrubs;
    e_rebuild = List.rev !rebuilds;
    e_check = check;
    e_problems = problems;
    e_live_mb = live_mb;
    e_convicted = !convicted;
  }

(* The exact, seed-determined figures of an episode. *)
let exact e =
  ( e.e_convicted,
    List.map (fun b -> (b.b_rows, b.b_ok, b.b_io, b.b_predicted, b.b_counts)) e.e_batches )

let run ctx =
  let eps = episodes ctx ~ops:batches (episode ctx) in
  let setups =
    setup_median (List.map (fun e -> e.e_setup) eps) ~extra:(fun () ->
        ignore (setup ctx))
  in
  let e1 = List.hd eps in
  let all = List.concat_map (fun e -> e.e_batches) eps in
  let attempted = List.length all in
  let failed = List.length (List.filter (fun b -> not b.b_ok) all) in
  let problems =
    List.concat_map (fun e -> e.e_problems) eps @ agree "episodes" exact eps
  in
  let fi = float_of_int in
  let b1 = e1.e_batches in
  let nb = fi (List.length b1) in
  let ok1 = List.filter (fun b -> b.b_ok) b1 in
  let sumi f l = fi (List.fold_left (fun a b -> a + f b) 0 l) in
  let per_batch =
    List.mapi
      (fun i (name, _) -> (name, sumi (fun b -> List.nth b.b_counts i) b1 /. nb))
      storage_counters
  in
  (* Latency of committed batches; a failed batch shows in [ok_frac]. *)
  let committed = List.filter (fun b -> b.b_ok) all in
  let ms = List.map (fun b -> 1000. *. b.b_secs) committed in
  let wall =
    sum (List.map (fun b -> b.b_secs) all)
    +. sum (List.concat_map (fun e -> e.e_scrub @ e.e_rebuild) eps)
  in
  let applied_rows = sumi (fun b -> b.b_rows) committed in
  {
    attempted;
    failed;
    problems;
    metrics =
      [
        ("setup_s", setups);
        ("op_ms_mean", mean ms);
        ("run.op_ms_p50", median ms);
        ("op_ms_p90", quantile 0.9 ms);
        ("design_cost_io", e1.e_design_cost);
        ("live_heap_mb", median (List.map (fun e -> e.e_live_mb) eps));
      ]
      @ per_batch
      @ [
          ( "storage.pool_hit_rate",
            ratio (sumi (fun b -> b.b_hits) b1)
              (sumi (fun b -> b.b_hits + b.b_misses) b1) );
          ("maintenance.refresh_ms", span_self_ms "maintenance.refresh");
          ("maintenance.rows_per_s", applied_rows /. wall);
          ( "maintenance.io_per_row",
            ratio (sumi (fun b -> b.b_io) ok1) (sumi (fun b -> b.b_rows) ok1) );
          ( "maintenance.predicted_over_measured_io",
            ratio (sum (List.map (fun b -> b.b_predicted) ok1)) (sumi (fun b -> b.b_io) ok1) );
          ("maintenance.build_s", median (List.map (fun e -> e.e_build) eps));
          ("maintenance.rebuild_s", med_or_zero (List.concat_map (fun e -> e.e_rebuild) eps));
          ("maintenance.scrub_ms", 1000. *. med_or_zero (List.concat_map (fun e -> e.e_scrub) eps));
          ("maintenance.scrub_convicted", fi e1.e_convicted);
          ("maintenance.check_views_s", median (List.map (fun e -> e.e_check) eps));
          ("workload.datagen_ms", 1000. *. median (List.concat_map (fun e -> e.e_datagen) eps));
        ]
      @ run_figures ~attempted ~failed
          ~committed:(List.map (fun b -> (b.b_traced, b.b_secs)) committed);
  }

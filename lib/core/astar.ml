module Parallel = Vis_util.Parallel
module Pqueue = Vis_util.Pqueue
module Config = Vis_costmodel.Config
module Cost = Vis_costmodel.Cost

type stats = { expanded : int; generated : int; exhaustive_states : float }

type result = {
  best : Config.t;
  best_cost : float;
  stats : stats;
  search_stats : Search_stats.t;
}

exception Budget_exceeded of stats

(* ------------------------------------------------------------------ *)

type certificate = Optimal | Bounded of { lower_bound : float; gap : float }

(* Growable float buffer: the popped-[ĉ] audit trail, one per shard. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1
end

(* One sub-frontier of the sharded search: a private priority queue plus
   shard-local counters and a local view of the incumbent bound.  A worker
   touches only its own shard between barriers (the sharding contract of
   {!Vis_util.Parallel}); the coordinator merges the [d_*] round deltas and
   the [s_best] incumbents in shard order after every round, which keeps
   every global counter and the winning configuration independent of the
   pool width. *)
(* A search state: the incremental evaluation of its mask and its ĥ
   inputs. *)
type state = { ie : Cost.ieval; ht : Heuristic.table }

type shard = {
  sq : (int * state * float) Pqueue.t;  (* (pos, state, g) at priority ĉ *)
  s_popped : Fbuf.t;
  mutable s_bound : float;  (* round-start global bound, improved locally *)
  mutable s_best : (float * state) option;  (* best completion found here *)
  mutable s_done : bool;
  mutable s_dropped_lb : float;  (* smallest beam-dropped ĉ; ∞ if none *)
  mutable s_complete : float;  (* cost of own popped completion; ∞ if none *)
  (* Round deltas, merged and zeroed by the coordinator at the barrier. *)
  mutable d_exp : int;
  mutable d_gen : int;
  mutable d_eval : int;
  mutable d_inc : int;
  mutable d_inel : int;
  mutable d_stale : int;
  mutable d_beam : int;
}

(* Features a problem must retain (post-dominance) before the search shards
   its frontier by default; below this the coarse-grained machinery costs
   more than it can overlap. *)
let shard_threshold = 32

(* Expansions each shard performs per exchange round: large enough that a
   round amortizes the barrier, small enough that improved incumbents
   propagate before shards over-expand against a stale bound. *)
let shard_quantum = 48

(* BFS depth of the sequential prefix that seeds the shards — up to
   [2^shard_prefix_depth] sub-frontiers, keyed by the first feature
   decisions of the configuration mask. *)
let shard_prefix_depth = 6

let search_internal ?warm_start ~max_expanded ~beam ~shard ~on_budget ~pool p =
  let sstats = Search_stats.create ~algorithm:"astar" () in
  let work_before = Parallel.work_counts pool in
  let prep = Search_stats.time sstats "prepare" (fun () -> Heuristic.prepare ~pool p) in
  (match List.length prep.dropped with
  | 0 -> ()
  | n -> Search_stats.prune ~count:n sstats "dominance");
  (* Search state: prep position [k] decides universe bit [prep_bit.(k)]
     (the dominance fixpoint kept a subset of the problem's features, so
     the two numberings differ). *)
  let cid = Config_id.of_problem p in
  let prep_bit =
    Array.map (fun f -> Option.get (Config_id.bit_of_feature cid f)) prep.features
  in
  let n = Array.length prep.features in
  let exhaustive_states = Exhaustive.count_states p in
  let stats () =
    {
      expanded = Search_stats.expanded sstats;
      generated = Search_stats.generated sstats;
      exhaustive_states;
    }
  in
  (* Popped priorities, kept so admissibility ([ĉ ≤ C*] for every state
     popped before the goal) can be verified once the optimum is known. *)
  let popped = Fbuf.create () in
  let check_admissibility optimum =
    for i = 0 to popped.Fbuf.n - 1 do
      Search_stats.admissibility_check sstats
        ~violated:(popped.Fbuf.a.(i) > optimum +. 1e-6)
    done
  in
  let heur = Heuristic.make cid prep in
  let queue = Pqueue.create () in
  (* A known complete solution bounds the search from above: states that
     cannot beat it are never enqueued, which keeps the frontier small.
     The greedy heuristic provides a good initial bound cheaply. *)
  let seed =
    Search_stats.time sstats "greedy-seed" (fun () -> Greedy.search ~pool p)
  in
  let upper_bound = ref seed.Greedy.best_cost in
  let incumbent = ref seed.Greedy.best in
  (* A caller-supplied warm start (e.g. the advisor service re-optimizing
     from the incumbent design after a rate drift) tightens the initial
     bound further when it beats the greedy seed.  Invalid configurations —
     features that are not candidates of [p] — are ignored rather than
     rejected, so callers may pass a mask optimized for a differently-scaled
     schema without re-validating it first.  The bound only ever tightens,
     so optimality and the Bounded certificate's lower bound are unaffected. *)
  (match warm_start with
  | Some config when Problem.valid_config p config ->
      let c = Problem.total p config in
      if c < !upper_bound then begin
        upper_bound := c;
        incumbent := config
      end
  | Some _ | None -> ());
  (* Successor handling is split in two: [eval_state] is a pure function of
     the state (the expensive cost-model work, safe to fan out over the
     pool), while [commit] performs every bound check, incumbent update,
     queue mutation and counter bump sequentially on the coordinator, in the
     same order the all-sequential code would.  [g] and [ĉ] do not read the
     incumbent bound, so evaluating successors concurrently and committing
     them in order is bit-identical to sequential search.  A frontier state
     is the incremental evaluation of its mask and its ĥ table, which
     successors are delta-costed from; a successor awaiting evaluation is
     its mask plus its parent ([None] only for the root). *)
  let eval_state (pos, (mask, parent)) =
    let ie, ht =
      match parent with
      | None -> (Config_id.eval cid mask, Heuristic.root heur)
      | Some st ->
          ( Config_id.eval_from cid st.ie mask,
            Heuristic.child heur ~parent:st.ht (Cost.ieval_mask st.ie) mask )
    in
    let g = Cost.ieval_total ie in
    let c_hat = g +. Heuristic.estimate heur ht mask ~pos in
    (pos, { ie; ht }, g, c_hat)
  in
  let config_of_state st = Config_id.config_of_mask cid (Cost.ieval_mask st.ie) in
  let commit (pos, st, g, c_hat) =
    Search_stats.evaluate sstats;
    if c_hat <= !upper_bound +. 1e-9 then begin
      if pos = n && g < !upper_bound then begin
        upper_bound := g;
        incumbent := config_of_state st
      end;
      Search_stats.generate sstats;
      (* Among equal bounds, prefer the deeper state: it completes sooner. *)
      Pqueue.push ~tie:(n - pos) queue c_hat (pos, st, g);
      Search_stats.observe_frontier sstats (Pqueue.length queue)
    end
    else Search_stats.prune sstats "incumbent-bound"
  in
  (* Successor generation shared by the sequential, prefix and shard phases;
     [inel] is charged when an index position is skipped as ineligible (the
     phases count it in different scoreboards). *)
  let successors ~inel pos st =
    let mask = Cost.ieval_mask st.ie in
    let without = (pos + 1, (mask, Some st)) in
    let with_f () = (pos + 1, (Config_id.add cid mask prep_bit.(pos), Some st)) in
    match prep.features.(pos) with
    | Problem.F_view _ | Problem.F_compress _ -> [| without; with_f () |]
    | Problem.F_index _ ->
        if Heuristic.eligible heur mask pos pos then
          [| without; with_f () |]
        else begin
          inel ();
          [| without |]
        end
  in
  (* Beam trim with hysteresis: only once the queue outgrows twice the beam,
     keep the [b] best entries and discard the rest.  [on_drop] receives the
     smallest dropped ĉ — a lower bound on everything discarded, which is
     what keeps the optimality-gap certificate sound. *)
  let trim_queue q ~on_drop =
    match beam with
    | Some b when Pqueue.length q > 2 * b ->
        let kept = Array.init b (fun _ -> Option.get (Pqueue.pop_min q)) in
        let count = Pqueue.length q in
        let lb =
          match Pqueue.peek_min q with Some (c, _) -> c | None -> infinity
        in
        Pqueue.clear q;
        Array.iter
          (fun (c, ((pos, _, _) as v)) -> Pqueue.push ~tie:(n - pos) q c v)
          kept;
        on_drop ~lb ~count
    | Some _ | None -> ()
  in
  let dropped_any = ref false in
  let dropped_lb = ref infinity in
  let certificate_of ~ub ~lb =
    if lb >= ub -. 1e-9 then Optimal
    else
      Bounded
        { lower_bound = lb; gap = (ub -. lb) /. Float.max 1e-9 (Float.abs ub) }
  in
  let mk_result () =
    {
      best = !incumbent;
      best_cost = !upper_bound;
      stats = stats ();
      search_stats = sstats;
    }
  in
  (* The popped-ĉ audit needs a proven optimum to compare against: run it
     only for [Optimal] finishes with no beam drops (a dropped state may
     have hidden a better completion, voiding [ĉ ≤ C*]). *)
  let finish_seq best best_cost cert =
    (match cert with
    | Optimal when not !dropped_any -> check_admissibility best_cost
    | Optimal | Bounded _ -> ());
    ({ best; best_cost; stats = stats (); search_stats = sstats }, cert)
  in
  let seq_drop ~lb ~count =
    dropped_any := true;
    if lb < !dropped_lb then dropped_lb := lb;
    Search_stats.prune ~count sstats "beam-width"
  in
  let rec seq_loop () =
    match Pqueue.pop_min queue with
    | None ->
        (* The frontier emptied without a complete state being popped: every
           remaining completion was pruned by the incumbent bound (or, under
           a beam, dropped — the certificate accounts for those). *)
        finish_seq !incumbent !upper_bound
          (certificate_of ~ub:!upper_bound ~lb:!dropped_lb)
    | Some (c_hat, (pos, st, g)) ->
        Fbuf.push popped c_hat;
        if pos = n then
          finish_seq (config_of_state st) g
            (certificate_of ~ub:g ~lb:!dropped_lb)
        else begin
          Search_stats.expand sstats;
          if Search_stats.expanded sstats > max_expanded then begin
            Search_stats.prune ~count:(Pqueue.length queue) sstats
              "expansion-budget";
            let r = mk_result () in
            on_budget r;
            let lb =
              Float.min c_hat
                (Float.min !dropped_lb
                   (match Pqueue.peek_min queue with
                   | Some (c, _) -> c
                   | None -> infinity))
            in
            (r, certificate_of ~ub:!upper_bound ~lb)
          end
          else begin
            let succs =
              successors
                ~inel:(fun () -> Search_stats.prune sstats "ineligible-index")
                pos st
            in
            Array.iter (fun sc -> commit (eval_state sc)) succs;
            trim_queue queue ~on_drop:seq_drop;
            seq_loop ()
          end
        end
  in
  (* -------------------- coarse-grained sharded search -----------------

     Phase 1 (sequential prefix): BFS over the first [p] feature decisions
     partitions the reachable frontier by configuration-mask prefix.  Each
     level's successor evaluations fan out over the pool as one pure batch;
     commits happen on the coordinator in batch order.

     Phase 2 (rounds): every surviving prefix state seeds one shard — a
     private A* sub-frontier.  Each exchange round submits one pool batch
     with one chunk per live shard; a chunk expands up to [shard_quantum]
     states against the round-start bound (improved locally when the shard
     itself completes), then the coordinator merges counters and incumbents
     in shard order and redistributes the tightened bound.  Because chunk
     boundaries, per-shard work and merge order are all independent of the
     pool width, results and every counter are bit-identical at any [jobs]
     (and match [jobs = 1] exactly). *)
  let shard_loop () =
    let budget_hit = ref false in
    let depth = min shard_prefix_depth (n - 1) in
    let root = eval_state (0, (Config_id.empty cid, None)) in
    Search_stats.evaluate sstats;
    let level =
      ref
        (let _, _, _, c0 = root in
         if c0 <= !upper_bound +. 1e-9 then begin
           Search_stats.generate sstats;
           [ root ]
         end
         else begin
           Search_stats.prune sstats "incumbent-bound";
           []
         end)
    in
    let d = ref 0 in
    while (not !budget_hit) && !d < depth do
      if Search_stats.expanded sstats > max_expanded then budget_hit := true
      else begin
        let batch = ref [] in
        List.iter
          (fun (pos, st, _, _) ->
            Search_stats.expand sstats;
            let succs =
              successors
                ~inel:(fun () -> Search_stats.prune sstats "ineligible-index")
                pos st
            in
            Array.iter (fun sc -> batch := sc :: !batch) succs)
          !level;
        let batch = Array.of_list (List.rev !batch) in
        let evaled =
          if Parallel.jobs pool > 1 && Array.length batch > 1 then
            Parallel.map_array ~chunk:1 pool eval_state batch
          else Array.map eval_state batch
        in
        let next = ref [] in
        Array.iter
          (fun ((_, _, _, c) as t) ->
            Search_stats.evaluate sstats;
            if c <= !upper_bound +. 1e-9 then begin
              Search_stats.generate sstats;
              next := t :: !next
            end
            else Search_stats.prune sstats "incumbent-bound")
          evaled;
        level := List.rev !next;
        Search_stats.observe_frontier sstats (List.length !level);
        incr d
      end
    done;
    if !budget_hit then begin
      Search_stats.prune ~count:(List.length !level) sstats "expansion-budget";
      let r = mk_result () in
      on_budget r;
      let lb =
        List.fold_left (fun a (_, _, _, c) -> Float.min a c) !dropped_lb !level
      in
      (r, certificate_of ~ub:!upper_bound ~lb)
    end
    else begin
      let shards =
        Array.of_list
          (List.map
             (fun (pos, st, g, c) ->
               let s =
                 {
                   sq = Pqueue.create ();
                   s_popped = Fbuf.create ();
                   s_bound = !upper_bound;
                   s_best = None;
                   s_done = false;
                   s_dropped_lb = infinity;
                   s_complete = infinity;
                   d_exp = 0;
                   d_gen = 0;
                   d_eval = 0;
                   d_inc = 0;
                   d_inel = 0;
                   d_stale = 0;
                   d_beam = 0;
                 }
               in
               Pqueue.push ~tie:(n - pos) s.sq c (pos, st, g);
               s)
             !level)
      in
      let run_shard s =
        let left = ref shard_quantum in
        let continue_ = ref true in
        while !continue_ && !left > 0 do
          match Pqueue.pop_min s.sq with
          | None ->
              s.s_done <- true;
              continue_ := false
          | Some (c_hat, (pos, st, g)) ->
              if c_hat > s.s_bound +. 1e-9 then begin
                (* Everything left in this queue is ≥ [c_hat]; the bound the
                   round started with already beats it all. *)
                s.d_stale <- s.d_stale + 1 + Pqueue.length s.sq;
                Pqueue.clear s.sq;
                s.s_done <- true;
                continue_ := false
              end
              else begin
                Fbuf.push s.s_popped c_hat;
                if pos = n then begin
                  (* Shard-local optimum popped: everything still queued has
                     ĉ ≥ g and completions ≥ ĉ, so this shard is finished. *)
                  s.s_complete <- Float.min s.s_complete g;
                  if g < s.s_bound then begin
                    s.s_bound <- g;
                    s.s_best <- Some (g, st)
                  end;
                  s.s_done <- true;
                  continue_ := false
                end
                else begin
                  s.d_exp <- s.d_exp + 1;
                  decr left;
                  let succs =
                    successors
                      ~inel:(fun () -> s.d_inel <- s.d_inel + 1)
                      pos st
                  in
                  Array.iter
                    (fun sc ->
                      let pos', st', g', c' = eval_state sc in
                      s.d_eval <- s.d_eval + 1;
                      if c' <= s.s_bound +. 1e-9 then begin
                        if pos' = n && g' < s.s_bound then begin
                          s.s_bound <- g';
                          s.s_best <- Some (g', st')
                        end;
                        s.d_gen <- s.d_gen + 1;
                        Pqueue.push ~tie:(n - pos') s.sq c' (pos', st', g')
                      end
                      else s.d_inc <- s.d_inc + 1)
                    succs;
                  trim_queue s.sq ~on_drop:(fun ~lb ~count ->
                      s.s_dropped_lb <- Float.min s.s_dropped_lb lb;
                      s.d_beam <- s.d_beam + count)
                end
              end
        done
      in
      let live s = (not s.s_done) && not (Pqueue.is_empty s.sq) in
      let frontier_size () =
        Array.fold_left
          (fun a s -> a + if live s then Pqueue.length s.sq else 0)
          0 shards
      in
      let finished = ref false in
      while (not !finished) && not !budget_hit do
        let act = Array.of_list (List.filter live (Array.to_list shards)) in
        if Array.length act = 0 then finished := true
        else if Search_stats.expanded sstats > max_expanded then
          budget_hit := true
        else begin
          let bound = !upper_bound in
          Array.iter (fun s -> s.s_bound <- bound) act;
          Parallel.run pool ~chunks:(Array.length act) (fun i ->
              run_shard act.(i));
          Search_stats.record_round sstats (Array.map (fun s -> s.d_eval) act);
          let sum f = Array.fold_left (fun a s -> a + f s) 0 act in
          Search_stats.add_expanded sstats (sum (fun s -> s.d_exp));
          Search_stats.add_generated sstats (sum (fun s -> s.d_gen));
          Search_stats.add_evaluated sstats (sum (fun s -> s.d_eval));
          let charge rule f =
            match sum f with
            | 0 -> ()
            | c -> Search_stats.prune ~count:c sstats rule
          in
          charge "incumbent-bound" (fun s -> s.d_inc);
          charge "ineligible-index" (fun s -> s.d_inel);
          charge "stale-bound" (fun s -> s.d_stale);
          charge "beam-width" (fun s -> s.d_beam);
          Array.iter
            (fun s ->
              s.d_exp <- 0;
              s.d_gen <- 0;
              s.d_eval <- 0;
              s.d_inc <- 0;
              s.d_inel <- 0;
              s.d_stale <- 0;
              s.d_beam <- 0)
            act;
          (* Incumbent exchange, in shard order — deterministic at any pool
             width ([s_best] keeps strictly improving, so re-merging is
             idempotent). *)
          Array.iter
            (fun s ->
              match s.s_best with
              | Some (g, st) when g < !upper_bound ->
                  upper_bound := g;
                  incumbent := config_of_state st
              | Some _ | None -> ())
            act;
          Search_stats.observe_frontier sstats (frontier_size ())
        end
      done;
      let min_dropped =
        Array.fold_left
          (fun a s -> Float.min a s.s_dropped_lb)
          !dropped_lb shards
      in
      if !budget_hit then begin
        Search_stats.prune ~count:(frontier_size ()) sstats "expansion-budget";
        let r = mk_result () in
        on_budget r;
        let lb =
          Array.fold_left
            (fun a s ->
              if live s then
                match Pqueue.peek_min s.sq with
                | Some (c, _) -> Float.min a c
                | None -> a
              else a)
            min_dropped shards
        in
        (r, certificate_of ~ub:!upper_bound ~lb)
      end
      else begin
        (* Per-shard audit: while a shard's eventual completion is still
           reachable, one of its ancestors sits in that shard's queue with
           ĉ ≤ its completion cost, so every recorded pop is bounded by the
           shard's own [s_complete] — even across stale-bound rounds.
           Shards that never popped a completion (emptied by pruning)
           contribute nothing; beam drops void the ancestor argument, so
           the audit only runs without a beam. *)
        (match beam with
        | None ->
            Array.iter
              (fun s ->
                if s.s_complete < infinity then
                  for i = 0 to s.s_popped.Fbuf.n - 1 do
                    Search_stats.admissibility_check sstats
                      ~violated:(s.s_popped.Fbuf.a.(i) > s.s_complete +. 1e-6)
                  done)
              shards
        | Some _ -> ());
        (mk_result (), certificate_of ~ub:!upper_bound ~lb:min_dropped)
      end
    end
  in
  let use_shard =
    (match shard with Some b -> b | None -> n >= shard_threshold) && n >= 2
  in
  (* Record the pool shape even when the search exits through the expansion
     budget (Budget_exceeded unwinds through here). *)
  Fun.protect
    ~finally:(fun () ->
      if Parallel.jobs pool > 1 then
        Search_stats.set_parallel sstats ~jobs:(Parallel.jobs pool)
          ~work:
            (Parallel.diff_counts ~before:work_before
               ~after:(Parallel.work_counts pool)))
    (fun () ->
      Search_stats.time sstats "search" (fun () ->
          if use_shard then shard_loop ()
          else begin
            commit (eval_state (0, (Config_id.empty cid, None)));
            seq_loop ()
          end))

let search ?(max_expanded = 5_000_000) ?jobs ?shard ?warm_start p =
  Parallel.using ?jobs (fun pool ->
      fst
        (search_internal ?warm_start ~max_expanded ~beam:None ~shard
           ~on_budget:(fun r -> raise (Budget_exceeded r.stats))
           ~pool p))

let search_budgeted ?(max_expanded = 5_000_000) ?beam ?jobs ?shard ?warm_start
    p =
  (match beam with
  | Some b when b < 1 -> invalid_arg "Astar.search_budgeted: beam must be >= 1"
  | Some _ | None -> ());
  Parallel.using ?jobs (fun pool ->
      search_internal ?warm_start ~max_expanded ~beam ~shard
        ~on_budget:(fun _ -> ()) ~pool p)

let search_anytime ?max_expanded ?jobs p =
  let r, cert = search_budgeted ?max_expanded ?jobs p in
  (r, cert = Optimal)

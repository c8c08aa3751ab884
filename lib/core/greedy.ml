module Parallel = Vis_util.Parallel
module Config = Vis_costmodel.Config

type step = { s_feature : Problem.feature; s_cost_after : float }

type result = {
  best : Config.t;
  best_cost : float;
  steps : step list;
  evaluations : int;
  search_stats : Search_stats.t;
}

let search_with_pool ~pool ?space_budget p =
  let sstats = Search_stats.create ~algorithm:"greedy" () in
  let evaluations = ref 0 in
  (* States are feature masks; successors are costed incrementally from the
     current state's per-element evaluation.  Candidate bits ascend in
     [Problem.features] order, so ties go to the earlier feature. *)
  let cid = Config_id.of_problem p in
  let rec loop mask ieval current steps =
    Search_stats.expand sstats;
    let n = Config_id.n_features cid in
    let candidates = ref [] in
    for b = n - 1 downto 0 do
      if
        (not (Config_id.has_feature cid mask b))
        && Config_id.applicable cid mask b
      then candidates := b :: !candidates
    done;
    let candidates = !candidates in
    Search_stats.observe_frontier sstats (List.length candidates);
    let arr = Array.of_list candidates in
    (* Cost the candidate in a worker; the budget check and the evaluation
       are pure, so the entries are identical at any [jobs] setting. *)
    let score b =
      let mask' = Config_id.add cid mask b in
      match space_budget with
      | Some budget
        when Config.space p.Problem.derived (Config_id.config_of_mask cid mask')
             > budget ->
          None
      | Some _ | None ->
          let ie = Config_id.eval_from cid ieval mask' in
          Some (mask', ie, Vis_costmodel.Cost.ieval_total ie)
    in
    let entries =
      if Parallel.jobs pool > 1 && Array.length arr > 1 then
        Parallel.map_array pool score arr
      else Array.map score arr
    in
    (* Sequential replay over the precomputed entries. *)
    let best = ref None in
    Array.iteri
      (fun i b ->
        match entries.(i) with
        | None -> Search_stats.prune sstats "space-budget"
        | Some (mask', ie, c) ->
            Search_stats.generate sstats;
            incr evaluations;
            Search_stats.evaluate sstats;
            (match !best with
            | Some (_, _, _, best_c) when best_c <= c -> ()
            | _ when c < current -> best := Some (b, mask', ie, c)
            | _ -> ()))
      arr;
    match !best with
    | None ->
        {
          best = Config_id.config_of_mask cid mask;
          best_cost = current;
          steps = List.rev steps;
          evaluations = !evaluations;
          search_stats = sstats;
        }
    | Some (b, mask', ie, c) ->
        loop mask' ie c
          ({ s_feature = Config_id.feature cid b; s_cost_after = c } :: steps)
  in
  let before = Parallel.work_counts pool in
  Fun.protect
    ~finally:(fun () ->
      if Parallel.jobs pool > 1 then
        Search_stats.set_parallel sstats ~jobs:(Parallel.jobs pool)
          ~work:
            (Parallel.diff_counts ~before ~after:(Parallel.work_counts pool)))
    (fun () ->
      Search_stats.time sstats "search" (fun () ->
          Search_stats.generate sstats;
          (* the empty start configuration *)
          let ie0 = Config_id.eval cid (Config_id.empty cid) in
          incr evaluations;
          Search_stats.evaluate sstats;
          loop (Config_id.empty cid) ie0 (Vis_costmodel.Cost.ieval_total ie0) []))

let search ?jobs ?pool ?space_budget p =
  Parallel.using ?jobs ?pool (fun pool -> search_with_pool ~pool ?space_budget p)

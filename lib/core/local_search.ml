module Config = Vis_costmodel.Config

type result = {
  best : Config.t;
  best_cost : float;
  moves : int;
  evaluations : int;
  search_stats : Search_stats.t;
}

let search ?seed ?space_budget ?(max_moves = 1000) p =
  let sstats = Search_stats.create ~algorithm:"local-search" () in
  let evaluations = ref 0 in
  let start =
    match seed with
    | Some c -> c
    | None ->
        Search_stats.time sstats "greedy-seed" (fun () ->
            (Greedy.search ?space_budget p).Greedy.best)
  in
  let cid = Config_id.of_problem p in
  let m0 =
    match Config_id.mask_of_config cid start with
    | Some m -> m
    | None ->
        invalid_arg "Local_search.search: seed uses a feature outside the problem"
  in
  let within mask =
    match space_budget with
    | None -> true
    | Some b -> Config.space p.Problem.derived (Config_id.config_of_mask cid mask) <= b
  in
  (* Hill-climb over masks: closure masks for drops, incremental costing
     for every considered neighbour.  Candidates ascend in
     [Problem.features] order; adds are tried before drops before swaps,
     and ties keep the earlier neighbour. *)
  let rec climb mask ieval current moves =
    if moves >= max_moves then begin
      Search_stats.prune sstats "move-budget";
      (mask, current, moves)
    end
    else begin
      Search_stats.expand sstats;
      let n = Config_id.n_features cid in
      let cands_in = ref [] and cands_out = ref [] in
      for b = n - 1 downto 0 do
        if Config_id.has_feature cid mask b then cands_in := b :: !cands_in
        else if Config_id.applicable cid mask b then
          cands_out := b :: !cands_out
      done;
      let candidates_in = !cands_in and candidates_out = !cands_out in
      Search_stats.observe_frontier sstats
        (List.length candidates_in + List.length candidates_out);
      let consider best mask' =
        if not (within mask') then begin
          Search_stats.prune sstats "space-budget";
          best
        end
        else begin
          Search_stats.generate sstats;
          let ie = Config_id.eval_from cid ieval mask' in
          incr evaluations;
          Search_stats.evaluate sstats;
          let c = Vis_costmodel.Cost.ieval_total ie in
          match best with
          | Some (_, _, bc) when bc <= c -> best
          | _ when c < current -> Some (mask', ie, c)
          | _ -> best
        end
      in
      let best =
        List.fold_left
          (fun acc b -> consider acc (Config_id.add cid mask b))
          None candidates_out
      in
      let best =
        List.fold_left
          (fun acc b -> consider acc (Config_id.drop cid mask b))
          best candidates_in
      in
      let best =
        List.fold_left
          (fun acc b_out ->
            List.fold_left
              (fun acc b_in ->
                let mask' = Config_id.drop cid mask b_in in
                (* The added feature must still be applicable after the drop
                   (e.g. not an index on the dropped view). *)
                if Config_id.applicable cid mask' b_out then
                  consider acc (Config_id.add cid mask' b_out)
                else acc)
              acc candidates_in)
          best candidates_out
      in
      match best with
      | None -> (mask, current, moves)
      | Some (mask', ie, c) -> climb mask' ie c (moves + 1)
    end
  in
  Search_stats.generate sstats;
  (* the seed configuration *)
  let ie0 = Config_id.eval cid m0 in
  incr evaluations;
  Search_stats.evaluate sstats;
  let bmask, best_cost, moves =
    Search_stats.time sstats "climb" (fun () ->
        climb m0 ie0 (Vis_costmodel.Cost.ieval_total ie0) 0)
  in
  {
    best = Config_id.config_of_mask cid bmask;
    best_cost;
    moves;
    evaluations = !evaluations;
    search_stats = sstats;
  }

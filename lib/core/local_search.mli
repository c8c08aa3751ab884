(** A hill-climbing heuristic with add / drop / swap moves — one of the
    "heuristics for pruning the exhaustive search space" the paper's
    conclusion proposes to develop, included as a baseline between pure
    greedy and optimal A*.

    Starting from a seed configuration (the greedy solution by default),
    repeatedly apply the best cost-improving move among:
    - adding one applicable feature,
    - dropping one materialized feature (dropping a view also drops its
      indexes),
    - swapping one materialized feature for one absent feature.
    Stops at a local optimum or after [max_moves]. *)

type result = {
  best : Vis_costmodel.Config.t;
  best_cost : float;
  moves : int;  (** improving moves applied *)
  evaluations : int;  (** configurations costed *)
  search_stats : Search_stats.t;
      (** climb rounds (expanded), neighbours costed (generated), budget
          pruning counts and timing *)
}

(** [search ?seed ?space_budget ?max_moves p] climbs from [seed] (default:
    the greedy solution, under the same [space_budget]).  Raises
    [Invalid_argument] when [seed] uses a feature outside [p]'s candidate
    universe. *)
val search :
  ?seed:Vis_costmodel.Config.t ->
  ?space_budget:float ->
  ?max_moves:int ->
  Problem.t ->
  result

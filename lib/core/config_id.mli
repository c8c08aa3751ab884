(** Packed configuration identities for one problem.

    Every problem's candidate features are numbered into bits, and each
    configuration is one fixed-width {!Vis_util.Wmask.t}: bit [b] set iff
    feature [b] of the problem's universe is chosen.  The mask type is the
    same at every universe size (62 features per word).  Subset, dominance
    and frontier-dedup tests are word-wise bit operations, and successor
    costing goes through the incremental delta-evaluator
    ({!Vis_costmodel.Cost.eval_delta}) instead of re-deriving the whole
    plan.  Totals are bitwise equal to {!Vis_costmodel.Cost.total_of} of
    the decoded configuration. *)

type t

type mask = Vis_util.Wmask.t

val of_problem : Problem.t -> t

val problem : t -> Problem.t

val encoding : t -> Vis_costmodel.Cost.encoding

val n_features : t -> int

(** The feature behind bit [b] (order = [Problem.features]). *)
val feature : t -> int -> Problem.feature

val bit_of_feature : t -> Problem.feature -> int option

(** The empty configuration. *)
val empty : t -> mask

(** [None] when the configuration uses a feature outside the universe. *)
val mask_of_config : t -> Vis_costmodel.Config.t -> mask option

(** Decode to the canonical symbolic configuration. *)
val config_of_mask : t -> mask -> Vis_costmodel.Config.t

(** [subset a b] — is configuration [a] contained in [b]? *)
val subset : mask -> mask -> bool

val has_feature : t -> mask -> int -> bool

val has_view : t -> mask -> Vis_util.Bitset.t -> bool

(** [applicable t mask b]: can feature [b] be added to [mask]?  (An index
    on a candidate view requires the view to be materialized.) *)
val applicable : t -> mask -> int -> bool

val add : t -> mask -> int -> mask

(** [drop t mask b] removes feature [b] {e and its closure}: dropping a
    view also drops the indexes built on it. *)
val drop : t -> mask -> int -> mask

(** The bits removed by [drop _ _ b]: [b] plus, for a view, its indexes. *)
val closure : t -> int -> mask

(** The bits required for [b] to be applicable (empty, or one view bit). *)
val requires : t -> int -> mask

(** A cost evaluator over the packed configuration, on the problem's
    {!Problem.eval_cache}. *)
val evaluator : t -> mask -> Vis_costmodel.Cost.t

(** Cost a configuration from scratch. *)
val eval : t -> mask -> Vis_costmodel.Cost.ieval

(** Cost a configuration incrementally from a neighbour's evaluation. *)
val eval_from :
  t -> Vis_costmodel.Cost.ieval -> mask -> Vis_costmodel.Cost.ieval

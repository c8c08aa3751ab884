(** The A* search's admissible estimate [ĥ] of what the undecided features
    can still change (see {!Astar} for the bound itself), and the per-state
    tables that let each successor re-derive only what its flipped features
    can change.

    {!prepare} does the per-problem work: dominance pruning, each feature's
    lower-bound cost and benefit, and each expression's
    full-configuration floor.  {!make} compiles it against the problem's
    feature numbering.  Each search state then carries a {!table} of [ĥ]'s
    cost-model inputs:
    - per (target, delta relation): the insertion evaluation cost and the
      deletion and update eval+apply costs;
    - per base relation: the deletion and update costs.

    A successor that flips no bit shares its parent's table; one that flips
    bits copies only the chunks whose inputs depend on them (a target's
    relevance mask for insertions, its locate mask for deletions and
    updates, {!Vis_costmodel.Cost.relevance_mask}).  Entries are derived on
    first read, so an estimate looks up in the cost memo only what changed.
    The estimate is bitwise equal to deriving every input afresh. *)

(** Per-problem precomputation.  [features] are the features kept by the
    dominance fixpoint, in search order; [targets] are the insertion
    targets, the primary view first, then the kept candidate views. *)
type prep = {
  features : Problem.feature array;
  view_pos : (int, int) Hashtbl.t;  (** candidate view -> feature position *)
  lb_cost : float array;  (** lower bound on each feature's own maintenance *)
  key_benefit : float array;
      (** configuration-independent saving of a key index or compression *)
  affected : (int * int) list array;
      (** per feature: the (target, delta relation) insertion expressions
          it can make cheaper *)
  targets : Vis_costmodel.Element.t array;
  target_view_pos : int array;
      (** feature position of the target's view; -1 for the primary *)
  full_ins : float array array;  (** insertion eval floor per [target][rel] *)
  full_del : float array array;  (** deletion eval+apply floor *)
  full_upd : float array array;  (** update eval+apply floor *)
  full_base_del : float array;  (** per base relation *)
  full_base_upd : float array;
  dropped : Problem.feature list;  (** dominance-pruned features *)
}

(** [prepare ~pool p] fans the per-feature work out over [pool]; the result
    is the same at every pool width. *)
val prepare : pool:Vis_util.Parallel.pool -> Problem.t -> prep

(** [ins_eval_of eval elem r]: the evaluation cost of propagating
    insertions of [r] onto [elem]. *)
val ins_eval_of : Vis_costmodel.Cost.t -> Vis_costmodel.Element.t -> int -> float

(** [delupd_of eval elem r]: the eval+apply costs of propagating deletions
    and updates of [r] onto [elem]. *)
val delupd_of :
  Vis_costmodel.Cost.t -> Vis_costmodel.Element.t -> int -> float * float

(** [prep] compiled against a problem's feature numbering. *)
type t

val make : Config_id.t -> prep -> t

(** [eligible h mask pos k]: can feature [k] (a prep position) still be
    chosen in a state at [pos]?  An index on a candidate view needs the
    view materialized or not yet decided. *)
val eligible : t -> Config_id.mask -> int -> int -> bool

(** A state's [ĥ] inputs, filled as they are read. *)
type table

(** The root state's table: nothing derived yet. *)
val root : t -> table

(** [child h ~parent parent_mask mask] is the table of a successor with
    mask [mask] of a state with mask [parent_mask] and table [parent]:
    [parent] itself when no bit changed.  The successor must sit one
    position deeper than its parent, as A* successors do, and the parent's
    estimate must have been taken. *)
val child : t -> parent:table -> Config_id.mask -> Config_id.mask -> table

(** [estimate h table mask ~pos] is [ĥ] of the state ([mask], [pos]),
    deriving the entries of [table] it reads that are not yet derived. *)
val estimate : t -> table -> Config_id.mask -> pos:int -> float

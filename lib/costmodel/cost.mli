(** The Appendix-A maintenance cost model.

    Costs are estimated page I/Os for one refresh batch.  The evaluator binds
    a schema's derived statistics to a physical configuration; the total cost
    [C(M')] of the paper is {!total}: the sum of maintaining every base
    relation, the primary view, every supporting view, and every index.

    Maintenance of a view [V] for deltas of a base relation [R ∈ R(V)]
    follows Table 4:
    - insertions: [Eval(ΔR ⋈ …)] over the best update path (answering the
      maintenance expression from base relations, materialized subviews, and
      saved deltas of materialized subviews — the paper's limited
      multiple-query optimization) + appending the result + saving it for
      reuse (supporting views only) + updating [V]'s indexes;
    - deletions: locating the affected tuples by a key-attribute index
      semijoin or by scanning [V], + deleting them + updating indexes;
    - protected updates: like deletions but without index maintenance.

    The plan space of [Eval] is searched exhaustively by dynamic programming
    over covered relation subsets with left-deep joins, costing nested-block
    and index joins per Table 5.  Evaluations are memoized in a {!cache}
    keyed by the configuration restricted to the features that can influence
    the expression (see {!Config.restrict}), so search algorithms evaluating
    many configurations share work. *)

type cache

(** [new_cache ?capacity ()] is a fresh shared store.  With [capacity] the
    cache is bounded: when full, the oldest entry is evicted (FIFO) and
    counted; without it the cache grows with the distinct evaluations.  The
    search algorithms share one unbounded cache per problem by default.

    The cache is safe for concurrent use from multiple domains (it is
    lock-striped; see {!Vis_util.Parallel}).  Counters are updated under the
    stripe locks, so [cs_hits + cs_misses] equals the number of lookups
    exactly even under contention.  A bounded cache distributes [capacity]
    over the stripes, so the total entry count never exceeds [capacity]. *)
val new_cache : ?capacity:int -> unit -> cache

(** Number of distinct (target, delta, restricted-configuration) evaluations
    stored — a measure of optimizer work. *)
val cache_size : cache -> int

(** Observability counters of a shared cache.  [cs_misses] is the number of
    cost derivations actually performed; [cs_hits] the number a fresh cache
    would have re-derived — so the cache cut cost-model work by the factor
    [(cs_hits + cs_misses) / cs_misses]. *)
type cache_stats = {
  cs_hits : int;
  cs_misses : int;
  cs_evictions : int;
  cs_entries : int;  (** entries currently stored *)
  cs_max_chain : int;
      (** longest hash-bucket chain of any stripe — how evenly the memo keys
          hash; a lookup walks at most this many entries *)
}

val cache_stats : cache -> cache_stats

(** Fraction of lookups served from the store, in [0, 1]; 0 when no lookup
    happened yet. *)
val hit_rate : cache_stats -> float

(** Zero the hit/miss/eviction counters without dropping entries — for
    measuring one search phase in isolation. *)
val reset_cache_stats : cache -> unit

val cache_stats_json : cache -> Vis_util.Json.t

type t

(** [create ?cache derived config] binds the evaluator.  Without [cache] a
    private one is created. *)
val create : ?cache:cache -> Vis_catalog.Derived.t -> Config.t -> t

val config : t -> Config.t

val derived : t -> Vis_catalog.Derived.t

(** {1 Page-level compression}

    A compressed element ({!Config.compress}) stores its tuples in
    [compress_page_ratio] of the pages.  The model charges this as linear
    per-page factors at every site touching the element's data pages:
    reads cost [compress_read_factor] (fewer I/Os plus decode CPU, net
    win) and writes cost [compress_write_factor] (encode CPU outweighs
    the I/O saving) per uncompressed-equivalent page.  Index pages,
    shipped deltas, and saved deltas are never compressed.  With no
    compressed elements all factors are [1.0] and every formula is
    bitwise identical to the uncompressed model. *)

val compress_page_ratio : float

val compress_read_factor : float

val compress_write_factor : float

(** {1 Plans} *)

type join_method =
  | Nbj  (** nested-block join with the (small) delta as the outer *)
  | Index_join of Element.index
      (** probe [ix] on the inner element per outer tuple *)

type ins_start =
  | From_delta  (** start from the shipped delta [ΔR] *)
  | From_saved of Vis_util.Bitset.t
      (** reuse the saved insertion delta [ΔV'^save_R] of materialized
          subview [V'] *)

type ins_plan = {
  ip_start : ins_start;
  ip_steps : (Element.t * join_method) list;  (** in join order *)
}

type locate_method =
  | Loc_scan  (** scan the view, semijoin in memory *)
  | Loc_key_index of Element.index  (** probe the key index per delta tuple *)

(** Cost breakdown of propagating one delta type of one relation onto one
    element (Table 4's [Prop_*]). *)
type prop = {
  p_eval : float;  (** computing the delta result *)
  p_apply : float;  (** applying it to the stored element *)
  p_save : float;  (** saving [ΔV^save] for reuse (insertions only) *)
  p_index : float;  (** maintaining the element's indexes *)
  p_result_tuples : float;  (** size of the delta result *)
}

val prop_total : prop -> float

(** {1 Costs} *)

(** [prop_ins t ~target ~rel] is the cost of propagating insertions of
    [rel] onto [target], with the winning update path.  Zero-cost with an
    empty plan when the relation has no insertions. *)
val prop_ins : t -> target:Element.t -> rel:int -> prop * ins_plan

(** [prop_del t ~target ~rel] — deletions, with the winning locate method. *)
val prop_del : t -> target:Element.t -> rel:int -> prop * locate_method

(** [prop_upd t ~target ~rel] — protected updates. *)
val prop_upd : t -> target:Element.t -> rel:int -> prop * locate_method

(** [element_cost t elem] sums [Prop_ins + Prop_del + Prop_upd] over the base
    relations of [elem] (Table 4's [Cost_v(V)]). *)
val element_cost : t -> Element.t -> float

(** [index_maint_cost t ix] is the index's own share of the maintenance cost:
    the [Apply_ix] terms it contributes for insertions and deletions
    propagated to its element. *)
val index_maint_cost : t -> Element.index -> float

(** [maintained_elements t] is every element whose maintenance [total]
    charges: all base relations, all supporting views of the configuration,
    and the primary view. *)
val maintained_elements : t -> Element.t list

(** [total t] is [C(M')]: the total maintenance cost of the warehouse under
    the evaluator's configuration. *)
val total : t -> float

(** [total_of ?cache derived config] is a convenience for
    [total (create ?cache derived config)]. *)
val total_of : ?cache:cache -> Vis_catalog.Derived.t -> Config.t -> float

(** {1 Feature encoding and incremental evaluation}

    A problem's candidate features (supporting views and indexes) are
    numbered once into bits [0 .. n-1], whatever [n] is; a configuration
    drawn from that universe is then one fixed-width {!Vis_util.Wmask.t}
    (62 features per word), subset and dominance tests are word-wise bit
    operations, and the memo-cache key of an element under a mask is the
    mask intersected with the element's precomputed {e relevance mask}.
    [Vis_core.Config_id] (which depends on this library) wraps this per
    problem; the raw machinery lives here so the evaluator and the catalog
    can share the numbering. *)

type encoding

(** [make_encoding derived features] numbers [features] — bit [i] is
    [features.(i)] — and precomputes per-element relevance masks and the
    incremental-evaluation slot table.  The encoding is immutable (counters
    aside) and safely shared across domains. *)
val make_encoding : Vis_catalog.Derived.t -> Config.feature array -> encoding

val encoding_features : encoding -> Config.feature array

(** The empty configuration's mask, at the encoding's width. *)
val empty_mask : encoding -> Vis_util.Wmask.t

(** The bit of a feature, or [None] if it is outside the universe. *)
val feature_bit : encoding -> Config.feature -> int option

(** The bit of the feature [F_view w]. *)
val view_feature_bit : encoding -> Vis_util.Bitset.t -> int option

(** [relevance_mask enc elem]: the features an insertion or element cost of
    [elem] can depend on — every feature whose relations lie inside
    [elem]'s.  Memo keys of those costs restrict the mask to it. *)
val relevance_mask : encoding -> Element.t -> Vis_util.Wmask.t

(** [locate_mask enc elem]: the features a deletion or update cost of
    [elem] can depend on — [elem]'s own indexes and its compression.  Memo
    keys of {!prop_del} and {!prop_upd} restrict the mask to it, so they
    are shared by every configuration that agrees on those bits. *)
val locate_mask : encoding -> Element.t -> Vis_util.Wmask.t

(** [mask_of_config enc c] packs a symbolic configuration, or [None] when any
    of its features is outside the universe. *)
val mask_of_config : encoding -> Config.t -> Vis_util.Wmask.t option

(** [config_of_mask enc m] decodes a mask back to the canonical symbolic
    configuration ([mask_of_config] is its left inverse). *)
val config_of_mask : encoding -> Vis_util.Wmask.t -> Config.t

(** [create_masked ?cache derived enc mask] is an evaluator over a packed
    configuration: behaviourally identical to
    [create ?cache derived (config_of_mask enc mask)] — same cached values,
    same cache-hit equivalence classes — but its memo keys are restricted
    masks and the symbolic configuration is decoded lazily. *)
val create_masked :
  ?cache:cache -> Vis_catalog.Derived.t -> encoding -> Vis_util.Wmask.t -> t

(** The per-element costs of one masked configuration, reusable to cost
    neighbouring masks incrementally. *)
type ieval

(** The configuration's total maintenance cost, bit-identical to {!total} of
    the equivalent symbolic evaluator. *)
val ieval_total : ieval -> float

val ieval_mask : ieval -> Vis_util.Wmask.t

(** [eval_mask ?cache derived enc mask] costs a configuration from scratch
    (every maintained element). *)
val eval_mask :
  ?cache:cache -> Vis_catalog.Derived.t -> encoding -> Vis_util.Wmask.t -> ieval

(** [eval_delta ?cache derived parent mask] costs [mask] by reusing
    [parent]'s per-element costs: only elements whose relevance mask meets
    the changed bits are re-derived; with no changed bits [parent] itself is
    returned.  The result is bitwise equal to [eval_mask] of the same
    mask. *)
val eval_delta :
  ?cache:cache -> Vis_catalog.Derived.t -> ieval -> Vis_util.Wmask.t -> ieval

(** Exact counters of the incremental evaluator's work, accumulated in the
    encoding (atomically, so they are exact at any [--jobs]). *)
type incr_stats = {
  is_full : int;  (** configurations costed from scratch *)
  is_delta : int;  (** configurations costed from a neighbour *)
  is_reused : int;  (** zero-change evaluations answered by the parent *)
  is_elems_computed : int;  (** per-element costs (re)derived *)
  is_elems_copied : int;  (** per-element costs copied from the parent *)
}

val incr_stats : encoding -> incr_stats

val reset_incr_stats : encoding -> unit

val incr_stats_json : encoding -> Vis_util.Json.t

(** {1 Rendering} *)

val pp_ins_plan :
  Vis_catalog.Schema.t -> target:Element.t -> rel:int -> Format.formatter -> ins_plan -> unit

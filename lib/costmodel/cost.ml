module Bitset = Vis_util.Bitset
module Wmask = Vis_util.Wmask
module Num = Vis_util.Num
module Schema = Vis_catalog.Schema
module Derived = Vis_catalog.Derived

type join_method = Nbj | Index_join of Element.index

type ins_start = From_delta | From_saved of Bitset.t

type ins_plan = { ip_start : ins_start; ip_steps : (Element.t * join_method) list }

type locate_method = Loc_scan | Loc_key_index of Element.index

type prop = {
  p_eval : float;
  p_apply : float;
  p_save : float;
  p_index : float;
  p_result_tuples : float;
}

let prop_total p = p.p_eval +. p.p_apply +. p.p_save +. p.p_index

let zero_prop =
  { p_eval = 0.; p_apply = 0.; p_save = 0.; p_index = 0.; p_result_tuples = 0. }

type memo_value =
  | M_ins of prop * ins_plan
  | M_loc of prop * locate_method
  | M_elem of float

(* Memoization keys: (element code, kind, relation, restricted feature
   bitmask, restricted-configuration signature).  Evaluators over a
   problem's numbered feature universe key by the configuration's mask
   restricted to the element's relevance mask (its locate mask for
   deletions and updates, see [memo_key]): word 0 goes in the 4th slot
   (>= 0) and the higher words in the 5th, cut after the last non-zero
   word, so universes of up to 62 features build no list at all.
   Evaluators for configurations outside the universe key by the structural
   signature (4th slot = -1).  The two key spaces are disjoint, so both
   kinds can share one cache. *)
module Key = struct
  type t = int * int * int * int * int list

  let equal (a1, b1, c1, m1, l1) (a2, b2, c2, m2, l2) =
    a1 = a2 && b1 = b2 && c1 = c2 && m1 = m2
    &&
    let rec eq l1 l2 =
      match (l1, l2) with
      | [], [] -> true
      | (x : int) :: r1, y :: r2 -> x = y && eq r1 r2
      | [], _ :: _ | _ :: _, [] -> false
    in
    eq l1 l2

  (* Every bit of every field reaches the result: each step multiplies by
     an odd constant (carrying low bits upwards) and folds the high half
     back down, and a final avalanche spreads the last field over the low
     bits that [Hashtbl] indexes buckets by.  Mask words are 62 bits wide,
     so a hash that kept only the low 32 bits of each field would drop
     their upper features and chain whole families of keys into one
     bucket. *)
  let mix h x =
    let h = (h lxor x) * 0x4f1bbcdcbfa53e0b in
    h lxor (h lsr 29)

  let hash (a, b, c, m, l) =
    let h = mix (mix (mix (mix 0x2545f4914f6cdd1d a) b) c) m in
    let h = List.fold_left mix h l in
    let h = (h lxor (h lsr 32)) * 0x6b3a9cf1d8e5a473 in
    (h lxor (h lsr 31)) land max_int
end

module Ktbl = Hashtbl.Make (Key)

(* The cache is shared by every evaluator of a problem — including, since
   the multicore work, evaluators running concurrently on several domains.
   It is lock-striped: keys hash to one of a fixed set of stripes, each a
   small independent cache (table, FIFO eviction queue, counters) guarded by
   its own mutex.  Counter updates happen under the stripe lock, so
   hits + misses equals the number of lookups exactly even under concurrent
   use — no lost updates — while domains touching different stripes never
   contend.  Cached values equal freshly computed ones (the cost model is a
   pure function of the restricted configuration signature), so concurrent
   duplicate computation of a missed key is wasteful but harmless. *)

type stripe = {
  tbl : memo_value Ktbl.t;
  fifo : Key.t Queue.t;  (* insertion order; only kept for bounded stripes *)
  s_capacity : int;  (* per-stripe bound; 0 = unbounded *)
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type cache = { stripes : stripe array; mask : int }

type cache_stats = {
  cs_hits : int;
  cs_misses : int;
  cs_evictions : int;
  cs_entries : int;
  cs_max_chain : int;
}

let new_stripe s_capacity =
  {
    tbl = Ktbl.create 512;
    fifo = Queue.create ();
    s_capacity;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let new_cache ?(capacity = 0) () : cache =
  if capacity < 0 then invalid_arg "Cost.new_cache: negative capacity";
  (* Bounded caches get at most [capacity] stripes so the per-stripe bounds
     sum to exactly [capacity]; stripe counts stay powers of two for the
     mask-based stripe selection. *)
  let n_stripes =
    if capacity = 0 then 16
    else begin
      let rec pow2 p = if 2 * p <= min capacity 16 then pow2 (2 * p) else p in
      pow2 1
    end
  in
  let stripes =
    Array.init n_stripes (fun i ->
        if capacity = 0 then new_stripe 0
        else
          new_stripe
            ((capacity / n_stripes)
            + (if i < capacity mod n_stripes then 1 else 0)))
  in
  { stripes; mask = n_stripes - 1 }

let stripe_of c key =
  (* The table inside each stripe indexes buckets by the low bits of
     [Key.hash]; the stripe comes from bits 56 and up, which no table grows
     large enough to index by, so striping empties out no bucket range. *)
  c.stripes.((Key.hash key lsr 56) land c.mask)

let locked s f =
  Mutex.lock s.lock;
  let r = f () in
  Mutex.unlock s.lock;
  r

let cache_size c =
  Array.fold_left
    (fun acc s -> acc + locked s (fun () -> Ktbl.length s.tbl))
    0 c.stripes

let cache_stats c =
  Array.fold_left
    (fun acc s ->
      locked s (fun () ->
          {
            cs_hits = acc.cs_hits + s.hits;
            cs_misses = acc.cs_misses + s.misses;
            cs_evictions = acc.cs_evictions + s.evictions;
            cs_entries = acc.cs_entries + Ktbl.length s.tbl;
            cs_max_chain =
              max acc.cs_max_chain (Ktbl.stats s.tbl).Hashtbl.max_bucket_length;
          }))
    {
      cs_hits = 0;
      cs_misses = 0;
      cs_evictions = 0;
      cs_entries = 0;
      cs_max_chain = 0;
    }
    c.stripes

let hit_rate s =
  let lookups = s.cs_hits + s.cs_misses in
  if lookups = 0 then 0. else float_of_int s.cs_hits /. float_of_int lookups

let reset_cache_stats c =
  Array.iter
    (fun s ->
      locked s (fun () ->
          s.hits <- 0;
          s.misses <- 0;
          s.evictions <- 0))
    c.stripes

let cache_stats_json c =
  let s = cache_stats c in
  Vis_util.Json.Obj
    [
      ("hits", Vis_util.Json.Int s.cs_hits);
      ("misses", Vis_util.Json.Int s.cs_misses);
      ("evictions", Vis_util.Json.Int s.cs_evictions);
      ("entries", Vis_util.Json.Int s.cs_entries);
      ("max_chain", Vis_util.Json.Int s.cs_max_chain);
      ("hit_rate", Vis_util.Json.Float (hit_rate s));
    ]

(* A lookup that maintains the counters; [store] inserts the freshly
   computed value, evicting the oldest entry of a bounded stripe.  Both run
   under the stripe lock. *)
let cache_find c key =
  let s = stripe_of c key in
  locked s (fun () ->
      match Ktbl.find_opt s.tbl key with
      | Some _ as r ->
          s.hits <- s.hits + 1;
          r
      | None ->
          s.misses <- s.misses + 1;
          None)

let cache_store c key value =
  let s = stripe_of c key in
  locked s (fun () ->
      if s.s_capacity > 0 then begin
        if Ktbl.length s.tbl >= s.s_capacity then begin
          match Queue.take_opt s.fifo with
          | Some oldest ->
              Ktbl.remove s.tbl oldest;
              s.evictions <- s.evictions + 1
          | None -> ()
        end;
        Queue.add key s.fifo
      end;
      Ktbl.replace s.tbl key value)

let elem_sig_code schema = function
  | Element.Base i -> (2 * i) + 1
  | Element.View s ->
      ignore schema;
      2 * Bitset.to_int s

let index_sig_code schema ix =
  let attr =
    (64 * ix.Element.ix_attr.Element.a_rel)
    + Schema.attr_pos schema ix.Element.ix_attr.Element.a_rel
        ix.Element.ix_attr.Element.a_name
  in
  lnot ((elem_sig_code schema ix.Element.ix_elem * 4096) + attr)

(* ------------------------------------------------------------------ *)
(* Propagating insertions: Eval(ΔR ⋈ ...) by dynamic programming over the
   covered relation subsets, starting from the shipped delta or from a
   saved delta of a materialized subview, and extending with base
   relations or materialized views via nested-block or index joins.

   Everything the DP reads that does not depend on the configuration — the
   dense numbering of the target's subsets, the delta-join size, result
   pages and outer blocks of each subset, and each join unit's probe
   statistics — is built once per problem into a skeleton; a DP then only
   prices the configuration's units and relaxes over float and int
   arrays. *)

(* An index join a unit offers: probing its index on [pb_ix]'s attribute
   with tuples of [pb_outside], a relation outside the unit. *)
type ins_probe = {
  pb_outside : int;
  pb_matches : float;  (* unit tuples per probe *)
  pb_ix_pages : float;
  pb_per_probe : float;  (* index pages read per probe *)
  pb_pages : float;  (* the unit's data pages *)
  pb_card : float;
  pb_ix : Element.index;
}

(* A join unit: a base relation or a view, with every join leaving it. *)
type ins_unit = { iu_elem : Element.t; iu_probes : ins_probe array }

(* The configuration-independent part of one (target, delta relation) DP.
   Arrays are indexed by the dense code of a subset of the target; only
   codes containing the delta relation are filled. *)
type ins_skel = {
  sk_dense : int array;  (* relation -> dense bit in the target; -1 outside *)
  sk_r_bit : int;
  sk_delta_pages : float;
  sk_count : float array;  (* delta-join tuples *)
  sk_pages : float array;  (* their pages *)
  sk_blocks : float array;  (* outer blocks of a nested-block join *)
  sk_bases : ins_unit array;  (* the target's other base relations, DP order *)
}

(* Skeletons are pure functions of the derived statistics; they are built
   lazily, under a lock, and read freely from every domain. *)
type skeletons = {
  sk_lock : Mutex.t;
  sk_units : (int, ins_unit) Hashtbl.t;  (* element code -> unit *)
  sk_ins : (int * int, ins_skel) Hashtbl.t;  (* (target set, rel) -> DP *)
}

let new_skeletons () =
  { sk_lock = Mutex.create (); sk_units = Hashtbl.create 64; sk_ins = Hashtbl.create 64 }

(* Find or build; a racing duplicate build is identical and discarded. *)
let skel_find store tbl key build =
  Mutex.lock store.sk_lock;
  let found = Hashtbl.find_opt tbl key in
  Mutex.unlock store.sk_lock;
  match found with
  | Some v -> v
  | None ->
      let v = build () in
      Mutex.lock store.sk_lock;
      let v =
        match Hashtbl.find_opt tbl key with
        | Some v' -> v'
        | None ->
            Hashtbl.add tbl key v;
            v
      in
      Mutex.unlock store.sk_lock;
      v

(* ------------------------------------------------------------------ *)
(* Feature encoding: a problem's candidate features (views + indexes)
   numbered once into bits, so a configuration drawn from that universe is
   one fixed-width {!Wmask.t}.  The encoding also precomputes, per
   maintained element, the *relevance mask* — the bits of features whose
   relation set is contained in the element's (exactly the features
   [Config.restrict] would keep) — so the memoization key of an element
   under mask [m] is [m ∩ relevance].  Deletions and updates read less:
   only the element's own indexes and compression, its *locate mask*, so
   their keys are [m ∩ locate].  Everything here is immutable after
   construction (the counters are atomics, the insertion-DP skeletons a
   lock-guarded memo of pure values), so encodings are shared freely across
   worker domains. *)

type incr_stats = {
  is_full : int;  (** configurations costed from scratch *)
  is_delta : int;  (** configurations costed from a neighbour *)
  is_reused : int;  (** zero-change evaluations answered by the parent *)
  is_elems_computed : int;  (** per-element costs (re)derived *)
  is_elems_copied : int;  (** per-element costs copied from the parent *)
}

type encoding = {
  en_schema : Schema.t;
  en_features : Config.feature array;  (* bit i <-> en_features.(i) *)
  en_view_bit : (int, int) Hashtbl.t;  (* view-set int -> bit *)
  en_index_bit : (int, int) Hashtbl.t;  (* index signature code -> bit *)
  en_compress_bit : (int, int) Hashtbl.t;  (* element signature code -> bit *)
  en_relevance : (int, Wmask.t) Hashtbl.t;  (* relation-set int -> relevance mask *)
  en_locate : (int, Wmask.t) Hashtbl.t;  (* element code -> locate mask *)
  en_skel : skeletons;
  en_n_rels : int;
  (* Incremental-evaluation slots: base relations 0..n-1, then the
     candidate views ascending by [Bitset.compare] (the order [Config.views]
     yields, so totals re-sum in the canonical order), then the primary
     view.  [en_slot_elems]/[en_slot_relevance]/[en_slot_bit] describe each
     slot; [en_slot_bit] is -1 for always-maintained slots. *)
  en_slot_elems : Element.t array;
  en_slot_relevance : Wmask.t array;
  en_slot_bit : int array;
  (* Exact work counters for the incremental evaluator. *)
  en_full : int Atomic.t;
  en_delta : int Atomic.t;
  en_reused : int Atomic.t;
  en_elems_computed : int Atomic.t;
  en_elems_copied : int Atomic.t;
}

let elem_code = function
  | Element.Base i -> (2 * i) + 1
  | Element.View s -> 2 * Bitset.to_int s

let compute_relevance features rels =
  let bits = ref [] in
  Array.iteri
    (fun i f -> if Bitset.subset (Config.feature_rels f) rels then bits := i :: !bits)
    features;
  Wmask.of_list (Array.length features) !bits

let make_encoding derived features =
  let schema = Derived.schema derived in
  let view_bit = Hashtbl.create 32 in
  let index_bit = Hashtbl.create 64 in
  let compress_bit = Hashtbl.create 16 in
  Array.iteri
    (fun i f ->
      match f with
      | Config.F_view w -> Hashtbl.replace view_bit (Bitset.to_int w) i
      | Config.F_index ix -> Hashtbl.replace index_bit (index_sig_code schema ix) i
      | Config.F_compress e ->
          Hashtbl.replace compress_bit (elem_sig_code schema e) i)
    features;
  let n_rels = Schema.n_relations schema in
  let views =
    Array.to_list features
    |> List.filter_map (function
         | Config.F_view w -> Some w
         | Config.F_index _ | Config.F_compress _ -> None)
    |> List.sort Bitset.compare
  in
  let slot_elems =
    Array.of_list
      (List.init n_rels (fun i -> Element.Base i)
      @ List.map (fun w -> Element.View w) views
      @ [ Element.View (Schema.all_relations schema) ])
  in
  let relevance_tbl = Hashtbl.create 64 in
  let relevance_of rels =
    let key = Bitset.to_int rels in
    match Hashtbl.find_opt relevance_tbl key with
    | Some m -> m
    | None ->
        let m = compute_relevance features rels in
        Hashtbl.replace relevance_tbl key m;
        m
  in
  let slot_relevance =
    Array.map (fun e -> relevance_of (Element.rels e)) slot_elems
  in
  (* Locate masks: the features [prop_delupd_uncached] reads for an
     element, its indexes and its compression.  Every element they name is
     a slot (indexes sit on bases, candidate views or the primary view). *)
  let locate_tbl = Hashtbl.create 64 in
  Array.iter
    (fun e -> Hashtbl.replace locate_tbl (elem_code e) (Wmask.empty (Array.length features)))
    slot_elems;
  Array.iteri
    (fun i f ->
      let own e =
        let code = elem_code e in
        Hashtbl.replace locate_tbl code (Wmask.add i (Hashtbl.find locate_tbl code))
      in
      match f with
      | Config.F_index ix -> own ix.Element.ix_elem
      | Config.F_compress e -> own e
      | Config.F_view _ -> ())
    features;
  let slot_bit =
    Array.map
      (fun e ->
        match e with
        | Element.Base _ -> -1
        | Element.View w when Bitset.equal w (Schema.all_relations schema) -> -1
        | Element.View w -> Hashtbl.find view_bit (Bitset.to_int w))
      slot_elems
  in
  {
    en_schema = schema;
    en_features = features;
    en_view_bit = view_bit;
    en_index_bit = index_bit;
    en_compress_bit = compress_bit;
    en_relevance = relevance_tbl;
    en_locate = locate_tbl;
    en_skel = new_skeletons ();
    en_n_rels = n_rels;
    en_slot_elems = slot_elems;
    en_slot_relevance = slot_relevance;
    en_slot_bit = slot_bit;
    en_full = Atomic.make 0;
    en_delta = Atomic.make 0;
    en_reused = Atomic.make 0;
    en_elems_computed = Atomic.make 0;
    en_elems_copied = Atomic.make 0;
  }

let encoding_features enc = enc.en_features

(* Relevance of an arbitrary element; the table covers every maintained
   element of the universe, so misses only happen for out-of-universe
   queries, answered by a pure scan without mutating the shared table. *)
let relevance enc rels =
  match Hashtbl.find_opt enc.en_relevance (Bitset.to_int rels) with
  | Some m -> m
  | None -> compute_relevance enc.en_features rels

let relevance_mask enc elem = relevance enc (Element.rels elem)

let feature_bit enc = function
  | Config.F_view w -> Hashtbl.find_opt enc.en_view_bit (Bitset.to_int w)
  | Config.F_index ix ->
      Hashtbl.find_opt enc.en_index_bit (index_sig_code enc.en_schema ix)
  | Config.F_compress e ->
      Hashtbl.find_opt enc.en_compress_bit (elem_sig_code enc.en_schema e)

let view_feature_bit enc w = Hashtbl.find_opt enc.en_view_bit (Bitset.to_int w)

exception Out_of_universe

let empty_mask enc = Wmask.empty (Array.length enc.en_features)

(* Elements outside the slot table own no feature. *)
let locate_mask enc elem =
  match Hashtbl.find_opt enc.en_locate (elem_code elem) with
  | Some m -> m
  | None -> empty_mask enc

let mask_of_config enc config =
  let bit = function Some b -> b | None -> raise Out_of_universe in
  match
    List.map (fun w -> bit (view_feature_bit enc w)) (Config.views config)
    @ List.map
        (fun ix ->
          bit (Hashtbl.find_opt enc.en_index_bit (index_sig_code enc.en_schema ix)))
        (Config.indexes config)
    @ List.map
        (fun e ->
          bit (Hashtbl.find_opt enc.en_compress_bit (elem_sig_code enc.en_schema e)))
        (Config.compress config)
  with
  | bits -> Some (Wmask.of_list (Array.length enc.en_features) bits)
  | exception Out_of_universe -> None

let config_of_mask enc mask =
  let views = ref [] and indexes = ref [] and compress = ref [] in
  Wmask.iter
    (fun i ->
      match enc.en_features.(i) with
      | Config.F_view w -> views := w :: !views
      | Config.F_index ix -> indexes := ix :: !indexes
      | Config.F_compress e -> compress := e :: !compress)
    mask;
  List.fold_left Config.add_compress
    (Config.make ~views:!views ~indexes:!indexes)
    !compress

let incr_stats enc =
  {
    is_full = Atomic.get enc.en_full;
    is_delta = Atomic.get enc.en_delta;
    is_reused = Atomic.get enc.en_reused;
    is_elems_computed = Atomic.get enc.en_elems_computed;
    is_elems_copied = Atomic.get enc.en_elems_copied;
  }

let reset_incr_stats enc =
  Atomic.set enc.en_full 0;
  Atomic.set enc.en_delta 0;
  Atomic.set enc.en_reused 0;
  Atomic.set enc.en_elems_computed 0;
  Atomic.set enc.en_elems_copied 0

let incr_stats_json enc =
  let s = incr_stats enc in
  Vis_util.Json.Obj
    [
      ("full_evals", Vis_util.Json.Int s.is_full);
      ("delta_evals", Vis_util.Json.Int s.is_delta);
      ("reused_evals", Vis_util.Json.Int s.is_reused);
      ("elems_computed", Vis_util.Json.Int s.is_elems_computed);
      ("elems_copied", Vis_util.Json.Int s.is_elems_copied);
    ]

(* ------------------------------------------------------------------ *)

type structural_keying = {
  enc_views : (Bitset.t * int) list;
  enc_indexes : (Bitset.t * int) list;
  enc_compress : (Bitset.t * int) list;
  (* Per-element restricted signature, memoized per evaluator. *)
  mutable prefixes : (int * int list) list;
}

type masked_keying = {
  enc : encoding;
  kmask : Wmask.t;
  (* The restricted key of the element last looked up, and its code (-1
     before the first lookup).  Lookups come in runs on one element — its
     cost, then every delta relation's propagation — so remembering one
     element serves nearly all of them without a search. *)
  mutable last_code : int;
  mutable last_key : int * int list;
  (* The same for the locate masks of deletion and update keys. *)
  mutable last_loc_code : int;
  mutable last_loc_key : int * int list;
}

type keying =
  | K_masked of masked_keying
      (* a configuration inside a numbered universe: restriction is a mask
         intersection *)
  | K_structural of structural_keying

type t = {
  derived : Derived.t;
  (* Decoded from the mask only when a computation actually needs the
     symbolic configuration (i.e. on cache misses). *)
  config : Config.t Lazy.t;
  cache : cache;
  keying : keying;
  skel : skeletons;  (* the problem's, or the evaluator's own *)
}

let create ?cache derived config =
  let cache = match cache with Some c -> c | None -> new_cache () in
  let schema = Derived.schema derived in
  let enc_views =
    List.map (fun v -> (v, 2 * Bitset.to_int v)) (Config.views config)
  in
  let enc_indexes =
    List.map
      (fun ix -> (Element.rels ix.Element.ix_elem, index_sig_code schema ix))
      (Config.indexes config)
  in
  (* Codes must match {!Config.signature_ints} so structural keys agree with
     the packed universe's decoded configurations. *)
  let enc_compress =
    List.map
      (fun e -> (Element.rels e, lnot ((1 lsl 40) + elem_sig_code schema e)))
      (Config.compress config)
  in
  {
    derived;
    config = Lazy.from_val config;
    cache;
    keying = K_structural { enc_views; enc_indexes; enc_compress; prefixes = [] };
    skel = new_skeletons ();
  }

let create_masked ?cache derived enc mask =
  let cache = match cache with Some c -> c | None -> new_cache () in
  {
    derived;
    config = lazy (config_of_mask enc mask);
    cache;
    keying =
      K_masked
        {
          enc;
          kmask = mask;
          last_code = -1;
          last_key = (0, []);
          last_loc_code = -1;
          last_loc_key = (0, []);
        };
    skel = enc.en_skel;
  }

let config t = Lazy.force t.config

(* Page-level compression.  A compressed element stores its tuples in
   roughly [compress_page_ratio] of the pages, so each logical data-page
   access moves half the I/O — but pays a CPU surcharge to decode (reads)
   or encode (writes), charged in page-cost units.  The net per-page
   factors are applied multiplicatively at every charging site that touches
   the element's *data* pages; index pages, shipped deltas and scratch
   saved deltas are never compressed.  Keeping the factors linear (page
   counts in the formulas stay uncompressed) is what lets the A* bounds
   scale floors by [compress_read_factor] exactly. *)

let compress_page_ratio = 0.5

(* ratio + decode CPU: 0.5 + 0.15 *)
let compress_read_factor = 0.65

(* ratio + encode CPU: 0.5 + 0.60 — writing compressed pages costs more
   than it saves, which is what makes compression a genuine trade-off. *)
let compress_write_factor = 1.10

let read_f t e =
  if Config.has_compress (config t) e then compress_read_factor else 1.

let write_f t e =
  if Config.has_compress (config t) e then compress_write_factor else 1.

let derived t = t.derived

let schema t = Derived.schema t.derived

let mem_pages t = float_of_int (schema t).Schema.mem_pages

let elem_prefix k target =
  let code = elem_code target in
  match List.assq_opt code k.prefixes with
  | Some p -> p
  | None ->
      let rels = Element.rels target in
      let keep (frels, c) = if Bitset.subset frels rels then Some c else None in
      let p =
        List.filter_map keep k.enc_views
        @ List.filter_map keep k.enc_indexes
        @ List.filter_map keep k.enc_compress
      in
      k.prefixes <- (code, p) :: k.prefixes;
      p

(* [kmask ∩ restriction] as (word 0, higher words up to the last non-zero
   one) — the layout of {!Key}'s mask slots. *)
let restricted_key kmask restriction =
  let w i = Wmask.word kmask i land Wmask.word restriction i in
  let rec tail i acc =
    if i = 0 then acc
    else
      let x = w i in
      tail (i - 1) (match acc with [] when x = 0 -> [] | _ -> x :: acc)
  in
  (w 0, tail (Wmask.words restriction - 1) [])

let elem_mask_key m target =
  let code = elem_code target in
  if code = m.last_code then m.last_key
  else begin
    let k = restricted_key m.kmask (relevance m.enc (Element.rels target)) in
    m.last_code <- code;
    m.last_key <- k;
    k
  end

let elem_locate_key m target =
  let code = elem_code target in
  if code = m.last_loc_code then m.last_loc_key
  else begin
    let k = restricted_key m.kmask (locate_mask m.enc target) in
    m.last_loc_code <- code;
    m.last_loc_key <- k;
    k
  end

(* Deletion and update keys ('d', 'u') restrict to the locate mask, every
   other kind to the relevance mask; structural keys always carry the whole
   restricted signature. *)
let memo_key t ~target ~rel ~kind : Key.t =
  match t.keying with
  | K_masked m ->
      let w0, rest =
        match kind with
        | 'd' | 'u' -> elem_locate_key m target
        | _ -> elem_mask_key m target
      in
      (elem_code target, Char.code kind, rel, w0, rest)
  | K_structural k -> (elem_code target, Char.code kind, rel, -1, elem_prefix k target)

(* ------------------------------------------------------------------ *)
(* Index maintenance: Apply_ix of Table 4.  [k] is the number of delta
   tuples applied to [elem]; per index we charge the internal-page reads
   (root cached, hence H-1 levels) estimated with Y_WAP plus the leaf
   pages written estimated with yao (entries of one batch are applied in
   sorted order). *)

let apply_one_index t elem attr k =
  ignore attr;
  if k <= 0. then 0.
  else begin
    let card = Element.card t.derived elem in
    let shape = Derived.index_shape t.derived ~entries:card in
    let reads =
      Yao.y_wap ~n:card ~p:shape.Derived.ix_pages
        ~k:(k *. float_of_int (shape.Derived.ix_height - 1))
        ~m:(mem_pages t)
    in
    let writes = Yao.yao ~n:card ~p:shape.Derived.ix_leaf_pages ~k in
    reads +. writes
  end

let apply_ix t elem k =
  List.fold_left
    (fun acc attr -> acc +. apply_one_index t elem attr k)
    0.
    (Config.indexes_on (config t) elem)

(* ------------------------------------------------------------------ *)

let nbj_cost t ~outer_pages ~inner_pages =
  Float.ceil (outer_pages /. mem_pages t) *. inner_pages

(* Accessing the inner side of a nested-block join.  A stored view or a
   replica is scanned; a base relation carrying a local selection may
   instead be read through an index on the selection attribute (Table 5's
   index scan), when such an index is materialized. *)
let inner_access_cost t unit =
  let rf = read_f t unit in
  let scan = rf *. Element.pages t.derived unit in
  match unit with
  | Element.View _ -> scan
  | Element.Base i ->
      let s = schema t in
      let sel_attrs = Schema.selection_attrs s i in
      if sel_attrs = [] then scan
      else begin
        let card = Derived.base_card t.derived i in
        let pages = Derived.base_pages t.derived i in
        let shape = Derived.index_shape t.derived ~entries:card in
        let matching = Derived.eff_card t.derived i in
        let via_index attr_name =
          let attr = { Element.a_rel = i; a_name = attr_name } in
          if Config.has_index (config t) unit attr then
            (* Index pages are never compressed; only the data pages
               fetched through the index pay (or enjoy) the factor. *)
            Some
              (float_of_int (shape.Derived.ix_height - 1)
              +. Num.fceil (shape.Derived.ix_pages *. matching /. Float.max card 1e-9)
              +. rf *. Yao.y_wap ~n:card ~p:pages ~k:matching ~m:(mem_pages t))
          else None
        in
        List.fold_left
          (fun best a ->
            match via_index a with Some c -> Float.min best c | None -> best)
          scan sel_attrs
      end

(* ------------------------------------------------------------------ *)
(* The insertion DP.  Its skeleton types and store are declared before the
   encoding, which holds a problem's store. *)

(* The unit of [elem]: every join with exactly one side inside it, in
   schema order, with the statistics of probing the inside attribute. *)
let build_unit d elem =
  let s = Derived.schema d in
  let urels = Element.rels elem in
  let probe (j : Schema.join) =
    let inside =
      if Bitset.mem j.Schema.left_rel urels && not (Bitset.mem j.Schema.right_rel urels)
      then
        Some
          ( { Element.a_rel = j.Schema.left_rel; a_name = j.Schema.left_attr },
            j.Schema.right_rel )
      else if
        Bitset.mem j.Schema.right_rel urels && not (Bitset.mem j.Schema.left_rel urels)
      then
        Some
          ( { Element.a_rel = j.Schema.right_rel; a_name = j.Schema.right_attr },
            j.Schema.left_rel )
      else None
    in
    match inside with
    | None -> None
    | Some (attr, outside) ->
        let card = Element.card d elem in
        let shape = Derived.index_shape d ~entries:card in
        let matches = card *. j.Schema.join_sel in
        Some
          {
            pb_outside = outside;
            pb_matches = matches;
            pb_ix_pages = shape.Derived.ix_pages;
            pb_per_probe =
              float_of_int (max 0 (shape.Derived.ix_height - 2))
              +. Num.fceil (shape.Derived.ix_pages *. matches /. Float.max card 1e-9);
            pb_pages = Element.pages d elem;
            pb_card = card;
            pb_ix = { Element.ix_elem = elem; ix_attr = attr };
          }
  in
  { iu_elem = elem; iu_probes = Array.of_list (List.filter_map probe s.Schema.joins) }

let unit_of t elem =
  skel_find t.skel t.skel.sk_units (elem_code elem) (fun () -> build_unit t.derived elem)

let build_ins_skel t target_set r =
  let d = t.derived in
  let s = schema t in
  let i_r = (Schema.delta s r).Schema.n_ins in
  let scale = i_r /. Derived.base_card d r in
  let pm = mem_pages t in
  let positions = Array.of_list (Bitset.elements target_set) in
  let nstates = 1 lsl Array.length positions in
  let dense = Array.make (Schema.n_relations s) (-1) in
  Array.iteri (fun bit rel -> dense.(rel) <- bit) positions;
  let r_bit = 1 lsl dense.(r) in
  (* sets.(code) is the Bitset for a dense code; built incrementally. *)
  let sets = Array.make nstates Bitset.empty in
  let count = Array.make nstates 0. in
  let pages = Array.make nstates 0. in
  let blocks = Array.make nstates 0. in
  for code = 1 to nstates - 1 do
    let low = code land -code in
    let bit = ref 0 and v = ref low in
    while !v > 1 do
      incr bit;
      v := !v lsr 1
    done;
    sets.(code) <- Bitset.add positions.(!bit) sets.(code land (code - 1));
    if code land r_bit <> 0 then begin
      count.(code) <- Derived.view_card d sets.(code) *. scale;
      pages.(code) <- Derived.pages_of_tuples d ~set:sets.(code) ~tuples:count.(code);
      blocks.(code) <- Float.ceil (pages.(code) /. pm)
    end
  done;
  {
    sk_dense = dense;
    sk_r_bit = r_bit;
    sk_delta_pages = Derived.delta_pages d ~rel:r ~count:i_r;
    sk_count = count;
    sk_pages = pages;
    sk_blocks = blocks;
    sk_bases =
      Array.of_list
        (Bitset.fold
           (fun i acc -> if i = r then acc else unit_of t (Element.Base i) :: acc)
           target_set []);
  }

let dense_code sk set =
  Bitset.fold (fun rel acc -> acc lor (1 lsl sk.sk_dense.(rel))) set 0

(* Per-domain DP tables, grown on demand: a DP allocates nothing per
   relaxation.  [dp_unit]/[dp_probe] record the step that reached a code
   (probe -1 = nested-block join), [dp_start] the view whose saved delta
   the path starts from (-1 = the shipped delta). *)
type dp_tables = {
  mutable dp_cost : float array;
  mutable dp_from : int array;
  mutable dp_unit : int array;
  mutable dp_probe : int array;
  mutable dp_start : int array;
}

let dp_key =
  Domain.DLS.new_key (fun () ->
      { dp_cost = [||]; dp_from = [||]; dp_unit = [||]; dp_probe = [||]; dp_start = [||] })

let dp_tables nstates =
  let tb = Domain.DLS.get dp_key in
  if Array.length tb.dp_cost < nstates then begin
    tb.dp_cost <- Array.make nstates infinity;
    tb.dp_from <- Array.make nstates (-1);
    tb.dp_unit <- Array.make nstates 0;
    tb.dp_probe <- Array.make nstates 0;
    tb.dp_start <- Array.make nstates 0
  end;
  Array.fill tb.dp_cost 0 nstates infinity;
  Array.fill tb.dp_from 0 nstates (-1);
  tb

let eval_ins t target_set r =
  let sk =
    skel_find t.skel t.skel.sk_ins (Bitset.to_int target_set, r) (fun () ->
        build_ins_skel t target_set r)
  in
  let half_mem = mem_pages t /. 2. in
  let config = config t in
  (* Units: base relations of the target and materialized views inside the
     target that avoid the delta relation, priced for this configuration.
     A probe is usable when its outside relation lies in the target and
     the configuration materializes its index; [outs] holds its outside
     dense bit, 0 when unusable. *)
  let views =
    List.filter
      (fun w -> Bitset.subset w target_set && not (Bitset.mem r w))
      (Config.views config)
  in
  let units =
    Array.append sk.sk_bases
      (Array.of_list (List.map (fun w -> unit_of t (Element.View w)) views))
  in
  let n_units = Array.length units in
  let masks = Array.map (fun u -> dense_code sk (Element.rels u.iu_elem)) units in
  let inner = Array.map (fun u -> inner_access_cost t u.iu_elem) units in
  let read = Array.map (fun u -> read_f t u.iu_elem) units in
  let outs =
    Array.map
      (fun u ->
        Array.map
          (fun pb ->
            let bit = sk.sk_dense.(pb.pb_outside) in
            if bit >= 0 && Config.has_index config u.iu_elem pb.pb_ix.Element.ix_attr
            then 1 lsl bit
            else 0)
          u.iu_probes)
      units
  in
  let nstates = Array.length sk.sk_count in
  let tb = dp_tables nstates in
  let cost = tb.dp_cost and from = tb.dp_from and start = tb.dp_start in
  let step_unit = tb.dp_unit and step_probe = tb.dp_probe in
  let r_bit = sk.sk_r_bit in
  if sk.sk_delta_pages < cost.(r_bit) then begin
    cost.(r_bit) <- sk.sk_delta_pages;
    from.(r_bit) <- -1;
    start.(r_bit) <- -1
  end;
  List.iter
    (fun w ->
      if Bitset.mem r w && Bitset.proper_subset w target_set then begin
        let code = dense_code sk w in
        if sk.sk_pages.(code) < cost.(code) then begin
          cost.(code) <- sk.sk_pages.(code);
          from.(code) <- -1;
          start.(code) <- Bitset.to_int w
        end
      end)
    (Config.views config);
  for code = r_bit to nstates - 1 do
    if code land r_bit <> 0 && cost.(code) < infinity then begin
      let outer_tuples = sk.sk_count.(code) in
      let blocks = sk.sk_blocks.(code) in
      for ui = 0 to n_units - 1 do
        if code land masks.(ui) = 0 then begin
          let next = code lor masks.(ui) in
          let base = cost.(code) in
          let c = base +. (blocks *. inner.(ui)) in
          if c < cost.(next) then begin
            cost.(next) <- c;
            from.(next) <- code;
            step_unit.(next) <- ui;
            step_probe.(next) <- -1;
            start.(next) <- start.(code)
          end;
          let probes = units.(ui).iu_probes and uouts = outs.(ui) in
          for pi = 0 to Array.length probes - 1 do
            if code land uouts.(pi) <> 0 then begin
              let pb = probes.(pi) in
              let c =
                Yao.y_wap ~n:pb.pb_card ~p:pb.pb_ix_pages
                  ~k:(outer_tuples *. pb.pb_per_probe) ~m:half_mem
                +. read.(ui)
                   *. Yao.y_wap ~n:pb.pb_card ~p:pb.pb_pages
                        ~k:(outer_tuples *. pb.pb_matches) ~m:half_mem
              in
              let c = base +. c in
              if c < cost.(next) then begin
                cost.(next) <- c;
                from.(next) <- code;
                step_unit.(next) <- ui;
                step_probe.(next) <- pi;
                start.(next) <- start.(code)
              end
            end
          done
        end
      done
    end
  done;
  let final = nstates - 1 in
  assert (cost.(final) < infinity);
  (* Reconstruct the winning update path. *)
  let rec walk code acc =
    let prev = from.(code) in
    if prev >= 0 then begin
      let u = units.(step_unit.(code)) in
      let how =
        match step_probe.(code) with
        | -1 -> Nbj
        | pi -> Index_join u.iu_probes.(pi).pb_ix
      in
      walk prev ((u.iu_elem, how) :: acc)
    end
    else
      ( (match start.(code) with -1 -> From_delta | w -> From_saved (Bitset.of_int w)),
        acc )
  in
  let st, steps = walk final [] in
  (cost.(final), { ip_start = st; ip_steps = steps })

let prop_ins_uncached t ~target ~rel =
  let d = t.derived in
  let s = schema t in
  let i_r = (Schema.delta s rel).Schema.n_ins in
  if i_r <= 0. then (zero_prop, { ip_start = From_delta; ip_steps = [] })
  else
    match target with
    | Element.Base i ->
        assert (i = rel);
        let dp = Derived.delta_pages d ~rel ~count:i_r in
        ( {
            p_eval = dp;
            p_apply = write_f t target *. dp;
            p_save = 0.;
            p_index = apply_ix t target i_r;
            p_result_tuples = i_r;
          },
          { ip_start = From_delta; ip_steps = [] } )
    | Element.View set ->
        let eval, plan = eval_ins t set rel in
        let tuples =
          Derived.view_card d set *. i_r /. Derived.base_card d rel
        in
        let result_pages = Derived.pages_of_tuples d ~set ~tuples in
        let is_supporting =
          not (Bitset.equal set (Schema.all_relations s))
        in
        ( {
            p_eval = eval;
            p_apply = write_f t target *. result_pages;
            (* Saved deltas live in scratch space and are never compressed. *)
            p_save = (if is_supporting then result_pages else 0.);
            p_index = apply_ix t target tuples;
            p_result_tuples = tuples;
          },
          plan )

(* ------------------------------------------------------------------ *)
(* Propagating deletions and protected updates: locate the affected target
   tuples by key (index semijoin or scan), then rewrite them. *)

let prop_delupd_uncached t ~target ~rel ~kind =
  let d = t.derived in
  let s = schema t in
  let delta = Schema.delta s rel in
  let count_src =
    match kind with `Del -> delta.Schema.n_del | `Upd -> delta.Schema.n_upd
  in
  if count_src <= 0. then (zero_prop, Loc_scan)
  else begin
    let card_v = Element.card d target in
    let pages_v = Element.pages d target in
    let s_key =
      match target with
      | Element.Base i ->
          assert (i = rel);
          1.
      | Element.View set -> Derived.matches_per_key d ~view:set ~rel
    in
    let affected = count_src *. s_key in
    let delta_pages = Derived.delta_pages d ~rel ~count:count_src in
    let pm = mem_pages t in
    let rf = read_f t target and wf = write_f t target in
    (* Option 1: scan the target with the delta keys in memory.  The shipped
       delta is uncompressed; only the target's data pages carry factors. *)
    let scan_eval =
      delta_pages
      +. rf *. nbj_cost t ~outer_pages:delta_pages ~inner_pages:pages_v
    in
    let scan_apply = wf *. Yao.yao ~n:card_v ~p:pages_v ~k:affected in
    let best = ref (scan_eval, scan_apply, Loc_scan) in
    (* Option 2: probe an index on the key attribute of [rel]. *)
    let key_attr =
      { Element.a_rel = rel; a_name = (Schema.relation s rel).Schema.key_attr }
    in
    if Config.has_index (config t) target key_attr then begin
      let shape = Derived.index_shape d ~entries:card_v in
      let per_probe =
        float_of_int (max 0 (shape.Derived.ix_height - 2))
        +. Num.fceil (shape.Derived.ix_pages *. s_key /. Float.max card_v 1e-9)
      in
      let ix_eval =
        delta_pages
        +. Yao.y_wap ~n:card_v ~p:shape.Derived.ix_pages
             ~k:(count_src *. per_probe) ~m:(pm /. 2.)
        +. rf *. Yao.y_wap ~n:card_v ~p:pages_v ~k:affected ~m:(pm /. 2.)
      in
      let ix_apply = wf *. Yao.y_wap ~n:card_v ~p:pages_v ~k:affected ~m:pm in
      let ix = { Element.ix_elem = target; ix_attr = key_attr } in
      let scan_total = scan_eval +. scan_apply in
      if ix_eval +. ix_apply < scan_total then
        best := (ix_eval, ix_apply, Loc_key_index ix)
    end;
    let eval, apply, how = !best in
    let p_index = match kind with `Del -> apply_ix t target affected | `Upd -> 0. in
    ( {
        p_eval = eval;
        p_apply = apply;
        p_save = 0.;
        p_index;
        p_result_tuples = affected;
      },
      how )
  end

(* ------------------------------------------------------------------ *)
(* Memoized entry points. *)

let prop_ins t ~target ~rel =
  let key = memo_key t ~target ~rel ~kind:'i' in
  match cache_find t.cache key with
  | Some (M_ins (p, plan)) -> (p, plan)
  | Some (M_loc _ | M_elem _) -> assert false
  | None ->
      let p, plan = prop_ins_uncached t ~target ~rel in
      cache_store t.cache key (M_ins (p, plan));
      (p, plan)

let prop_loc t ~target ~rel ~kind =
  let tag = match kind with `Del -> 'd' | `Upd -> 'u' in
  let key = memo_key t ~target ~rel ~kind:tag in
  match cache_find t.cache key with
  | Some (M_loc (p, how)) -> (p, how)
  | Some (M_ins _ | M_elem _) -> assert false
  | None ->
      let p, how = prop_delupd_uncached t ~target ~rel ~kind in
      cache_store t.cache key (M_loc (p, how));
      (p, how)

let prop_del t ~target ~rel = prop_loc t ~target ~rel ~kind:`Del

let prop_upd t ~target ~rel = prop_loc t ~target ~rel ~kind:`Upd

let element_cost t elem =
  let key = memo_key t ~target:elem ~rel:(-1) ~kind:'E' in
  match cache_find t.cache key with
  | Some (M_elem c) -> c
  | Some (M_ins _ | M_loc _) -> assert false
  | None ->
      let c =
        Bitset.fold
          (fun r acc ->
            let pi, _ = prop_ins t ~target:elem ~rel:r in
            let pd, _ = prop_del t ~target:elem ~rel:r in
            let pu, _ = prop_upd t ~target:elem ~rel:r in
            acc +. prop_total pi +. prop_total pd +. prop_total pu)
          (Element.rels elem) 0.
      in
      cache_store t.cache key (M_elem c);
      c

let index_maint_cost t ix =
  let elem = ix.Element.ix_elem in
  Bitset.fold
    (fun r acc ->
      let pi, _ = prop_ins t ~target:elem ~rel:r in
      let pd, _ = prop_del t ~target:elem ~rel:r in
      acc
      +. apply_one_index t elem ix.Element.ix_attr pi.p_result_tuples
      +. apply_one_index t elem ix.Element.ix_attr pd.p_result_tuples)
    (Element.rels elem) 0.

let maintained_elements t =
  let s = schema t in
  let n = Schema.n_relations s in
  List.init n (fun i -> Element.Base i)
  @ List.map (fun w -> Element.View w) (Config.views (config t))
  @ [ Element.View (Schema.all_relations s) ]

let total t =
  List.fold_left (fun acc e -> acc +. element_cost t e) 0. (maintained_elements t)

let total_of ?cache derived config = total (create ?cache derived config)

(* ------------------------------------------------------------------ *)
(* Incremental evaluation over a feature universe.  An [ieval] carries the
   per-slot maintenance costs of one masked configuration; costing a
   neighbour (one feature flipped) recomputes only the slots whose relevance
   mask meets the changed bits and copies the rest, so a successor
   evaluation touches O(affected elements) instead of the whole plan.
   Totals re-sum every active slot in the exact order [total] folds
   [maintained_elements] — bases ascending, present views ascending by
   [Bitset.compare], then the primary view — so fast and slow paths agree
   bitwise, not just approximately. *)

type ieval = {
  ie_enc : encoding;
  ie_mask : Wmask.t;
  ie_total : float;
  ie_elems : float array;  (* per-slot cost; only active slots meaningful *)
}

let ieval_total ie = ie.ie_total

let ieval_mask ie = ie.ie_mask

let slot_active enc mask s =
  let b = enc.en_slot_bit.(s) in
  b < 0 || Wmask.mem b mask

let eval_mask ?cache derived enc mask =
  Atomic.incr enc.en_full;
  let t = create_masked ?cache derived enc mask in
  let n = Array.length enc.en_slot_elems in
  let elems = Array.make n 0. in
  let total = ref 0. in
  for s = 0 to n - 1 do
    if slot_active enc mask s then begin
      let c = element_cost t enc.en_slot_elems.(s) in
      elems.(s) <- c;
      total := !total +. c;
      Atomic.incr enc.en_elems_computed
    end
  done;
  { ie_enc = enc; ie_mask = mask; ie_total = !total; ie_elems = elems }

let eval_delta ?cache derived parent mask =
  let enc = parent.ie_enc in
  let changed = Wmask.xor parent.ie_mask mask in
  if Wmask.is_empty changed then begin
    Atomic.incr enc.en_reused;
    parent
  end
  else begin
    Atomic.incr enc.en_delta;
    let t = create_masked ?cache derived enc mask in
    let n = Array.length enc.en_slot_elems in
    let elems = Array.copy parent.ie_elems in
    let total = ref 0. in
    for s = 0 to n - 1 do
      if slot_active enc mask s then begin
        (* A slot newly activated by this delta has its own feature bit in
           [changed] (its relevance contains that bit), so stale values from
           a mask where the slot was inactive can never be copied. *)
        if Wmask.meets enc.en_slot_relevance.(s) changed then begin
          elems.(s) <- element_cost t enc.en_slot_elems.(s);
          Atomic.incr enc.en_elems_computed
        end
        else Atomic.incr enc.en_elems_copied;
        total := !total +. elems.(s)
      end
    done;
    { ie_enc = enc; ie_mask = mask; ie_total = !total; ie_elems = elems }
  end

let pp_ins_plan s ~target ~rel ppf plan =
  ignore target;
  let rel_name = (Schema.relation s rel).Schema.rel_name in
  (match plan.ip_start with
  | From_delta -> Format.fprintf ppf "\xce\x94%s" rel_name
  | From_saved w ->
      Format.fprintf ppf "\xce\x94%s^save(%s)" rel_name
        (Element.name s (Element.View w)));
  List.iter
    (fun (unit, how) ->
      match how with
      | Nbj -> Format.fprintf ppf " \xe2\x8b\x88nbj %s" (Element.name s unit)
      | Index_join ix ->
          Format.fprintf ppf " \xe2\x8b\x88ix[%s] %s"
            (Element.index_name s ix) (Element.name s unit))
    plan.ip_steps

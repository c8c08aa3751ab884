module Bitset = Vis_util.Bitset
module Wmask = Vis_util.Wmask
module Parallel = Vis_util.Parallel
module Schema = Vis_catalog.Schema
module Element = Vis_costmodel.Element
module Config = Vis_costmodel.Config
module Cost = Vis_costmodel.Cost

(* ------------------------------------------------------------------ *)
(* Per-problem precomputation.

   For every feature we know, independently of the search state:
   - [lb_cost]: a lower bound on its own maintenance in any completion (its
     cost with *every* candidate structure materialized, which is the
     richest plan space a completion can offer; for views, index maintenance
     is excluded because indexes carry their own cost);
   - [key_benefit]: the configuration-independent saving of a key index for
     locating deleted/updated tuples;
   - [affected]: the insertion expressions (target view, delta relation)
     whose evaluation the feature can make cheaper;
   - the full-configuration *floors* of every expression: no completion can
     push an evaluation below its cost with everything materialized.

   Features whose [lb_cost] exceeds their largest possible benefit (taken
   under the empty configuration, where evaluations are most expensive) can
   never reduce the total and are dropped outright — a sound dominance rule
   that shrinks the search space before A* starts. *)

type prep = {
  features : Problem.feature array;
  view_pos : (int, int) Hashtbl.t;  (* candidate view -> feature position *)
  lb_cost : float array;
  key_benefit : float array;
  affected : (int * int) list array;  (* (target index, delta relation) *)
  targets : Element.t array;  (* target 0 is the primary view *)
  target_view_pos : int array;  (* feature position of the target's view; -1 for the primary *)
  full_ins : float array array;  (* ins eval floor per [target][rel] *)
  full_del : float array array;  (* del eval+apply floor *)
  full_upd : float array array;
  full_base_del : float array;  (* per base relation *)
  full_base_upd : float array;
  dropped : Problem.feature list;  (* dominance-pruned features *)
}

let lb_view_cost full_eval w =
  let elem = Element.View w in
  Bitset.fold
    (fun r acc ->
      let pi, _ = Cost.prop_ins full_eval ~target:elem ~rel:r in
      let pd, _ = Cost.prop_del full_eval ~target:elem ~rel:r in
      let pu, _ = Cost.prop_upd full_eval ~target:elem ~rel:r in
      acc
      +. (pi.Cost.p_eval +. pi.Cost.p_apply +. pi.Cost.p_save)
      +. (pd.Cost.p_eval +. pd.Cost.p_apply)
      +. (pu.Cost.p_eval +. pu.Cost.p_apply))
    w 0.

(* Saving of a key index on [elem] for deletions and updates; it does not
   depend on what else is materialized.  With compression in the feature
   space the costs around the index can swing by the per-page factors, so
   the bound stretches to [cw·without − cf·with]; without compression
   [cf = cw = 1] and the formula is bitwise the original. *)
let key_index_benefit p ~cf ~cw ix =
  let elem = ix.Element.ix_elem in
  let r = ix.Element.ix_attr.Element.a_rel in
  let key = (Schema.relation p.Problem.schema r).Schema.key_attr in
  if ix.Element.ix_attr.Element.a_name <> key || not (Bitset.mem r (Element.rels elem))
  then 0.
  else begin
    let cost config =
      let eval = Problem.evaluator p config in
      let pd, _ = Cost.prop_del eval ~target:elem ~rel:r in
      let pu, _ = Cost.prop_upd eval ~target:elem ~rel:r in
      pd.Cost.p_eval +. pd.Cost.p_apply +. pu.Cost.p_eval +. pu.Cost.p_apply
    in
    let without = cost Config.empty in
    let with_ix = cost (Config.make ~views:[] ~indexes:[ ix ]) in
    Float.max 0. ((cw *. without) -. (cf *. with_ix))
  end

(* Insertion expressions the feature can make cheaper, as indices into
   [targets].  Membership is tracked in hash sets keyed [(target, rel)]:
   the original [List.mem] rescans made the accumulation quadratic on
   join-heavy schemas.  Each accumulator mirrors the prepend chain of the
   scan-based version, so list order and membership are unchanged. *)
let affected_triples p targets feature =
  let schema = p.Problem.schema in
  let fresh () = (Hashtbl.create 32, ref []) in
  let add ((seen, items) : ((int * int, unit) Hashtbl.t * _) ) key =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      items := key :: !items
    end
  in
  let triples_over ~must_contain ~strict ~delta_outside =
    let acc = fresh () in
    Array.iteri
      (fun ti elem ->
        let rels = Element.rels elem in
        let contains =
          if strict then Bitset.proper_subset must_contain rels
          else Bitset.subset must_contain rels
        in
        if contains then
          let srels = if delta_outside then Bitset.diff rels must_contain else rels in
          Bitset.iter (fun r -> add acc (ti, r)) srels)
      targets;
    !(snd acc)
  in
  match feature with
  | Problem.F_view w -> triples_over ~must_contain:w ~strict:true ~delta_outside:false
  (* Compression's benefit is bounded by a config-independent constant in
     [key_benefit]; it claims no per-state insertion gaps. *)
  | Problem.F_compress _ -> []
  | Problem.F_index ix ->
      let e_rels = Element.rels ix.Element.ix_elem in
      let attr = ix.Element.ix_attr in
      let acc = fresh () in
      List.iter
        (fun (j : Schema.join) ->
          let outside =
            if
              j.Schema.left_rel = attr.Element.a_rel
              && j.Schema.left_attr = attr.Element.a_name
              && not (Bitset.mem j.Schema.right_rel e_rels)
            then Some j.Schema.right_rel
            else if
              j.Schema.right_rel = attr.Element.a_rel
              && j.Schema.right_attr = attr.Element.a_name
              && not (Bitset.mem j.Schema.left_rel e_rels)
            then Some j.Schema.left_rel
            else None
          in
          match outside with
          | None -> ()
          | Some x ->
              List.iter (add acc)
                (triples_over
                   ~must_contain:(Bitset.add x e_rels)
                   ~strict:false ~delta_outside:false))
        schema.Schema.joins;
      (match ix.Element.ix_elem with
      | Element.Base i
        when List.mem attr.Element.a_name (Schema.selection_attrs schema i) ->
          List.iter (add acc)
            (triples_over ~must_contain:(Bitset.singleton i) ~strict:false
               ~delta_outside:true)
      | Element.Base _ | Element.View _ -> ());
      !(snd acc)

let ins_eval_of eval elem r =
  (fst (Cost.prop_ins eval ~target:elem ~rel:r)).Cost.p_eval

let delupd_of eval elem r =
  let pd, _ = Cost.prop_del eval ~target:elem ~rel:r in
  let pu, _ = Cost.prop_upd eval ~target:elem ~rel:r in
  ( pd.Cost.p_eval +. pd.Cost.p_apply,
    pu.Cost.p_eval +. pu.Cost.p_apply )

let prepare ~pool p =
  let schema = p.Problem.schema in
  let n_rels = Schema.n_relations schema in
  let full_config =
    Config.make ~views:p.Problem.candidate_views
      ~indexes:(Problem.indexes_for_views p p.Problem.candidate_views)
  in
  let full_eval = Problem.evaluator p full_config in
  (* Compression scaling of the bounds.  Every charging site's cost moves
     by a per-page factor in [cf, cw] under any compression assignment, so
     scaling a floor or a feature's own lower bound by [cf] (and a cost
     ceiling by [cw]) keeps it sound over the compressed completions too.
     Without compression candidates both factors are [1.] and every formula
     below is bitwise identical to the compression-free search. *)
  let has_compression = p.Problem.compress_elems <> [] in
  let cf = if has_compression then Cost.compress_read_factor else 1. in
  let cw = if has_compression then Cost.compress_write_factor else 1. in
  (* An [F_compress] maintains nothing of its own; its possible saving is
     bounded by the whole maintenance bill at its most expensive (the empty
     configuration, stretched by [cw]). *)
  let compress_benefit =
    if has_compression then cw *. Problem.total p Config.empty else 0.
  in
  let lb_of full_eval f =
    cf
    *.
    match f with
    | Problem.F_view w -> lb_view_cost full_eval w
    | Problem.F_index ix -> Cost.index_maint_cost full_eval ix
    | Problem.F_compress _ -> 0.
  in
  (* Per-feature precomputation fans out over the pool.  Each chunk builds
     private evaluators with [init] (an evaluator memoizes plan prefixes in
     single-domain mutable state, so it must not be shared across workers);
     the mapped values are pure, so every [jobs] setting computes the same
     arrays. *)
  let par_map ~init f arr =
    if Parallel.jobs pool > 1 && Array.length arr > 1 then
      Parallel.map_init pool ~init f arr
    else
      let ctx = init () in
      Array.map (f ctx) arr
  in
  let evaluators () =
    (Problem.evaluator p full_config, Problem.evaluator p Config.empty)
  in
  (* Dominance fixpoint: drop features that can never pay for themselves,
     re-evaluating as dropped views stop being benefit targets. *)
  let rec fixpoint features views =
    let targets =
      Array.of_list
        (Element.View (Schema.all_relations schema)
        :: List.map (fun w -> Element.View w) views)
    in
    let keep (full_eval, empty_eval) feature =
      let lb = lb_of full_eval feature in
      let benefit =
        key_index_benefit_or_zero p feature
        +. List.fold_left
             (fun acc (ti, r) ->
               let elem = targets.(ti) in
               let gap =
                 (cw *. ins_eval_of empty_eval elem r)
                 -. (cf *. ins_eval_of full_eval elem r)
               in
               acc +. Float.max 0. gap)
             0.
             (affected_triples p targets feature)
      in
      lb < benefit -. 1e-9
    in
    let flags = par_map ~init:evaluators keep (Array.of_list features) in
    let kept = List.filteri (fun i _ -> flags.(i)) features in
    let kept_views =
      List.filter_map
        (function
          | Problem.F_view w -> Some w
          | Problem.F_index _ | Problem.F_compress _ -> None)
        kept
    in
    (* Indexes on dropped candidate views can never apply. *)
    let kept =
      List.filter
        (function
          | Problem.F_view _ | Problem.F_compress _ -> true
          | Problem.F_index ix -> (
              match ix.Element.ix_elem with
              | Element.Base _ -> true
              | Element.View w ->
                  Bitset.equal w (Schema.all_relations schema)
                  || List.exists (Bitset.equal w) kept_views))
        kept
    in
    if List.length kept = List.length features then (kept, kept_views)
    else fixpoint kept kept_views
  and key_index_benefit_or_zero p = function
    | Problem.F_view _ -> 0.
    | Problem.F_index ix -> key_index_benefit p ~cf ~cw ix
    | Problem.F_compress _ -> compress_benefit
  in
  let kept, kept_views = fixpoint p.Problem.features p.Problem.candidate_views in
  let dropped =
    List.filter
      (fun f -> not (List.exists (Problem.equal_feature f) kept))
      p.Problem.features
  in
  let features = Array.of_list kept in
  let view_pos = Hashtbl.create 16 in
  Array.iteri
    (fun i f ->
      match f with
      | Problem.F_view w -> Hashtbl.replace view_pos (Bitset.to_int w) i
      | Problem.F_index _ | Problem.F_compress _ -> ())
    features;
  let targets =
    Array.of_list
      (Element.View (Schema.all_relations schema)
      :: List.map (fun w -> Element.View w) kept_views)
  in
  let target_view_pos =
    Array.map
      (fun elem ->
        match elem with
        | Element.View w when not (Bitset.equal w (Schema.all_relations schema))
          -> (
            match Hashtbl.find_opt view_pos (Bitset.to_int w) with
            | Some pos -> pos
            | None -> -1)
        | Element.View _ | Element.Base _ -> -1)
      targets
  in
  let per_target f =
    Array.map
      (fun elem ->
        Array.init n_rels (fun r ->
            if Bitset.mem r (Element.rels elem) then f elem r else 0.))
      targets
  in
  (* Floors carry the [cf] scaling: a compressed completion can push an
     evaluation below its everything-materialized cost, but never below
     [cf] times it. *)
  let full_ins = per_target (fun elem r -> cf *. ins_eval_of full_eval elem r) in
  let full_del =
    per_target (fun elem r -> cf *. fst (delupd_of full_eval elem r))
  in
  let full_upd =
    per_target (fun elem r -> cf *. snd (delupd_of full_eval elem r))
  in
  let full_base_del =
    Array.init n_rels (fun r ->
        cf *. fst (delupd_of full_eval (Element.Base r) r))
  in
  let full_base_upd =
    Array.init n_rels (fun r ->
        cf *. snd (delupd_of full_eval (Element.Base r) r))
  in
  {
    features;
    view_pos;
    lb_cost =
      par_map
        ~init:(fun () -> Problem.evaluator p full_config)
        lb_of features;
    key_benefit =
      par_map
        ~init:(fun () -> ())
        (fun () -> function
          | Problem.F_view _ -> 0.
          | Problem.F_index ix -> key_index_benefit p ~cf ~cw ix
          | Problem.F_compress _ -> compress_benefit)
        features;
    affected =
      par_map ~init:(fun () -> ()) (fun () -> affected_triples p targets) features;
    targets;
    target_view_pos;
    full_ins;
    full_del;
    full_upd;
    full_base_del;
    full_base_upd;
    dropped;
  }

(* ------------------------------------------------------------------ *)
(* The estimate, per search state.

   ĥ reads, for the state's live targets, each insertion expression's
   evaluation cost and each deletion/update expression's eval+apply cost,
   plus every base relation's deletion and update cost.  A state carries
   those inputs in a [table]: one chunk per target ([ins | del | upd], one
   entry per relation of the target, ascending) and one per base relation
   ([del; upd]).  An entry holds nan until it is derived.

   A successor's table is its parent's with the chunks that depend on a
   flipped bit replaced: insertion entries depend on the target's relevance
   mask, deletion and update entries on its locate mask.  The other chunks
   are shared, read-only: a successor at [pos + 1] reads only entries its
   parent read at [pos] (its live targets are a subset of the parent's), or
   entries of a chunk it owns because the flipped bit made that target
   live.  So no chunk is ever written by two states. *)

type table = float array array

type t = {
  prep : prep;
  cid : Config_id.t;
  n_rels : int;
  t_rels : int array array;  (* target -> its relations, ascending *)
  t_bit : int array;  (* target -> universe bit of its view; -1 for the primary *)
  elig_bit : int array;
      (* feature -> universe bit of the candidate view its index needs; -1
         when the feature is always eligible *)
  elig_pos : int array;  (* feature -> prep position of that view; -1 if dropped *)
  gap_off : int array;  (* target -> offset of its insertion gaps *)
  n_gaps : int;
  affected_gaps : int array array;  (* [prep.affected] as gap offsets *)
  ins_dirty : int array array;  (* universe bit -> targets whose ins entries depend on it *)
  loc_dirty : int array array;  (* universe bit -> targets whose del/upd entries depend on it *)
  base_dirty : int array array;  (* universe bit -> bases whose del/upd entries depend on it *)
}

let make cid prep =
  let p = Config_id.problem cid in
  let enc = Config_id.encoding cid in
  let schema = p.Problem.schema in
  let n_rels = Schema.n_relations schema in
  let primary = Schema.all_relations schema in
  let view_bit w = Option.get (Cost.view_feature_bit enc w) in
  let t_rels =
    Array.map (fun e -> Array.of_list (Bitset.elements (Element.rels e))) prep.targets
  in
  let t_bit =
    Array.map
      (function
        | Element.View w when not (Bitset.equal w primary) -> view_bit w
        | Element.View _ | Element.Base _ -> -1)
      prep.targets
  in
  let elig_bit, elig_pos =
    Array.split
      (Array.map
         (function
           | Problem.F_index { Element.ix_elem = Element.View w; _ }
             when not (Bitset.equal w primary) ->
               ( view_bit w,
                 match Hashtbl.find_opt prep.view_pos (Bitset.to_int w) with
                 | Some vp -> vp
                 | None -> -1 )
           | Problem.F_view _ | Problem.F_index _ | Problem.F_compress _ -> (-1, -1))
         prep.features)
  in
  let gap_off = Array.make (Array.length prep.targets) 0 in
  let n_gaps = ref 0 in
  Array.iteri
    (fun ti rels ->
      gap_off.(ti) <- !n_gaps;
      n_gaps := !n_gaps + Array.length rels)
    t_rels;
  let rel_index ti r =
    let rels = t_rels.(ti) in
    let rec find j = if rels.(j) = r then j else find (j + 1) in
    find 0
  in
  let affected_gaps =
    Array.map
      (fun l -> Array.of_list (List.map (fun (ti, r) -> gap_off.(ti) + rel_index ti r) l))
      prep.affected
  in
  let n_bits = Config_id.n_features cid in
  let dirty mask_of elems =
    let acc = Array.make n_bits [] in
    for i = Array.length elems - 1 downto 0 do
      Wmask.iter (fun b -> acc.(b) <- i :: acc.(b)) (mask_of elems.(i))
    done;
    Array.map Array.of_list acc
  in
  let bases = Array.init n_rels (fun r -> Element.Base r) in
  {
    prep;
    cid;
    n_rels;
    t_rels;
    t_bit;
    elig_bit;
    elig_pos;
    gap_off;
    n_gaps = !n_gaps;
    affected_gaps;
    ins_dirty = dirty (Cost.relevance_mask enc) prep.targets;
    loc_dirty = dirty (Cost.locate_mask enc) prep.targets;
    base_dirty = dirty (Cost.locate_mask enc) bases;
  }

let eligible h mask pos k =
  match h.elig_bit.(k) with
  | -1 -> true
  | b -> Wmask.mem b mask || h.elig_pos.(k) >= pos

(* Materialized, or the primary view. *)
let maintained h mask ti =
  let b = h.t_bit.(ti) in
  b < 0 || Wmask.mem b mask

(* Still able to matter at [pos]: maintained, or not yet decided. *)
let alive h mask pos ti =
  let vp = h.prep.target_view_pos.(ti) in
  vp < 0 || vp >= pos || maintained h mask ti

let root h =
  Array.append
    (Array.map (fun rels -> Array.make (3 * Array.length rels) nan) h.t_rels)
    (Array.init h.n_rels (fun _ -> [| nan; nan |]))

let child h ~parent parent_mask mask =
  let changed = Wmask.xor parent_mask mask in
  if Wmask.is_empty changed then parent
  else begin
    let tbl = Array.copy parent in
    let own i = if tbl.(i) == parent.(i) then tbl.(i) <- Array.copy parent.(i) in
    Wmask.iter
      (fun b ->
        Array.iter
          (fun ti ->
            own ti;
            Array.fill tbl.(ti) 0 (Array.length h.t_rels.(ti)) nan)
          h.ins_dirty.(b);
        Array.iter
          (fun ti ->
            own ti;
            let k = Array.length h.t_rels.(ti) in
            Array.fill tbl.(ti) k (2 * k) nan)
          h.loc_dirty.(b);
        Array.iter
          (fun r ->
            let i = Array.length h.t_rels + r in
            own i;
            Array.fill tbl.(i) 0 2 nan)
          h.base_dirty.(b))
      changed;
    tbl
  end

(* Per-domain scratch for the insertion gaps of one estimate. *)
let gaps_key = Domain.DLS.new_key (fun () -> ref [||])

let estimate h tbl mask ~pos =
  let prep = h.prep in
  let n_targets = Array.length h.t_rels in
  let eval = ref None in
  let evaluator () =
    match !eval with
    | Some e -> e
    | None ->
        let e = Config_id.evaluator h.cid mask in
        eval := Some e;
        e
  in
  (* Entry [j] of a target's chunk, derived on first read. *)
  let ins ti j =
    let chunk = tbl.(ti) in
    let v = chunk.(j) in
    if Float.is_nan v then begin
      let v = ins_eval_of (evaluator ()) prep.targets.(ti) h.t_rels.(ti).(j) in
      chunk.(j) <- v;
      v
    end
    else v
  in
  let delupd chunk elem r j k =
    if Float.is_nan chunk.(j) then begin
      let d, u = delupd_of (evaluator ()) elem r in
      chunk.(j) <- d;
      chunk.(j + k) <- u
    end
  in
  let gaps =
    let s = Domain.DLS.get gaps_key in
    if Array.length !s < h.n_gaps then s := Array.make h.n_gaps 0.;
    !s
  in
  Array.fill gaps 0 h.n_gaps 0.;
  (* Gap tables: how far each expression's current cost sits above its
     full-configuration floor — an upper bound on what future features can
     still save on it. *)
  for ti = 0 to n_targets - 1 do
    if alive h mask pos ti then begin
      let rels = h.t_rels.(ti) in
      for j = 0 to Array.length rels - 1 do
        let gap = ins ti j -. prep.full_ins.(ti).(rels.(j)) in
        if gap > 0. then gaps.(h.gap_off.(ti) + j) <- gap
      done
    end
  done;
  (* Bound 1 (per-feature): each remaining feature nets at least
     lb_cost − its capped benefit. *)
  let h1 = ref 0. in
  for k = pos to Array.length prep.features - 1 do
    if eligible h mask pos k then begin
      let benefit = ref prep.key_benefit.(k) in
      let affected = h.affected_gaps.(k) in
      for i = 0 to Array.length affected - 1 do
        benefit := !benefit +. gaps.(affected.(i))
      done;
      let term = prep.lb_cost.(k) -. !benefit in
      if term < 0. then h1 := !h1 +. term
    end
  done;
  (* Bound 2 (per-expression): the cost already counted in g can drop at
     most to its floor, and future features' own maintenance is >= 0. *)
  let h2 = ref 0. in
  for ti = 0 to n_targets - 1 do
    if maintained h mask ti then begin
      let rels = h.t_rels.(ti) and chunk = tbl.(ti) in
      let k = Array.length rels in
      for j = 0 to k - 1 do
        let r = rels.(j) in
        delupd chunk prep.targets.(ti) r (k + j) k;
        let dgap = Float.max 0. (chunk.(k + j) -. prep.full_del.(ti).(r)) in
        let ugap = Float.max 0. (chunk.((2 * k) + j) -. prep.full_upd.(ti).(r)) in
        h2 := !h2 -. gaps.(h.gap_off.(ti) + j) -. dgap -. ugap
      done
    end
  done;
  for r = 0 to h.n_rels - 1 do
    let chunk = tbl.(n_targets + r) in
    delupd chunk (Element.Base r) r 0 1;
    h2 := !h2 -. Float.max 0. (chunk.(0) -. prep.full_base_del.(r));
    h2 := !h2 -. Float.max 0. (chunk.(1) -. prep.full_base_upd.(r))
  done;
  Float.max !h1 !h2

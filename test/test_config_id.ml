(* Tests for the packed configuration encoding (Config_id / Cost.encoding):
   mask <-> feature-list round trips, the bit-operation laws (subset,
   applicability, closure-drop) against the symbolic Config predicates,
   universes wider than one mask word, and bitwise agreement of the
   incremental evaluator with the reference one ([Cost.total_of]). *)

module Bitset = Vis_util.Bitset
module Wmask = Vis_util.Wmask
module Schema = Vis_catalog.Schema
module Config = Vis_costmodel.Config
module Element = Vis_costmodel.Element
module Cost = Vis_costmodel.Cost
module Problem = Vis_core.Problem
module Config_id = Vis_core.Config_id
module Schemas = Vis_workload.Schemas

let checkb = Alcotest.(check bool)

let checki = Alcotest.(check int)

let cid_exn schema = Config_id.of_problem (Problem.make schema)

let same_mask = Option.equal Wmask.equal

(* Masks that decode to *valid* configurations (every index's view chosen)
   exercise the same states the searches visit; unrestricted masks check
   that encode/decode is a pure bijection regardless. *)
let random_mask rng cid =
  let n = Config_id.n_features cid in
  let mask = ref (Config_id.empty cid) in
  for _ = 0 to n do
    let b = Random.State.int rng n in
    if Config_id.applicable cid !mask b then
      mask := Config_id.add cid !mask b
  done;
  !mask

(* ------------------------------------------------------------------ *)
(* Round trips. *)

let test_feature_bit_round_trip () =
  List.iter
    (fun schema ->
      let cid = cid_exn schema in
      let n = Config_id.n_features cid in
      for b = 0 to n - 1 do
        match Config_id.bit_of_feature cid (Config_id.feature cid b) with
        | Some b' -> checki "feature -> bit -> feature" b b'
        | None -> Alcotest.fail "universe feature has no bit"
      done;
      (* The universe is exactly the problem's feature list, in order. *)
      let p = Config_id.problem cid in
      checki "n_features = |features|" (List.length p.Problem.features) n;
      List.iteri
        (fun i f ->
          checkb "features list order" true
            (Problem.equal_feature f (Config_id.feature cid i)))
        p.Problem.features)
    [ Schemas.two_relation (); Schemas.schema1 (); Schemas.schema2 () ]

let test_mask_config_round_trip () =
  let rng = Random.State.make [| 42 |] in
  List.iter
    (fun schema ->
      let cid = cid_exn schema in
      let n = Config_id.n_features cid in
      (* Arbitrary masks: decode then re-encode is the identity. *)
      for _ = 1 to 200 do
        let mask =
          Wmask.of_list n
            (List.filter (fun _ -> Random.State.bool rng) (List.init n Fun.id))
        in
        let config = Config_id.config_of_mask cid mask in
        checkb "mask -> config -> mask" true
          (same_mask (Config_id.mask_of_config cid config) (Some mask))
      done;
      (* Valid walks additionally decode to valid configurations. *)
      let p = Config_id.problem cid in
      for _ = 1 to 50 do
        let mask = random_mask rng cid in
        let config = Config_id.config_of_mask cid mask in
        checkb "walked mask decodes valid" true (Problem.valid_config p config)
      done;
      (* A configuration outside the universe has no mask. *)
      let foreign = Config.add_view Config.empty (Bitset.of_int 0x155555) in
      checkb "foreign view unmappable" true
        (Config_id.mask_of_config cid foreign = None))
    [ Schemas.two_relation (); Schemas.schema1 () ]

(* ------------------------------------------------------------------ *)
(* Bit-operation laws vs the symbolic Config predicates. *)

(* Set-based containment: every view and index of [a] appears in [b]. *)
let config_subset a b =
  List.for_all (fun v -> Config.has_view b v) (Config.views a)
  && List.for_all
       (fun (ix : Element.index) ->
         Config.has_index b ix.Element.ix_elem ix.Element.ix_attr)
       (Config.indexes a)

let test_subset_law () =
  let rng = Random.State.make [| 7 |] in
  List.iter
    (fun schema ->
      let cid = cid_exn schema in
      for _ = 1 to 300 do
        let ma = random_mask rng cid and mb = random_mask rng cid in
        let ca = Config_id.config_of_mask cid ma
        and cb = Config_id.config_of_mask cid mb in
        checkb "subset = set containment" (config_subset ca cb)
          (Config_id.subset ma mb);
        (* Reflexivity and the lattice identities. *)
        checkb "subset reflexive" true (Config_id.subset ma ma);
        checkb "meet below" true (Config_id.subset (Wmask.inter ma mb) ma);
        checkb "below join" true (Config_id.subset ma (Wmask.union ma mb))
      done)
    [ Schemas.two_relation (); Schemas.schema1 (); Schemas.schema2 () ]

let test_has_feature_has_view () =
  let rng = Random.State.make [| 11 |] in
  let schema = Schemas.schema1 () in
  let cid = cid_exn schema in
  let n = Config_id.n_features cid in
  for _ = 1 to 100 do
    let mask = random_mask rng cid in
    let config = Config_id.config_of_mask cid mask in
    for b = 0 to n - 1 do
      let expect =
        match Config_id.feature cid b with
        | Problem.F_view w -> Config.has_view config w
        | Problem.F_index ix ->
            Config.has_index config ix.Element.ix_elem ix.Element.ix_attr
        | Problem.F_compress e -> Config.has_compress config e
      in
      checkb "has_feature = symbolic membership" expect
        (Config_id.has_feature cid mask b);
      match Config_id.feature cid b with
      | Problem.F_view w ->
          checkb "has_view = Config.has_view" (Config.has_view config w)
            (Config_id.has_view cid mask w)
      | Problem.F_index _ | Problem.F_compress _ -> ()
    done
  done

let test_applicable_and_drop_closure () =
  let rng = Random.State.make [| 13 |] in
  List.iter
    (fun schema ->
      let cid = cid_exn schema in
      let p = Config_id.problem cid in
      let n = Config_id.n_features cid in
      for _ = 1 to 100 do
        let mask = random_mask rng cid in
        for b = 0 to n - 1 do
          (* Applicability: adding the feature keeps the config valid. *)
          if Config_id.applicable cid mask b then begin
            let added = Config_id.add cid mask b in
            checkb "add stays valid" true
              (Problem.valid_config p (Config_id.config_of_mask cid added));
            checkb "add contains parent" true (Config_id.subset mask added);
            (* requires(b) is the applicability condition, verbatim. *)
            checkb "requires subset of mask" true
              (Config_id.subset (Config_id.requires cid b) mask)
          end
          else
            checkb "inapplicable = missing requirement" false
              (Config_id.subset (Config_id.requires cid b) mask);
          (* Dropping a feature also drops its closure (a view takes its
             indexes with it), and the result is still valid. *)
          if Config_id.has_feature cid mask b then begin
            let dropped = Config_id.drop cid mask b in
            checkb "drop removes closure" false
              (Wmask.meets dropped (Config_id.closure cid b));
            checkb "drop stays valid" true
              (Problem.valid_config p (Config_id.config_of_mask cid dropped));
            match Config_id.feature cid b with
            | Problem.F_view w ->
                let c' = Config_id.config_of_mask cid dropped in
                checkb "dropped view gone" false (Config.has_view c' w);
                checkb "no orphan indexes" true
                  (Config.indexes_on c' (Element.View w) = [])
            | Problem.F_index _ | Problem.F_compress _ -> ()
          end
        done
      done)
    [ Schemas.two_relation (); Schemas.schema1 () ]

(* ------------------------------------------------------------------ *)
(* A universe wider than one mask word: a 7-relation chain. *)

let test_wide_universe () =
  let p = Problem.make (Schemas.chain ~n:7 ()) in
  let cid = Config_id.of_problem p in
  let n = Config_id.n_features cid in
  let w = Wmask.bits_per_word in
  checkb "more than one word of features" true (n > w);
  checki "universe = feature list" (List.length p.Problem.features) n;
  (* Masks with bits on both sides of the word boundary round-trip. *)
  List.iter
    (fun bits ->
      let mask = Wmask.of_list n bits in
      checkb "boundary mask round-trips" true
        (same_mask
           (Config_id.mask_of_config cid (Config_id.config_of_mask cid mask))
           (Some mask)))
    [ [ w - 1; w ]; [ 0; w - 1; w; n - 1 ]; [ n - 1 ]; List.init n Fun.id ];
  (* A walk of applicable toggles alternating between the two sides of the
     boundary: every delta-costed and from-scratch total equals the
     reference evaluator bitwise. *)
  let rng = Random.State.make [| 23 |] in
  let ie = ref (Config_id.eval cid (Config_id.empty cid)) in
  checkb "empty total = reference" true
    (Cost.ieval_total !ie = Cost.total_of p.Problem.derived Config.empty);
  let spanned = ref false in
  for step = 1 to 80 do
    let b =
      if step mod 2 = 0 then Random.State.int rng w
      else w + Random.State.int rng (n - w)
    in
    let mask = Cost.ieval_mask !ie in
    let mask' =
      if Config_id.has_feature cid mask b then Config_id.drop cid mask b
      else if Config_id.applicable cid mask b then Config_id.add cid mask b
      else mask
    in
    let delta = Config_id.eval_from cid !ie mask' in
    let reference =
      Cost.total_of p.Problem.derived (Config_id.config_of_mask cid mask')
    in
    checkb "delta = reference (bitwise)" true (Cost.ieval_total delta = reference);
    checkb "scratch = reference (bitwise)" true
      (Cost.ieval_total (Config_id.eval cid mask') = reference);
    if Wmask.word mask' 0 <> 0 && Wmask.word mask' 1 <> 0 then spanned := true;
    ie := delta
  done;
  checkb "walk reached both words" true !spanned

(* A local-search seed outside the universe is rejected, not climbed. *)
let test_foreign_seed_rejected () =
  let p = Problem.make (Schemas.schema1 ()) in
  let foreign = Config.add_view Config.empty (Bitset.of_int 0x155555) in
  match Vis_core.Local_search.search ~seed:foreign p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-universe seed accepted"

(* ------------------------------------------------------------------ *)
(* The packed evaluator agrees bitwise with the reference one. *)

let test_fast_vs_slow_totals () =
  let rng = Random.State.make [| 17 |] in
  List.iter
    (fun schema ->
      let cid = cid_exn schema in
      let reference = Cost.total_of (Config_id.problem cid).Problem.derived in
      let prev = ref (Config_id.eval cid (Config_id.empty cid)) in
      checkb "empty total agrees" true
        (Cost.ieval_total !prev = reference Config.empty);
      for _ = 1 to 60 do
        let mask = random_mask rng cid in
        let scratch = Config_id.eval cid mask in
        let delta = Config_id.eval_from cid !prev mask in
        prev := delta;
        let structural = reference (Config_id.config_of_mask cid mask) in
        checkb "scratch = reference (bitwise)" true
          (Cost.ieval_total scratch = structural);
        checkb "delta = reference (bitwise)" true
          (Cost.ieval_total delta = structural);
        checkb "ieval remembers its mask" true
          (Wmask.equal mask (Cost.ieval_mask delta))
      done)
    [ Schemas.two_relation (); Schemas.schema1 (); Schemas.chain ~n:4 () ]

let () =
  Alcotest.run "config_id"
    [
      ( "round trips",
        [
          Alcotest.test_case "feature <-> bit" `Quick
            test_feature_bit_round_trip;
          Alcotest.test_case "mask <-> config" `Quick
            test_mask_config_round_trip;
        ] );
      ( "bit laws",
        [
          Alcotest.test_case "subset vs set containment" `Quick
            test_subset_law;
          Alcotest.test_case "has_feature / has_view" `Quick
            test_has_feature_has_view;
          Alcotest.test_case "applicable / drop closure" `Quick
            test_applicable_and_drop_closure;
        ] );
      ( "wide universe",
        [
          Alcotest.test_case "chain-7 masks and totals" `Quick
            test_wide_universe;
          Alcotest.test_case "foreign seed rejected" `Quick
            test_foreign_seed_rejected;
        ] );
      ( "evaluator agreement",
        [
          Alcotest.test_case "fast = slow, bitwise" `Quick
            test_fast_vs_slow_totals;
        ] );
    ]

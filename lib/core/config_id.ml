module Bitset = Vis_util.Bitset
module Wmask = Vis_util.Wmask
module Element = Vis_costmodel.Element
module Config = Vis_costmodel.Config
module Cost = Vis_costmodel.Cost

type mask = Wmask.t

type t = {
  problem : Problem.t;
  enc : Cost.encoding;
  features : Config.feature array;
  closure : mask array;
      (* closure.(b): every bit that must be dropped together with [b] — the
         bit itself, plus, for a view, the bits of its indexes *)
  owner : int array;
      (* owner.(b): the view bit that must be present for [b] to be
         applicable — set for an index on a candidate view, else -1 *)
}

let of_problem (p : Problem.t) =
  let enc = Option.get p.Problem.encoding in
  let features = Cost.encoding_features enc in
  let n = Array.length features in
  let owner_bit f =
    match f with
    (* Compression only targets always-materialized elements, so like
       base/primary indexes it has no owning view bit. *)
    | Config.F_view _ | Config.F_compress _ -> -1
    | Config.F_index ix -> (
        match ix.Element.ix_elem with
        | Element.Base _ -> -1
        | Element.View w -> (
            match Cost.view_feature_bit enc w with Some b -> b | None -> -1))
  in
  let owner = Array.map owner_bit features in
  let owned = Array.make n [] in
  Array.iteri (fun b vb -> if vb >= 0 then owned.(vb) <- b :: owned.(vb)) owner;
  let closure = Array.init n (fun b -> Wmask.of_list n (b :: owned.(b))) in
  { problem = p; enc; features; closure; owner }

let problem t = t.problem

let encoding t = t.enc

let n_features t = Array.length t.features

let feature t b = t.features.(b)

let bit_of_feature t f = Cost.feature_bit t.enc f

let empty t = Cost.empty_mask t.enc

let mask_of_config t c = Cost.mask_of_config t.enc c

let config_of_mask t m = Cost.config_of_mask t.enc m

let subset = Wmask.subset

let has_feature _t mask b = Wmask.mem b mask

let has_view t mask w =
  match Cost.view_feature_bit t.enc w with
  | Some b -> Wmask.mem b mask
  | None -> false

let applicable t mask b =
  let vb = t.owner.(b) in
  vb < 0 || Wmask.mem vb mask

let add _t mask b = Wmask.add b mask

let drop t mask b = Wmask.diff mask t.closure.(b)

let closure t b = t.closure.(b)

let requires t b =
  let vb = t.owner.(b) in
  if vb < 0 then empty t else Wmask.add vb (empty t)

let evaluator t mask =
  let p = t.problem in
  Cost.create_masked ~cache:(Problem.eval_cache p) p.Problem.derived t.enc mask

let eval t mask =
  let p = t.problem in
  Cost.eval_mask ~cache:(Problem.eval_cache p) p.Problem.derived t.enc mask

let eval_from t parent mask =
  let p = t.problem in
  Cost.eval_delta ~cache:(Problem.eval_cache p) p.Problem.derived parent mask

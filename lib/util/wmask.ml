(* Word [i] holds bits [62·i .. 62·i + 61].  The array is never mutated
   once a function has returned it. *)
type t = int array

let bits_per_word = 62

let empty n =
  if n < 0 then invalid_arg "Wmask.empty: negative width";
  Array.make (max 1 ((n + bits_per_word - 1) / bits_per_word)) 0

let words = Array.length

let word m i = m.(i)

let is_empty m = Array.for_all (fun w -> w = 0) m

let mem b m =
  b >= 0
  &&
  let i = b / bits_per_word in
  i < Array.length m && m.(i) land (1 lsl (b mod bits_per_word)) <> 0

let check b m =
  if b < 0 || b / bits_per_word >= Array.length m then
    invalid_arg (Printf.sprintf "Wmask: bit %d outside the width" b)

let set_bit r b =
  let i = b / bits_per_word in
  r.(i) <- r.(i) lor (1 lsl (b mod bits_per_word))

let add b m =
  check b m;
  let r = Array.copy m in
  set_bit r b;
  r

let of_list n bits =
  let m = empty n in
  List.iter
    (fun b ->
      check b m;
      set_bit m b)
    bits;
  m

let same_width a b =
  if Array.length a <> Array.length b then
    invalid_arg "Wmask: operands of different widths"

let map2 f a b =
  same_width a b;
  Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let union = map2 ( lor )

let inter = map2 ( land )

let diff = map2 (fun x y -> x land lnot y)

let xor = map2 ( lxor )

let meets a b =
  same_width a b;
  let rec go i = i < Array.length a && (a.(i) land b.(i) <> 0 || go (i + 1)) in
  go 0

let subset a b =
  same_width a b;
  let rec go i =
    i >= Array.length a || (a.(i) land lnot b.(i) = 0 && go (i + 1))
  in
  go 0

let equal (a : t) b = a = b

let iter f m =
  Array.iteri
    (fun i w ->
      let w = ref w and b = ref (i * bits_per_word) in
      while !w <> 0 do
        if !w land 1 <> 0 then f !b;
        w := !w lsr 1;
        incr b
      done)
    m

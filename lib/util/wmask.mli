(** Fixed-width multi-word bit masks: sets of integers [0 .. 62·w − 1]
    packed 62 bits per word into [w] words.

    The width is fixed when a mask is created ({!empty}, {!of_list}) and
    every mask derived from it keeps it, so one universe of numbered
    features uses one width throughout.  Binary operations require operands
    of the same width.  Masks are immutable: {!add} and the set operations
    return fresh masks.  Every word is a non-negative [int] (bit 62 is never
    used), so a word can stand in wherever a single-word mask could. *)

type t

(** Bits stored per word: 62. *)
val bits_per_word : int

(** [empty n] is the empty mask wide enough for bits [0 .. n-1] (at least
    one word).  Raises [Invalid_argument] when [n < 0]. *)
val empty : int -> t

(** [of_list n bits] is [empty n] with [bits] set. *)
val of_list : int -> int list -> t

(** Number of words. *)
val words : t -> int

(** [word m i] is word [i] of [m]: bits [62·i .. 62·i + 61], as a
    non-negative [int]. *)
val word : t -> int -> int

val is_empty : t -> bool

(** [mem b m]: is bit [b] set?  False for any [b] outside the width. *)
val mem : int -> t -> bool

(** [add b m] sets bit [b].  Raises [Invalid_argument] outside the width. *)
val add : int -> t -> t

val union : t -> t -> t

val inter : t -> t -> t

(** [diff a b] is the bits of [a] not in [b]. *)
val diff : t -> t -> t

(** Symmetric difference: the bits set in exactly one operand. *)
val xor : t -> t -> t

(** [meets a b]: do [a] and [b] share a bit?  Allocates nothing. *)
val meets : t -> t -> bool

(** [subset a b]: is every bit of [a] set in [b]?  Allocates nothing. *)
val subset : t -> t -> bool

val equal : t -> t -> bool

(** [iter f m] applies [f] to the set bits in increasing order. *)
val iter : (int -> unit) -> t -> unit

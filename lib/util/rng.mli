(** Deterministic PRNG (splitmix64).

    All randomness in the simulator flows from a single experiment seed
    through [create]/[derive], making every execution reproducible.  The
    draws [bits], [int], [bool] and [derive_into] allocate nothing. *)

type t

(** [create seed] returns a fresh generator determined by [seed]. *)
val create : int -> t

(** [derive t label] returns a generator determined by [t]'s current state
    and [label], without advancing [t].  Used to give process [label] its own
    stream. *)
val derive : t -> int -> t

(** [derive_into dst ~parent label] resets [dst] to the exact state
    [derive parent label] would return, without allocating.  [parent] is not
    advanced. *)
val derive_into : t -> parent:t -> int -> unit

(** [int t bound] is uniform in [\[0, bound)]. Raises on [bound <= 0]. *)
val int : t -> int -> int

(** [float t] is uniform in [\[0, 1)]. *)
val float : t -> float

(** [bool t p] is [true] with probability [p]. *)
val bool : t -> float -> bool

(** Non-negative pseudo-random bits (62 of them). *)
val bits : t -> int

(** [skip t k] advances [t] exactly as [k] draws would, in O(1): after
    it, [t] is in the state [k] calls of {!bits} (or of {!int}, {!float}
    or {!bool}, one draw each) would leave.  Raises [Invalid_argument] if
    [k < 0]. *)
val skip : t -> int -> unit

(** Fisher-Yates shuffle. *)
val shuffle_in_place : t -> 'a array -> unit

(** [permutation t n] is a uniform permutation of [0..n-1]. *)
val permutation : t -> int -> int array

(** Uniform element of a non-empty array. *)
val choose : t -> 'a array -> 'a

(** [geometric t p] is the number of Bernoulli([p]) trials up to and
    including the first success (support [1, 2, ...]). *)
val geometric : t -> float -> int

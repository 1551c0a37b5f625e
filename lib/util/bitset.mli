(** Dense mutable bitsets over [0, capacity).

    The word storage is an off-heap [Bigarray] of native ints: the GC
    never scans or moves it, so large row caches and kernel accumulators
    cost nothing at collection time.  Each word still holds
    [bits_per_word] (= [Sys.int_size]) usable bits. *)

type t

val create : int -> t
val capacity : t -> int
val add : t -> int -> unit

(** [add_run t ~mask a lo hi] adds [a.(i) land mask] ([mask] defaults
    to every bit) for every [i] in [lo, hi), in any order and with
    repeats, gathering the bits bound for one word before writing it:
    the same set as one {!add} per id, at one write per word on
    ascending ids.  An out-of-range id raises as {!add} does, leaving
    the ids before it added; a slice outside [a] raises
    [Invalid_argument]. *)
val add_run : t -> ?mask:int -> int array -> int -> int -> unit

val remove : t -> int -> unit
val mem : t -> int -> bool
val clear : t -> unit
val copy : t -> t
val cardinal : t -> int
val is_empty : t -> bool

(** Iterate members in increasing order. *)
val iter : (int -> unit) -> t -> unit

(** [iter_inter f a b] iterates the members of [a ∧ b] in increasing
    order without materialising the intersection; capacities must
    match. *)
val iter_inter : (int -> unit) -> t -> t -> unit

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** Members in increasing order. *)
val to_list : t -> int list

val of_list : int -> int list -> t

(** In-place union/intersection/difference; capacities must match. *)
val union_into : into:t -> t -> unit

val inter_into : into:t -> t -> unit
val diff_into : into:t -> t -> unit

(** Two-accumulator saturating add: [acc2_or_into ~once ~twice src]
    folds [src] into the pair so that after feeding any multiset of
    sets, [once] holds the elements present in at least one of them and
    [twice] those present in at least two.  The word-level update is
    [twice |= once ∧ src; once |= src] — commutative and associative,
    so feed order is irrelevant.  This is the delivery kernel's
    collision rule: receives = once ∧ ¬twice, collisions = twice. *)
val acc2_or_into : once:t -> twice:t -> t -> unit

(** Single-element version of {!acc2_or_into} (for gray-edge senders
    that contribute one receiver at a time). *)
val acc2_add : once:t -> twice:t -> int -> unit

(** [acc2_merge_into ~once ~twice ~src_once ~src_twice] folds one
    accumulator pair into another: afterwards [(once, twice)] describes
    the union of the two contribution multisets.  Because the pair is a
    pure function of the contribution multiset, feeding disjoint shards
    into private pairs and merging them — in any order — is byte-identical
    to a single sequential pass. *)
val acc2_merge_into : once:t -> twice:t -> src_once:t -> src_twice:t -> unit

(** Word-level view for kernels: the set is [word_count] words of
    [bits_per_word] bits.  [set_word] masks off bits at index
    [>= capacity] in the top word, preserving the representation
    invariant. *)
val bits_per_word : int

(** Population count of one word (for delivery/coverage counts over
    {!get_word} loops). *)
val popcount_word : int -> int

val word_count : t -> int
val get_word : t -> int -> int
val set_word : t -> int -> int -> unit

(** Index of the lowest set bit of a nonzero word (for manual word-level
    iteration: [w land (w - 1)] strips it). *)
val lowest_bit : int -> int

(** [diff a b] is a fresh set [a \ b]. *)
val diff : t -> t -> t

val equal : t -> t -> bool

(** [subset a b] iff every member of [a] is in [b]. *)
val subset : t -> t -> bool

val pp : Format.formatter -> t -> unit

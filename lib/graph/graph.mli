(** Immutable undirected graphs over nodes [0, n). *)

type t

(** [of_edges n edges] builds a graph; duplicate edges are collapsed,
    self-loops and out-of-range endpoints rejected. *)
val of_edges : int -> (int * int) list -> t

(** [of_packed n keys] builds a graph from edges encoded as strictly
    ascending [u * n + v] keys with [u < v], for builders that already
    hold canonicalised sorted edges.  Raises [Invalid_argument] on
    malformed or out-of-order keys. *)
val of_packed : int -> int array -> t

(** Like {!of_packed} but the keys may come in any order and repeat;
    duplicates are collapsed.  The input array is left unchanged, and
    nothing proportional to its length is allocated beyond the graph's
    own adjacency.  Raises [Invalid_argument] on a malformed key. *)
val of_packed_unsorted : int -> int array -> t

val n : t -> int
val edge_count : t -> int

(** Sorted adjacency of a node, as a freshly-allocated array (the CSR
    backing store is shared).  Hot paths should use {!iter_neighbors}. *)
val neighbors : t -> int -> int array

(** [iter_neighbors f t v] visits [v]'s neighbors in increasing order
    without allocating. *)
val iter_neighbors : (int -> unit) -> t -> int -> unit

(** Read-only CSR access, for per-round walks that must not build a
    closure: the neighbours of [v] are [nbr_at t i] for [i] from
    [row_lo t v] to [row_hi t v - 1], in increasing order. *)
val row_lo : t -> int -> int

val row_hi : t -> int -> int
val nbr_at : t -> int -> int
val degree : t -> int -> int

(** Memoised at construction — O(1). *)
val max_degree : t -> int

val mem_edge : t -> int -> int -> bool

(** [add_row t v b] adds [v]'s neighbours to [b] (capacity [n t]),
    one word write per word the row touches. *)
val add_row : t -> int -> Rn_util.Bitset.t -> unit

(** Bitset view of every node's adjacency, for word-parallel kernels:
    row [v] holds [v]'s neighbours.  The row cache is built lazily on
    first use (so sparse workloads never pay its memory) and published
    atomically, making it safe to share one graph across Pool domains.
    Do not mutate the result. *)
val adj_rows : t -> Rn_util.Bitset.t array

(** All edges with [u < v], lexicographic order. *)
val edges : t -> (int * int) list

val iter_edges : (int -> int -> unit) -> t -> unit
val fold_nodes : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** Edge-union of two graphs on the same node set. *)
val union : t -> t -> t

(** [is_subgraph a b] iff every edge of [a] is in [b] (and sizes match). *)
val is_subgraph : t -> t -> bool

(** Subgraph keeping only edges between nodes satisfying the predicate. *)
val induced : t -> (int -> bool) -> t

val pp : Format.formatter -> t -> unit

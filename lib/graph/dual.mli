(** The dual graph network [(G, G')] of the paper: reliable links [G] plus
    gray (unreliable) links [E' \ E] the adversary controls per round. *)

type t

(** [make ~g ~gray ()] builds a dual graph from the reliable graph and the
    gray edge list (deduplicated; edges already in [g] dropped).  With
    [?pos], validates the geometric constraints: unit-distance pairs are in
    [E] and every [G'] edge has length at most [d] (default [2.0]). *)
val make :
  ?pos:Rn_geom.Point.t array -> ?d:float -> g:Graph.t -> gray:(int * int) list -> unit -> t

(** Allocation-lean construction from already-canonical gray keys:
    strictly ascending packed [u * n + v] with [u < v], disjoint from
    [g]'s edges (validated).  Same geometric validation as {!make}, done
    edge-by-edge so [g'] is never materialised. *)
val make_packed :
  ?pos:Rn_geom.Point.t array -> ?d:float -> g:Graph.t -> gray_pk:int array -> unit -> t

(** Classic radio model: [G = G'] (no gray edges). *)
val classic : Graph.t -> t

(** Demote reliable edges to gray (the Section 8 "link degrades" event);
    [G'] is unchanged, the embedding is dropped.  Raises if an edge is not
    currently reliable. *)
val demote_edges : t -> (int * int) list -> t

val g : t -> Graph.t

(** [E' = E ∪ gray], materialised lazily on first use (the delivery
    engine never needs it; verification passes do). *)
val g' : t -> Graph.t

val n : t -> int

(** Gray edges, canonically ordered, densely indexed by position, as a
    freshly-allocated tuple array.  Hot paths should use the packed
    accessors {!gray_u}/{!gray_v}/{!gray_other} instead. *)
val gray_edges : t -> (int * int) array

val gray_count : t -> int

(** Endpoints of a gray edge by dense id, [gray_u t id < gray_v t id]. *)
val gray_u : t -> int -> int

val gray_v : t -> int -> int

(** [gray_other t id v] is the endpoint of gray edge [id] that is not
    [v] (one of whose endpoints [v] must be). *)
val gray_other : t -> int -> int -> int

(** Gray incidence of a node: [(neighbor, gray_edge_id)] pairs, as a
    freshly-allocated array.  Hot paths should use {!iter_gray_adj}. *)
val gray_adj : t -> int -> (int * int) array

(** [iter_gray_adj f t v] calls [f neighbor edge_id] for each gray edge
    incident to [v], in descending edge-id order — the order adversary
    policies consume RNG draws in.  No allocation, no division: each
    incidence entry packs the id above the neighbour. *)
val iter_gray_adj : (int -> int -> unit) -> t -> int -> unit

val gray_degree : t -> int -> int

(** Read-only incidence access, for per-round walks that must not build
    a closure: [v]'s gray incidence is entries [i] from [gray_lo t v] to
    [gray_hi t v - 1], in the order of {!iter_gray_adj}; entry [i]
    joins [v] to [gray_nbr_at t i] by gray edge [gray_id_at t i]. *)
val gray_lo : t -> int -> int

val gray_hi : t -> int -> int
val gray_nbr_at : t -> int -> int
val gray_id_at : t -> int -> int

(** Gray incidence of every node as a bitset over gray edge ids, freshly
    built on each call: bit [id] of row [v] is set iff gray edge [id]
    touches [v].  Costs O(n * gray) bits, so it is meant for replays and
    tests; the delivery engine walks {!iter_gray_adj} instead. *)
val gray_masks : t -> Rn_util.Bitset.t array

(** [incidence_shift ~n ~ng] is the bit width of [n - 1]: the field that
    holds the neighbour in each packed incidence entry
    [(id lsl shift) lor neighbour] of a dual graph with [n] nodes and
    [ng] gray edges.  Raises [Invalid_argument] when the largest id
    [ng - 1] would not fit above it; {!make_packed} applies this check. *)
val incidence_shift : n:int -> ng:int -> int

(** [reach_rows t] is one bitset row over nodes per node: row [v] holds
    N_G'(v), [v]'s reliable and gray neighbours.  The delivery kernel
    ORs it in for a broadcaster on a round in which every gray edge
    incident to a broadcaster is active.  Built from [g]'s CSR rows and
    the gray incidence on first use (O(n^2 / word) bits, forcing neither
    {!g'} nor [Graph.adj_rows]) and published atomically, so it is safe
    to share across domains. *)
val reach_rows : t -> Rn_util.Bitset.t array

val positions : t -> Rn_geom.Point.t array option

(** The paper's constant [d]: maximum length of a [G'] edge. *)
val d : t -> float

(** Both memoised at graph construction — O(1). *)
val max_degree_g : t -> int

val max_degree_g' : t -> int
val pp : Format.formatter -> t -> unit

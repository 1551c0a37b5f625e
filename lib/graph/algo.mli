(** BFS, connectivity and path utilities over {!Graph.t}. *)

(** Distance value for unreachable nodes. *)
val unreachable : int

(** Hop distances from a source ([unreachable] where no path). *)
val bfs_dist : Graph.t -> int -> int array

val is_connected : Graph.t -> bool

(** Is the subgraph induced by the listed nodes connected?  Vacuously true
    for empty/singleton lists. *)
val is_connected_subset : Graph.t -> int list -> bool

val connected_components : Graph.t -> int

(** Exact diameter (all-sources BFS). Raises on disconnected graphs. *)
val diameter : Graph.t -> int

val eccentricity : Graph.t -> int -> int

(** Nodes within [h] hops of [src], excluding [src]. *)
val within_hops : Graph.t -> int -> int -> int list

(** A shortest path as [src ... dst], or [None] if disconnected. *)
val shortest_path : Graph.t -> int -> int -> int list option

val is_independent_set : Graph.t -> int list -> bool

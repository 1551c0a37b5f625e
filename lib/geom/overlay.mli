(** The hexagonal-lattice disk overlay of Section 4 of the paper.

    Disks of radius 1/2 centred on a triangular lattice cover the plane;
    the proofs bound contention via [I_r], the maximum number of overlay
    disks intersecting any disk of radius [r] (Fact 4.1: constant for
    constant [r]). *)

(** Nearest-neighbour spacing of the lattice ([sqrt 3 /. 2]). *)
val pitch : float

(** Centre of the lattice disk with integer coordinates [(i, j)]. *)
val center : int -> int -> Point.t

(** The overlay disk covering a point: index of the nearest lattice
    centre. *)
val disk_of_point : Point.t -> int * int

(** Sanity predicate: the covering disk's centre is within [radius]. *)
val covered : Point.t -> bool

(** Lattice centres within a given distance of a point. *)
val centers_within : Point.t -> float -> (int * int) list

(** [i_r r] computes the paper's [I_r] by enumeration over a fundamental
    domain sampled on a [samples × samples] grid (default 24). *)
val i_r : ?samples:int -> float -> int

(** Memoised [i_r] with default sampling. *)
val i_r_cached : float -> int

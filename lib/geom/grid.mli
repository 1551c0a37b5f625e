(** Uniform hash-grid over a point set: O(n)-expected enumeration of all
    pairs within a fixed radius, replacing O(n²) pairwise scans in world
    construction. *)

(** The points in cell order, as flat arrays.  Cells are square, of the
    side given to {!build}, numbered row-major (cell [(cx, cy)] is
    [cy * cols + cx]); the points of cell [c] occupy slots [start.(c)] to
    [start.(c + 1) - 1], in ascending point index.  Slot [k] holds point
    [ids.(k)] at [(xs.(k), ys.(k))], the very floats of its [Point.t].
    Point [i] lies in cell [(col.(i), row.(i))], at slot [slot.(i)].
    Every pair at distance at most the cell side lies in the same or
    adjacent cells, so a point's partners within that distance are found
    in its 3x3 block, whose three grid rows are three contiguous slot
    ranges. *)
type t = private {
  cols : int;
  rows : int;
  start : int array;
  ids : int array;
  xs : float array;
  ys : float array;
  col : int array;
  row : int array;
  slot : int array;
}

(** [build ~cell pos] buckets the points into square cells of side
    [cell].  Raises [Invalid_argument] unless [cell > 0] and finite. *)
val build : cell:float -> Point.t array -> t

(** [adjacent grid u v] iff points [u] and [v] lie in the same or
    adjacent cells (diagonals included): the pairs {!count_pairs} sees. *)
val adjacent : t -> int -> int -> bool

(** [count_pairs grid r1 r2] takes every unordered pair of points in the
    same or adjacent cells once — a superset of all pairs at distance at
    most the cell side — and returns how many lie at distance [<= r1],
    and how many at distance in [(r1, r2\]].  The distance is
    [Point.dist] of the two points, bit for bit. *)
val count_pairs : t -> float -> float -> int * int

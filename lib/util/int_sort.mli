(** In-place sorting of [int] arrays, specialised to ints (no closure
    call per comparison), for adjacency rows and broadcaster ids.

    Both functions sort ascending and allocate nothing; {!sort} leaves
    an already-ascending array untouched after one scan.  Equal ints
    are indistinguishable, so the result equals that of any other
    correct sort. *)

(** Introsort: insertion sort on short runs, median-of-3 quicksort,
    heapsort past a depth limit — O(len log len) in the worst case. *)
val sort : int array -> unit

(** [sort_range a lo hi] sorts the slice [a.(lo) .. a.(hi - 1)] in place
    with the same introsort, leaving the rest of [a] untouched. *)
val sort_range : int array -> int -> int -> unit

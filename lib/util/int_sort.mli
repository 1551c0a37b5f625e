(** In-place sorting of [int] arrays, specialised to ints (no closure
    call per comparison), for packed edge keys and broadcaster ids.

    All three functions sort ascending; {!sort} and {!packed} leave an
    already-ascending array untouched after one scan.  None allocates
    scratch proportional to the array: {!sort} and {!sort_range}
    allocate nothing, {!packed} at most O(n) counters.  Equal ints are
    indistinguishable, so the result equals that of any other correct
    sort. *)

(** Introsort: insertion sort on short runs, median-of-3 quicksort,
    heapsort past a depth limit — O(len log len) in the worst case. *)
val sort : int array -> unit

(** [sort_range a lo hi] sorts the slice [a.(lo) .. a.(hi - 1)] in place
    with the same introsort, leaving the rest of [a] untouched. *)
val sort_range : int array -> int -> int -> unit

(** [packed ~n keys] sorts keys of the form [u * n + v] with
    [0 <= u, v < n] (every key in [0, n²)) in O(len + n) plus the
    in-bucket sorts: one counting pass on [u] fills n + 1 counters, an
    American-flag cycle permutation moves each key into its [u] bucket,
    and each bucket is sorted by {!sort}'s introsort.  Short arrays, and
    arrays with fewer keys than buckets, go to {!sort} directly.
    Raises [Invalid_argument] (leaving [keys] unchanged) if a key is out
    of range, which includes any key when [n <= 0]. *)
val packed : n:int -> int array -> unit

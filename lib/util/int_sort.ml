(* In-place int sorting for adjacency rows and broadcaster ids.

   World construction sorts the rows of graphs with millions of edges
   ([Graph]'s builder sorts each row that is not already ascending) and
   the geometric generator sorts each node's batch of partners, where a
   closure call per comparison ([Array.sort]) would dominate the build.
   Here every comparison is an inline int compare and nothing is
   allocated.

   The index arithmetic below stays inside [0, length) by construction
   (the partition says why), hence the unsafe accesses. *)

(* Runs at most this long are insertion-sorted. *)
let small = 24

let insertion (a : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let x = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= lo && Array.unsafe_get a !j > x do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) x
  done

(* Sift [x] down from slot [i] of the max-heap a.(lo .. lo + len - 1). *)
let rec sift (a : int array) lo len i x =
  let l = (2 * i) + 1 in
  if l >= len then Array.unsafe_set a (lo + i) x
  else begin
    let c =
      if l + 1 < len && Array.unsafe_get a (lo + l + 1) > Array.unsafe_get a (lo + l) then l + 1
      else l
    in
    let y = Array.unsafe_get a (lo + c) in
    if y > x then begin
      Array.unsafe_set a (lo + i) y;
      sift a lo len c x
    end
    else Array.unsafe_set a (lo + i) x
  end

let heapsort (a : int array) lo hi =
  let len = hi - lo in
  for i = (len / 2) - 1 downto 0 do
    sift a lo len i (Array.unsafe_get a (lo + i))
  done;
  for k = len - 1 downto 1 do
    let x = Array.unsafe_get a (lo + k) in
    Array.unsafe_set a (lo + k) (Array.unsafe_get a lo);
    sift a lo k 0 x
  done

(* Quicksort on a.(lo .. hi - 1) with a median-of-3 pivot; past [depth]
   levels the range goes to heapsort, which bounds the worst case. *)
let rec intro (a : int array) lo hi depth =
  if hi - lo <= small then insertion a lo hi
  else if depth = 0 then heapsort a lo hi
  else begin
    let x = Array.unsafe_get a lo
    and y = Array.unsafe_get a (lo + ((hi - lo) / 2))
    and z = Array.unsafe_get a (hi - 1) in
    let p =
      if x < y then if y < z then y else if x < z then z else x
      else if x < z then x
      else if y < z then z
      else y
    in
    (* Hoare partition.  The pivot value sits in the range, so the first
       scans stop inside it; after each swap the swapped pair bounds the
       next scans, so [i] and [j] never leave [lo, hi). *)
    let i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while Array.unsafe_get a !i < p do
        incr i
      done;
      while Array.unsafe_get a !j > p do
        decr j
      done;
      if !i <= !j then begin
        let t = Array.unsafe_get a !i in
        Array.unsafe_set a !i (Array.unsafe_get a !j);
        Array.unsafe_set a !j t;
        incr i;
        decr j
      end
    done;
    intro a lo (!j + 1) (depth - 1);
    intro a !i hi (depth - 1)
  end

let sort_slice a lo hi = if hi - lo > 1 then intro a lo hi (2 * Ilog.floor_log2 (hi - lo))

let sort_range a lo hi =
  if lo < 0 || hi > Array.length a || lo > hi then invalid_arg "Int_sort.sort_range";
  sort_slice a lo hi

let ascending (a : int array) =
  let len = Array.length a in
  let i = ref 1 in
  while !i < len && Array.unsafe_get a (!i - 1) <= Array.unsafe_get a !i do
    incr i
  done;
  !i >= len

let sort a = if not (ascending a) then sort_slice a 0 (Array.length a)

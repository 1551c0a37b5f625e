(* In-place int sorting for packed edge keys and broadcaster ids.

   World construction sorts millions of packed [u * n + v] keys, where
   a closure call per comparison ([Array.sort]) dominates the build.
   Here every comparison is an inline int compare, and packed keys are
   first distributed into their [u] buckets by a counting pass and an
   American-flag cycle permutation, so the comparison sorts only ever
   see one bucket (a node's neighbours, ~degree keys).  Everything is
   in place: the only allocation is the n + 1 bucket starts and n fill
   pointers of [packed], never scratch the size of the key array, which
   would show in peak RSS at scale.

   The index arithmetic below stays inside [0, length) by construction
   (the partition and the bucket pass say why), hence the unsafe
   accesses. *)

(* Runs at most this long are insertion-sorted. *)
let small = 24

(* Packed arrays shorter than this skip the bucket pass. *)
let counting_min = 256

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

let packed ~n (a : int array) =
  let len = Array.length a in
  (* Largest legal key: n² - 1, or max_int when n² does not fit. *)
  let last = if n <= 0 then -1 else if n > max_int / n then max_int else (n * n) - 1 in
  let sorted = ref true in
  for i = 0 to len - 1 do
    let k = Array.unsafe_get a i in
    if k < 0 || k > last then invalid_arg "Int_sort.packed: key out of range";
    if i > 0 && Array.unsafe_get a (i - 1) > k then sorted := false
  done;
  if !sorted then ()
  else if len < counting_min || n > len then sort_slice a 0 len
  else begin
    (* Every key is in [0, n²), so each bucket index [k / n] is in [0, n). *)
    let start = Array.make (n + 1) 0 in
    for i = 0 to len - 1 do
      let b = (Array.unsafe_get a i / n) + 1 in
      Array.unsafe_set start b (Array.unsafe_get start b + 1)
    done;
    for b = 1 to n do
      start.(b) <- start.(b) + start.(b - 1)
    done;
    (* [next.(b)] is the first slot of bucket b not yet holding one of
       its keys.  A key in hand always has a free slot left in its
       bucket (the bucket is sized to its key count), and the cycle
       closes when it picks up a key of bucket [u] itself. *)
    let next = Array.sub start 0 n in
    for u = 0 to n - 1 do
      let stop = Array.unsafe_get start (u + 1) in
      while Array.unsafe_get next u < stop do
        let x = ref (Array.unsafe_get a (Array.unsafe_get next u)) in
        let d = ref (!x / n) in
        while !d <> u do
          let j = Array.unsafe_get next !d in
          Array.unsafe_set next !d (j + 1);
          let y = Array.unsafe_get a j in
          Array.unsafe_set a j !x;
          x := y;
          d := y / n
        done;
        let j = Array.unsafe_get next u in
        Array.unsafe_set a j !x;
        Array.unsafe_set next u (j + 1)
      done;
      (* Bucket u is complete and no later cycle touches it. *)
      sort_slice a (Array.unsafe_get start u) stop
    done
  end

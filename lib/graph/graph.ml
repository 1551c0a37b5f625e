(* Immutable undirected graphs over nodes [0, n).

   Adjacency is stored in CSR form: one flat [nbr] array of length 2m
   holding every row back-to-back (sorted within each row), indexed by an
   [off] array of n+1 offsets.  Compared to an array-of-arrays this
   drops n header words and n pointers — at a million nodes that is the
   difference between the graph fitting comfortably in memory and the GC
   chasing a million tiny arrays — and iteration over a row is a plain
   int-array scan either way.

   Builders hand in packed [u * n + v] edge keys in any order.  They are
   sorted by [Rn_util.Int_sort.packed] in O(len + n): a counting pass
   and an in-place cycle permutation bucket the keys by [u], and each
   bucket (one node's ~degree keys) is sorted by an int introsort.  No
   scratch the size of the key array is allocated, so the sort adds
   only O(n) counters to peak memory.

   [rows] is a lazily-built bitset view of the same adjacency (one
   Bitset per node), used by the engine's word-parallel delivery kernel
   on dense rounds.  It is built at most once, on first use, so sparse
   workloads never pay its O(n^2 / word_size) memory; publication goes
   through an [Atomic] so the cache is safe to share across Pool
   domains (an atomic read sees either nothing or a fully-built
   cache). *)

module Bitset = Rn_util.Bitset

type t = {
  n : int;
  off : int array; (* n + 1 row offsets into [nbr] *)
  nbr : int array; (* length 2m; sorted within each row *)
  m : int;
  maxdeg : int; (* memoised: max degree is read in per-round paths *)
  rows : Bitset.t array option Atomic.t;
}

let n t = t.n
let edge_count t = t.m

let make ~n ~off ~nbr ~m =
  let maxdeg = ref 0 in
  for v = 0 to n - 1 do
    maxdeg := max !maxdeg (off.(v + 1) - off.(v))
  done;
  { n; off; nbr; m; maxdeg = !maxdeg; rows = Atomic.make None }

(* The build lock is module-wide: row builds are rare (once per graph
   that ever sees a dense round) and the double-check under the lock
   keeps concurrent first uses from building twice. *)
let rows_lock = Mutex.create ()

let adj_rows t =
  match Atomic.get t.rows with
  | Some r -> r
  | None ->
    Mutex.protect rows_lock (fun () ->
        match Atomic.get t.rows with
        | Some r -> r
        | None ->
          let r =
            Array.init t.n (fun v ->
                let b = Bitset.create t.n in
                for i = t.off.(v) to t.off.(v + 1) - 1 do
                  Bitset.add b t.nbr.(i)
                done;
                b)
          in
          Atomic.set t.rows (Some r);
          r)

let check_node t v =
  if v < 0 || v >= t.n then invalid_arg "Graph: node out of range"

(* Build from strictly-ascending packed keys (u * n + v, u < v), the
   first [m] entries of [packed].  Filling adjacency in sorted-edge
   order yields already-sorted rows: for node w, all (y, w) edges
   precede all (w, x) ones, and within each group the partner ascends
   (y < w < x), so no per-node sort is needed. *)
let build_packed n packed m =
  let off = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    let u = packed.(i) / n and v = packed.(i) mod n in
    off.(u + 1) <- off.(u + 1) + 1;
    off.(v + 1) <- off.(v + 1) + 1
  done;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  let nbr = Array.make (2 * m) 0 in
  let fill = Array.copy off in
  for i = 0 to m - 1 do
    let u = packed.(i) / n and v = packed.(i) mod n in
    nbr.(fill.(u)) <- v;
    fill.(u) <- fill.(u) + 1;
    nbr.(fill.(v)) <- u;
    fill.(v) <- fill.(v) + 1
  done;
  make ~n ~off ~nbr ~m

let check_packable n = if n > 0x3FFF_FFFF then invalid_arg "Graph: n too large to pack edges"

(* A canonical key [u * n + v] has [0 <= u < v < n]; with [n = 0] no key
   is canonical (and none may be divided by n). *)
let canonical n e = n > 0 && e >= 0 && e / n < e mod n

let of_packed n packed =
  if n < 0 then invalid_arg "Graph.of_packed: negative n";
  check_packable n;
  let m = Array.length packed in
  for i = 0 to m - 1 do
    let e = packed.(i) in
    if not (canonical n e) then invalid_arg "Graph.of_packed: bad key";
    if i > 0 && packed.(i - 1) >= e then invalid_arg "Graph.of_packed: keys not ascending"
  done;
  build_packed n packed m

(* Sort-dedup-build from an unvalidated packed key array; mutates
   [packed] in place (the builders that use this hold a scratch buffer
   anyway).  This is the memory-lean construction path: no tuple list,
   no intermediate copies beyond the caller's buffer. *)
let of_packed_unsorted n packed =
  if n < 0 then invalid_arg "Graph.of_packed_unsorted: negative n";
  check_packable n;
  let len = Array.length packed in
  for i = 0 to len - 1 do
    if not (canonical n packed.(i)) then invalid_arg "Graph.of_packed_unsorted: bad key"
  done;
  Rn_util.Int_sort.packed ~n packed;
  let m = ref 0 in
  for i = 0 to len - 1 do
    let e = packed.(i) in
    if i = 0 || packed.(i - 1) <> e then begin
      packed.(!m) <- e;
      incr m
    end
  done;
  build_packed n packed !m

(* Edges are canonicalised as packed ints and go through
   [of_packed_unsorted]: sorting an unboxed int array is far faster than
   [List.sort_uniq] on tuples, and input that is already sorted (e.g.
   re-building from [edges t]) costs one scan, not a sort. *)
let of_edges n edges =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  check_packable n;
  let packed =
    Array.of_list
      (List.map
         (fun (u, v) ->
           if u = v then invalid_arg "Graph.of_edges: self loop";
           if u < 0 || u >= n || v < 0 || v >= n then
             invalid_arg "Graph.of_edges: endpoint out of range";
           if u < v then (u * n) + v else (v * n) + u)
         edges)
  in
  of_packed_unsorted n packed

let degree t v =
  check_node t v;
  t.off.(v + 1) - t.off.(v)

(* Allocates a fresh copy of the row (the CSR store is shared); hot
   paths should use [iter_neighbors] instead. *)
let neighbors t v =
  check_node t v;
  Array.sub t.nbr t.off.(v) (t.off.(v + 1) - t.off.(v))

(* Visit a node's neighbors in increasing order, no allocation. *)
let iter_neighbors f t v =
  check_node t v;
  for i = t.off.(v) to t.off.(v + 1) - 1 do
    f (Array.unsafe_get t.nbr i)
  done

(* Read-only CSR access for closure-free walks: the neighbours of [v]
   are [nbr_at t i] for [i] in [row_lo t v, row_hi t v), increasing. *)
let row_lo t v = t.off.(v)
let row_hi t v = t.off.(v + 1)
let nbr_at t i = t.nbr.(i)

let max_degree t = t.maxdeg

let mem_edge t u v =
  check_node t u;
  check_node t v;
  (* Binary search in the sorted CSR row. *)
  let rec bs lo hi =
    if lo >= hi then false
    else begin
      let mid = (lo + hi) / 2 in
      if t.nbr.(mid) = v then true
      else if t.nbr.(mid) < v then bs (mid + 1) hi
      else bs lo mid
    end
  in
  bs t.off.(u) t.off.(u + 1)

let edges t =
  let acc = ref [] in
  for u = t.n - 1 downto 0 do
    for i = t.off.(u + 1) - 1 downto t.off.(u) do
      let v = t.nbr.(i) in
      if u < v then acc := (u, v) :: !acc
    done
  done;
  !acc

(* Same visiting order as [edges t], without building the list. *)
let iter_edges f t =
  for u = 0 to t.n - 1 do
    for i = t.off.(u) to t.off.(u + 1) - 1 do
      let v = t.nbr.(i) in
      if u < v then f u v
    done
  done

let fold_nodes f t init =
  let acc = ref init in
  for v = 0 to t.n - 1 do
    acc := f v !acc
  done;
  !acc

(* [union a b] has an edge wherever either graph does.  Both CSR rows
   are already sorted and duplicate-free, so a per-node merge avoids the
   edge-list rebuild and re-sort of [of_edges]. *)
let union a b =
  if a.n <> b.n then invalid_arg "Graph.union: size mismatch";
  let cap = Array.length a.nbr + Array.length b.nbr in
  let nbr = Array.make (max cap 1) 0 in
  let off = Array.make (a.n + 1) 0 in
  let k = ref 0 in
  for v = 0 to a.n - 1 do
    let i = ref a.off.(v) and j = ref b.off.(v) in
    let ihi = a.off.(v + 1) and jhi = b.off.(v + 1) in
    while !i < ihi && !j < jhi do
      let xv = a.nbr.(!i) and yv = b.nbr.(!j) in
      if xv < yv then begin
        nbr.(!k) <- xv;
        incr i
      end
      else if yv < xv then begin
        nbr.(!k) <- yv;
        incr j
      end
      else begin
        nbr.(!k) <- xv;
        incr i;
        incr j
      end;
      incr k
    done;
    while !i < ihi do
      nbr.(!k) <- a.nbr.(!i);
      incr i;
      incr k
    done;
    while !j < jhi do
      nbr.(!k) <- b.nbr.(!j);
      incr j;
      incr k
    done;
    off.(v + 1) <- !k
  done;
  let nbr = if !k = cap then nbr else Array.sub nbr 0 (max !k 1) in
  make ~n:a.n ~off ~nbr ~m:(!k / 2)

(* [is_subgraph a b]: every edge of [a] is an edge of [b]. *)
let is_subgraph a b =
  if a.n <> b.n then false
  else begin
    let ok = ref true in
    iter_edges (fun u v -> if not (mem_edge b u v) then ok := false) a;
    !ok
  end

(* [induced t keep] restricts to nodes where [keep] holds (same node ids). *)
let induced t keep =
  let buf = ref [] in
  let cnt = ref 0 in
  iter_edges
    (fun u v ->
      if keep u && keep v then begin
        buf := ((u * t.n) + v) :: !buf;
        incr cnt
      end)
    t;
  let packed = Array.make !cnt 0 in
  (* [iter_edges] visits in ascending packed order and the list was
     built by consing, so unreverse while filling. *)
  List.iteri (fun i e -> packed.(!cnt - 1 - i) <- e) !buf;
  build_packed t.n packed !cnt

let pp ppf t =
  Fmt.pf ppf "graph(n=%d, m=%d)" t.n t.m

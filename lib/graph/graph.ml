(* Immutable undirected graphs over nodes [0, n).

   Adjacency is stored in CSR form: one flat [nbr] array of length 2m
   holding every row back-to-back (sorted within each row), indexed by an
   [off] array of n+1 offsets.  Compared to an array-of-arrays this
   drops n header words and n pointers — at a million nodes that is the
   difference between the graph fitting comfortably in memory and the GC
   chasing a million tiny arrays — and iteration over a row is a plain
   int-array scan either way.

   Every constructor hands packed [u * n + v] edge keys, in any order,
   to one builder ([build] below): it counts and scatters both
   directions of each key straight into the CSR rows, then sorts only
   the rows that are not already ascending and drops duplicates.  The
   keys are never sorted as a whole and never written, and nothing the
   size of the key array is allocated besides [nbr] itself.

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

(* The build lock is module-wide: row builds are rare (once per graph
   that ever sees a dense round) and the double-check under the lock
   keeps concurrent first uses from building twice. *)
let rows_lock = Mutex.create ()

(* N(v) into [b], one word write per word of the row. *)
let add_row t v b = Bitset.add_run b t.nbr t.off.(v) t.off.(v + 1)

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
                add_row t v b;
                b)
          in
          Atomic.set t.rows (Some r);
          r)

let check_node t v =
  if v < 0 || v >= t.n then invalid_arg "Graph: node out of range"

let check_packable n = if n > 0x3FFF_FFFF then invalid_arg "Graph: n too large to pack edges"

(* The one CSR builder: every graph in the repository is made here, from
   packed [u * n + v] keys ([0 <= u < v < n]) in any order, duplicates
   allowed.  [who] names the caller in error messages; with [ascending]
   the keys must also be strictly ascending.  [keys] is only read.

   Pass 1 validates each key with one division and counts both
   endpoints into [off.(u)]; a prefix sum turns the counts into row
   ends.  Pass 2 walks the keys backwards and fills each row from its
   end, so a row receives its entries in key order: for ascending keys
   every row (its smaller partners, then its larger ones) arrives
   sorted.  Then, row by row, a row that is not ascending is sorted,
   duplicates are dropped and the rows are compacted in place; [nbr] is
   trimmed only if a duplicate was dropped.  Apart from [nbr] and the
   O(n) offsets nothing is allocated. *)
let build ~who ~ascending n keys =
  if n < 0 then invalid_arg (who ^ ": negative n");
  check_packable n;
  let len = Array.length keys in
  let off = Array.make (n + 1) 0 in
  for i = 0 to len - 1 do
    let e = keys.(i) in
    if n = 0 || e < 0 then invalid_arg (who ^ ": bad key");
    let u = e / n in
    let v = e - (u * n) in
    if u >= v then invalid_arg (who ^ ": bad key");
    if ascending && i > 0 && keys.(i - 1) >= e then invalid_arg (who ^ ": keys not ascending");
    off.(u) <- off.(u) + 1;
    off.(v) <- off.(v) + 1
  done;
  for v = 1 to n - 1 do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  off.(n) <- 2 * len;
  let nbr = Array.make (2 * len) 0 in
  for i = len - 1 downto 0 do
    let e = keys.(i) in
    let u = e / n in
    let v = e - (u * n) in
    let iu = off.(u) - 1 and iv = off.(v) - 1 in
    off.(u) <- iu;
    nbr.(iu) <- v;
    off.(v) <- iv;
    nbr.(iv) <- u
  done;
  (* Row v is nbr.(lo .. hi - 1) and moves down to start at [k]. *)
  let k = ref 0 and lo = ref 0 and maxdeg = ref 0 in
  for v = 0 to n - 1 do
    let lo_v = !lo and hi = off.(v + 1) in
    off.(v) <- !k;
    lo := hi;
    let i = ref (lo_v + 1) in
    while !i < hi && nbr.(!i - 1) < nbr.(!i) do
      incr i
    done;
    if !i >= hi then begin
      if !k < lo_v then Array.blit nbr lo_v nbr !k (hi - lo_v);
      k := !k + hi - lo_v
    end
    else begin
      while !i < hi && nbr.(!i - 1) <= nbr.(!i) do
        incr i
      done;
      if !i < hi then Rn_util.Int_sort.sort_range nbr lo_v hi;
      let prev = ref (-1) in
      for j = lo_v to hi - 1 do
        let x = nbr.(j) in
        if x <> !prev then begin
          nbr.(!k) <- x;
          incr k;
          prev := x
        end
      done
    end;
    maxdeg := max !maxdeg (!k - off.(v))
  done;
  off.(n) <- !k;
  let nbr = if !k = 2 * len then nbr else Array.sub nbr 0 !k in
  { n; off; nbr; m = !k / 2; maxdeg = !maxdeg; rows = Atomic.make None }

let of_packed n keys = build ~who:"Graph.of_packed" ~ascending:true n keys
let of_packed_unsorted n keys = build ~who:"Graph.of_packed_unsorted" ~ascending:false n keys

(* Edges are canonicalised as packed ints and go through the builder,
   which sorts only the rows that are not already ascending. *)
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

(* Write [t]'s edges as ascending packed keys into [dst], [t.m] slots
   from [at]. *)
let blit_keys t dst at =
  let k = ref at in
  iter_edges
    (fun u v ->
      dst.(!k) <- (u * t.n) + v;
      incr k)
    t

(* [union a b] has an edge wherever either graph does: both key sets go
   to the builder, whose row pass sorts each merged row and drops the
   edges the two share. *)
let union a b =
  if a.n <> b.n then invalid_arg "Graph.union: size mismatch";
  let keys = Array.make (a.m + b.m) 0 in
  blit_keys a keys 0;
  blit_keys b keys a.m;
  of_packed_unsorted a.n keys

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
  let cnt = ref 0 in
  iter_edges (fun u v -> if keep u && keep v then incr cnt) t;
  let keys = Array.make !cnt 0 and k = ref 0 in
  iter_edges
    (fun u v ->
      if keep u && keep v then begin
        keys.(!k) <- (u * t.n) + v;
        incr k
      end)
    t;
  of_packed t.n keys

let pp ppf t =
  Fmt.pf ppf "graph(n=%d, m=%d)" t.n t.m

(* The dual graph network (G, G') of Section 2.

   G = (V, E) is the reliable link graph and G' = (V, E') the unreliable
   one, with E ⊆ E'.  We store G plus the *gray* edges E' \ E explicitly:
   these are exactly the links the round adversary may switch on and off,
   and the simulator indexes them densely so an adversary policy can
   activate them with a boolean per edge.

   Gray edges are kept packed ([u * n + v], ascending, so the array index
   IS the dense edge id) and gray incidence in CSR form, each entry one
   int carrying both the edge id and the neighbour — at a million nodes
   the gray set runs to tens of millions of edges, where an array of
   (neighbor, id) tuple arrays would cost gigabytes of boxed pairs.
   [g'] is materialised lazily: the delivery engine never touches it
   (it works off G plus the gray set), so scale runs skip its cost
   entirely while verification-style callers still get it on demand.

   Geometric instances additionally carry the plane embedding; the paper
   requires dist(u,v) <= 1 => (u,v) ∈ E and (u,v) ∈ E' => dist(u,v) <= d. *)

module Bitset = Rn_util.Bitset

type t = {
  g : Graph.t; (* reliable links E *)
  gprime : Graph.t option Atomic.t; (* lazy E' = E ∪ gray *)
  gray_pk : int array; (* E' \ E as ascending u * n + v keys; index = edge id *)
  goff : int array; (* n + 1 CSR offsets into [gid] *)
  gid : int array;
      (* incident gray edges as [(id lsl gsh) lor neighbour], descending
         id within each row *)
  gsh : int; (* bit width of n - 1: the neighbour field of a [gid] entry *)
  pos : Rn_geom.Point.t array option; (* plane embedding, if geometric *)
  d : float; (* max distance of a G' edge (paper's constant d) *)
  reach : Bitset.t array option Atomic.t;
      (* lazy: one bitset row over nodes per node, N_G'(v); same
         build-once / atomic-publish discipline as [Graph]'s row cache *)
}

let g t = t.g
let n t = Graph.n t.g
let gray_count t = Array.length t.gray_pk
let positions t = t.pos
let d t = t.d

let gray_u t id = t.gray_pk.(id) / Graph.n t.g
let gray_v t id = t.gray_pk.(id) mod Graph.n t.g

(* The endpoint of gray edge [id] that is not [v]. *)
let gray_other t id v =
  let e = t.gray_pk.(id) in
  let nn = Graph.n t.g in
  (e / nn) + (e mod nn) - v

let gray_edges t =
  let nn = Graph.n t.g in
  Array.map (fun e -> (e / nn, e mod nn)) t.gray_pk

let gray_degree t v = t.goff.(v + 1) - t.goff.(v)

(* Visit [(neighbor, edge id)] pairs of [v]'s gray incidence, descending
   edge id — the historical row order, which adversary policies consume
   RNG draws in.  Each entry decodes with a mask and a shift; the walk
   never touches [gray_pk]. *)
let iter_gray_adj f t v =
  let sh = t.gsh in
  let mask = (1 lsl sh) - 1 in
  for i = t.goff.(v) to t.goff.(v + 1) - 1 do
    let x = Array.unsafe_get t.gid i in
    f (x land mask) (x lsr sh)
  done

(* Read-only incidence access for closure-free walks: entry [i] of
   [v]'s row, for [i] in [gray_lo t v, gray_hi t v), descending id like
   [iter_gray_adj]. *)
let gray_lo t v = t.goff.(v)
let gray_hi t v = t.goff.(v + 1)
let gray_nbr_at t i = t.gid.(i) land ((1 lsl t.gsh) - 1)
let gray_id_at t i = t.gid.(i) lsr t.gsh

(* Compat view of one row as a materialised tuple array (tests, detector
   construction); hot paths use {!iter_gray_adj}. *)
let gray_adj t v =
  let deg = gray_degree t v in
  let a = Array.make deg (0, 0) in
  let k = ref 0 in
  iter_gray_adj
    (fun w id ->
      a.(!k) <- (w, id);
      incr k)
    t v;
  a

(* Shared lock for the lazy caches ([g'] and the reach rows); builds
   are rare (at most one of each per dual graph) and the double-check
   under the lock keeps concurrent first uses from building twice. *)
let lazy_lock = Mutex.create ()

let g' t =
  match Atomic.get t.gprime with
  | Some g' -> g'
  | None ->
    Mutex.protect lazy_lock (fun () ->
        match Atomic.get t.gprime with
        | Some g' -> g'
        | None ->
          let g' = Graph.union t.g (Graph.of_packed (Graph.n t.g) t.gray_pk) in
          Atomic.set t.gprime (Some g');
          g')

(* N_G'(v) as a bitset row per node, for the delivery kernel's rounds in
   which every gray edge of a broadcaster is active.  Built from G's CSR
   rows and the gray incidence directly, so neither [g'] nor
   [Graph.adj_rows] is forced; O(n^2 / word) bits, built on first use,
   each row with [Graph.add_row] and one [Bitset.add_run] over the
   gray incidence (in descending edge id, not neighbour, order; the
   mask keeps the neighbour field). *)
let reach_rows t =
  match Atomic.get t.reach with
  | Some r -> r
  | None ->
    Mutex.protect lazy_lock (fun () ->
        match Atomic.get t.reach with
        | Some r -> r
        | None ->
          let nn = Graph.n t.g in
          let r =
            Array.init nn (fun v ->
                let b = Bitset.create nn in
                Graph.add_row t.g v b;
                Bitset.add_run b ~mask:((1 lsl t.gsh) - 1) t.gid (gray_lo t v) (gray_hi t v);
                b)
          in
          Atomic.set t.reach (Some r);
          r)

(* Bit width of [n - 1], the neighbour field of a packed incidence
   entry; rejects gray sets whose largest id [ng - 1] would not fit
   above it. *)
let incidence_shift ~n ~ng =
  let rec width x = if x = 0 then 0 else 1 + width (x lsr 1) in
  let sh = width (max 0 (n - 1)) in
  if ng - 1 > max_int lsr sh then
    invalid_arg "Dual.make_packed: gray ids overflow the packed incidence";
  sh

(* Build from already-canonical gray keys: strictly ascending packed
   [u * n + v] with [u < v], disjoint from [g]'s edges.  This is the
   allocation-lean path generators use; [make] funnels into it after
   canonicalising its tuple list. *)
let make_packed ?pos ?(d = 2.0) ~g ~gray_pk () =
  let n = Graph.n g in
  let ng = Array.length gray_pk in
  let bad_key () = invalid_arg "Dual.make_packed: bad gray key" in
  (* One pass validates the keys and counts each node's gray degree into
     [goff].  Ascending keys let the lower endpoint u advance by
     comparison ([base] = u * n) instead of a division per key, and the
     "already reliable" test is a merge walk along u's sorted G row. *)
  let goff = Array.make (n + 1) 0 in
  let u = ref 0 and base = ref 0 in
  let j = ref (if n = 0 then 0 else Graph.row_lo g 0) in
  for i = 0 to ng - 1 do
    let e = gray_pk.(i) in
    if n = 0 || e < 0 then bad_key ();
    if i > 0 && gray_pk.(i - 1) >= e then begin
      if e / n >= e mod n then bad_key ();
      invalid_arg "Dual.make_packed: keys not ascending"
    end;
    if e - !base >= n then begin
      while !u < n && e - !base >= n do
        incr u;
        base := !base + n
      done;
      if !u < n then j := Graph.row_lo g !u
    end;
    let v = e - !base in
    if !u >= n || !u >= v then bad_key ();
    let hi = Graph.row_hi g !u in
    while !j < hi && Graph.nbr_at g !j < v do
      incr j
    done;
    if !j < hi && Graph.nbr_at g !j = v then
      invalid_arg "Dual.make_packed: gray edge already reliable";
    goff.(!u + 1) <- goff.(!u + 1) + 1;
    goff.(v + 1) <- goff.(v + 1) + 1
  done;
  (match pos with
  | Some p ->
    if Array.length p <> n then invalid_arg "Dual.make: positions arity";
    (* Model constraints: unit-distance pairs must be reliable links and no
       G' edge may exceed distance d.  The first is checked by counting,
       not by searching: a unit hash-grid counts the pairs at distance
       <= 1 in the same or adjacent cells, and the walk over E counts
       E's edges at distance <= 1 between such cells.  E holds each pair
       at most once, so the two counts agree iff every pair the grid
       counts is in E — the same pairs, under the same float distance,
       that a membership test per pair would check.  The length check
       runs edge by edge over E and the gray set, so the lazy G' union
       is never forced here. *)
    let grid = Rn_geom.Grid.build ~cell:1.0 p in
    let units, _ = Rn_geom.Grid.count_pairs grid 1.0 1.0 in
    let covered = ref 0 and too_long = ref false in
    Graph.iter_edges
      (fun u v ->
        let dist = Rn_geom.Point.dist p.(u) p.(v) in
        if dist <= 1.0 && Rn_geom.Grid.adjacent grid u v then incr covered;
        if dist > d +. 1e-9 then too_long := true)
      g;
    if !covered <> units then invalid_arg "Dual.make: unit-distance pair missing from E";
    Array.iter
      (fun e -> if Rn_geom.Point.dist p.(e / n) p.(e mod n) > d +. 1e-9 then too_long := true)
      gray_pk;
    if !too_long then invalid_arg "Dual.make: G' edge longer than d"
  | None -> ());
  (* Counting fill of the incidence CSR.  Each row fills from its end
     while ids ascend, which leaves it in the historical row order
     (descending edge id) that adversary policies may consume RNG
     draws in. *)
  let gsh = incidence_shift ~n ~ng in
  for v = 0 to n - 1 do
    goff.(v + 1) <- goff.(v + 1) + goff.(v)
  done;
  let gid = Array.make (2 * ng) 0 in
  let fill = Array.sub goff 1 n in
  let u = ref 0 and base = ref 0 in
  for id = 0 to ng - 1 do
    let e = gray_pk.(id) in
    while e - !base >= n do
      incr u;
      base := !base + n
    done;
    let v = e - !base in
    fill.(!u) <- fill.(!u) - 1;
    gid.(fill.(!u)) <- (id lsl gsh) lor v;
    fill.(v) <- fill.(v) - 1;
    gid.(fill.(v)) <- (id lsl gsh) lor !u
  done;
  {
    g;
    gprime = Atomic.make None;
    gray_pk;
    goff;
    gid;
    gsh;
    pos;
    d;
    reach = Atomic.make None;
  }

let make ?pos ?(d = 2.0) ~g ~gray () =
  let n = Graph.n g in
  (* Canonicalise as packed ints and let the graph builder sort and
     dedup them row by row.  Reading its rows back, u ascending and only
     the partners v > u, gives the keys in ascending packed order, which
     the dense gray-edge ids must follow (adversary policies draw per
     edge id); a merge walk along G's row u skips the reliable ones. *)
  let h =
    Graph.of_packed_unsorted n
      (Array.of_list
         (List.map
            (fun (u, v) ->
              if u = v || u < 0 || v < 0 || u >= n || v >= n then
                invalid_arg "Dual.make: bad gray edge";
              if u < v then (u * n) + v else (v * n) + u)
            gray))
  in
  let gray_pk = Array.make (Graph.edge_count h) 0 and k = ref 0 in
  for u = 0 to n - 1 do
    let j = ref (Graph.row_lo g u) and jhi = Graph.row_hi g u in
    for i = Graph.row_lo h u to Graph.row_hi h u - 1 do
      let v = Graph.nbr_at h i in
      if v > u then begin
        while !j < jhi && Graph.nbr_at g !j < v do
          incr j
        done;
        if not (!j < jhi && Graph.nbr_at g !j = v) then begin
          gray_pk.(!k) <- (u * n) + v;
          incr k
        end
      end
    done
  done;
  let gray_pk = if !k = Array.length gray_pk then gray_pk else Array.sub gray_pk 0 !k in
  make_packed ?pos ~d ~g ~gray_pk ()

(* Gray incidence as bitsets over gray edge ids, freshly built: bit
   [id] of row [v] is set iff gray edge [id] touches [v].  O(n * gray)
   bits — for replays and tests; the delivery engine walks
   [iter_gray_adj] instead. *)
let gray_masks t =
  let ng = gray_count t in
  Array.init (n t) (fun v ->
      let b = Bitset.create ng in
      iter_gray_adj (fun _ id -> Bitset.add b id) t v;
      b)

(* A dual graph with no unreliable links: the classic radio model G = G'. *)
let classic g = make_packed ~g ~gray_pk:[||] ()

(* Move reliable edges into the gray set — the Section 8 "link degrades"
   event.  G' is unchanged; only the reliability of the named links drops.
   The geometric embedding is deliberately dropped: a demoted unit-distance
   edge no longer satisfies the *static* model constraint (dynamics is
   exactly the regime where that constraint is soft). *)
let demote_edges t edges =
  let canon (u, v) = if u < v then (u, v) else (v, u) in
  let demoted = List.sort_uniq compare (List.map canon edges) in
  List.iter
    (fun (u, v) ->
      if not (Graph.mem_edge t.g u v) then
        invalid_arg "Dual.demote_edges: not a reliable edge")
    demoted;
  let keep e = not (List.mem e demoted) in
  let g1 = Graph.of_edges (n t) (List.filter keep (Graph.edges t.g)) in
  make ~d:t.d ~g:g1 ~gray:(Array.to_list (gray_edges t) @ demoted) ()

let max_degree_g t = Graph.max_degree t.g
let max_degree_g' t = Graph.max_degree (g' t)

let pp ppf t =
  Fmt.pf ppf "dual(n=%d, |E|=%d, gray=%d)" (n t) (Graph.edge_count t.g)
    (gray_count t)

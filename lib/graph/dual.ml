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
  adv_csr : adv_csr option Atomic.t;
      (* lazy: the adversary kernel's endpoint-split view of the gray
         set (see below); same build-once / atomic-publish discipline as
         [Graph]'s row cache *)
}

(* Endpoint-split CSR over the gray set, for the word-parallel adversary
   kernel.  Because gray ids follow ascending packed (u, v) order with
   u < v, the ids whose LOWER endpoint is u form one contiguous range —
   [loff] indexes those ranges directly into the id space, so "every
   gray edge of a broadcaster, seen from its lower endpoint" is a
   word-parallel bitset range fill.  The ids whose UPPER endpoint is v
   are scattered; [uoff]/[uid] hold them as a conventional CSR
   (ascending id within each row).  Every gray edge appears exactly once
   on each side. *)
and adv_csr = {
  loff : int array; (* n + 1: gray ids with lower endpoint u are [loff.(u), loff.(u+1)) *)
  uoff : int array; (* n + 1 CSR offsets into [uid] *)
  uid : int array; (* gray ids with that upper endpoint, ascending id *)
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

(* Shared lock for the lazy caches ([g'] and the adversary kernel's
   endpoint-split CSR); builds are rare (at most one of each per dual
   graph) and the double-check under the lock keeps concurrent first
   uses from building twice. *)
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
  for i = 0 to ng - 1 do
    let e = gray_pk.(i) in
    if n = 0 || e < 0 || e / n >= e mod n then invalid_arg "Dual.make_packed: bad gray key";
    let u = e / n and v = e mod n in
    if i > 0 && gray_pk.(i - 1) >= e then
      invalid_arg "Dual.make_packed: keys not ascending";
    if Graph.mem_edge g u v then invalid_arg "Dual.make_packed: gray edge already reliable"
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
  (* Counting fill of the incidence CSR; iterating ids high-to-low
     reproduces the historical row order (descending edge id), which
     adversary policies may consume RNG draws in. *)
  let gsh = incidence_shift ~n ~ng in
  let goff = Array.make (n + 1) 0 in
  Array.iter
    (fun e ->
      let u = e / n and v = e mod n in
      goff.(u + 1) <- goff.(u + 1) + 1;
      goff.(v + 1) <- goff.(v + 1) + 1)
    gray_pk;
  for v = 0 to n - 1 do
    goff.(v + 1) <- goff.(v + 1) + goff.(v)
  done;
  let gid = Array.make (2 * ng) 0 in
  let fill = Array.copy goff in
  for id = ng - 1 downto 0 do
    let e = gray_pk.(id) in
    let u = e / n and v = e mod n in
    gid.(fill.(u)) <- (id lsl gsh) lor v;
    fill.(u) <- fill.(u) + 1;
    gid.(fill.(v)) <- (id lsl gsh) lor u;
    fill.(v) <- fill.(v) + 1
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
    adv_csr = Atomic.make None;
  }

let make ?pos ?(d = 2.0) ~g ~gray () =
  let n = Graph.n g in
  (* Canonicalise/dedup as packed ints, like [Graph.of_edges]: ascending
     packed order is exactly the lexicographic order the dense gray-edge
     ids must follow (adversary policies draw per edge id), and
     [Int_sort.packed] reaches it in O(len + n) plus per-node sorts —
     the lower-bound networks carry Θ(β²) gray keys. *)
  let gray_pk =
    let a =
      Array.of_list
        (List.map
           (fun (u, v) ->
             if u = v || u < 0 || v < 0 || u >= n || v >= n then
               invalid_arg "Dual.make: bad gray edge";
             if u < v then (u * n) + v else (v * n) + u)
           gray)
    in
    Rn_util.Int_sort.packed ~n a;
    let k = ref 0 in
    Array.iteri
      (fun i e ->
        if (i = 0 || a.(i - 1) <> e) && not (Graph.mem_edge g (e / n) (e mod n)) then begin
          a.(!k) <- e;
          incr k
        end)
      a;
    Array.sub a 0 !k
  in
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

(* The adversary kernel's endpoint-split view; built on first use (scale
   runs under randomized policies never pay for it), O(n + gray) ints. *)
let adv_csr t =
  match Atomic.get t.adv_csr with
  | Some c -> c
  | None ->
    Mutex.protect lazy_lock (fun () ->
        match Atomic.get t.adv_csr with
        | Some c -> c
        | None ->
          let nn = Graph.n t.g in
          let ng = Array.length t.gray_pk in
          let loff = Array.make (nn + 1) 0 in
          let uoff = Array.make (nn + 1) 0 in
          Array.iter
            (fun e ->
              loff.((e / nn) + 1) <- loff.((e / nn) + 1) + 1;
              uoff.((e mod nn) + 1) <- uoff.((e mod nn) + 1) + 1)
            t.gray_pk;
          for v = 0 to nn - 1 do
            loff.(v + 1) <- loff.(v + 1) + loff.(v);
            uoff.(v + 1) <- uoff.(v + 1) + uoff.(v)
          done;
          let uid = Array.make ng 0 in
          let fill = Array.copy uoff in
          for id = 0 to ng - 1 do
            let v = t.gray_pk.(id) mod nn in
            uid.(fill.(v)) <- id;
            fill.(v) <- fill.(v) + 1
          done;
          let c = { loff; uoff; uid } in
          Atomic.set t.adv_csr (Some c);
          c)

(* Every gray edge incident to [u] into [active]: the lower-endpoint
   ids as one word-parallel range fill, the upper-endpoint ids one by
   one. *)
let add_gray_incident t active u =
  let c = adv_csr t in
  Bitset.fill_range active c.loff.(u) c.loff.(u + 1);
  for i = c.uoff.(u) to c.uoff.(u + 1) - 1 do
    Bitset.add active (Array.unsafe_get c.uid i)
  done

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

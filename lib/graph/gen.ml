(* Network generators.

   Geometric generators realise the paper's embedding assumptions: nodes in
   the plane, reliable links at distance <= 1, unreliable (gray) links in
   the zone (1, d].  [bridge_cliques] is the synthetic two-cliques-plus-
   bridge family from the lower bound of Section 7 (it has no geometric
   embedding; the lower bound does not need one). *)

module Rng = Rn_util.Rng
module Point = Rn_geom.Point
module Bitset = Rn_util.Bitset
module Grid = Rn_geom.Grid

type geometric_spec = {
  n : int;
  side : float; (* nodes are sampled uniformly in [0,side]^2 *)
  d : float; (* gray-zone outer radius (paper's d) *)
  gray_p : float; (* probability a gray-zone pair joins E' *)
  max_attempts : int; (* resampling budget for G-connectivity *)
}

let default_spec ?(d = 2.0) ?(gray_p = 0.5) ?(max_attempts = 200) ~n ~side () =
  { n; side; d; gray_p; max_attempts }

(* Box side length giving an expected reliable degree near [target_degree]
   (unit-disk area pi over density n/side^2). *)
let side_for_degree ~n ~target_degree =
  if n <= 1 || target_degree <= 0 then invalid_arg "Gen.side_for_degree";
  sqrt (Float.pi *. float_of_int (n - 1) /. float_of_int target_degree)

(* Derive a dual graph from fixed positions — reference O(n^2) pairwise
   scan, kept as the differential oracle for the grid path below. *)
let of_positions_naive ~rng ~d ~gray_p pos =
  let n = Array.length pos in
  let reliable = ref [] and gray = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let dist = Point.dist pos.(u) pos.(v) in
      if dist <= 1.0 then reliable := (u, v) :: !reliable
      else if dist <= d && Rng.bool rng gray_p then gray := (u, v) :: !gray
    done
  done;
  let g = Graph.of_edges n !reliable in
  Dual.make ~pos ~d ~g ~gray:!gray ()

(* Derive a dual graph from fixed positions, O(n) expected for bounded
   density: a hash-grid of cell max(d, 1) holds, in each node's 3x3
   block of cells, every pair that can be reliable or gray-zone.

   RNG-stream compatibility matters here: the naive scan draws one
   Bernoulli per gray-zone pair in (u, v)-lexicographic order, and every
   cached experiment table depends on that stream.  So the keys are
   emitted node-major: for u = 0, 1, ..., the partners v > u in u's
   block are collected and sorted — a few dozen — and appended, which
   gives ascending packed (u * n + v) order, the naive scan's, without
   sorting the key set as a whole.

   Three passes keep every key array at its exact final size:
   - [Grid.count_pairs] counts the reliable pairs and the gray-zone
     candidates;
   - one Bernoulli per candidate is drawn, in candidate order, into a
     bitset (bit i decides the i-th candidate in ascending order);
   - the node-major walk fills the reliable keys and the kept gray keys.
   The produced dual graph and the RNG state after it are identical to
   the naive one's, bit for bit. *)
let of_positions ~rng ~d ~gray_p pos =
  let n = Array.length pos in
  let grid = Grid.build ~cell:(Float.max d 1.0) pos in
  let nrel, ncand = Grid.count_pairs grid 1.0 d in
  (* bit b of word k holds the draw of candidate k * w + b; the words
     are built branch-free, as half the draws come up *)
  let keep = Bitset.create ncand in
  let w = Bitset.bits_per_word in
  for k = 0 to Rn_util.Ilog.cdiv ncand w - 1 do
    let bits = ref 0 in
    for b = 0 to min w (ncand - (k * w)) - 1 do
      bits := !bits lor (Bool.to_int (Rng.bool rng gray_p) lsl b)
    done;
    Bitset.set_word keep k !bits
  done;
  let rel = Array.make nrel 0 and gray_pk = Array.make (Bitset.cardinal keep) 0 in
  let { Grid.cols; rows; start; ids; xs; ys; _ } = grid in
  (* Per-node scratch: the walk below stores every key it visits before
     deciding whether to keep it, so it needs room for a whole 3x3 block;
     the most populous one bounds them all. *)
  let widest = ref 0 in
  for cy = 0 to rows - 1 do
    for cx = 0 to cols - 1 do
      let x0 = max 0 (cx - 1) and x1 = min (cols - 1) (cx + 1) and p = ref 0 in
      for ny = max 0 (cy - 1) to min (rows - 1) (cy + 1) do
        p := !p + start.((ny * cols) + x1 + 1) - start.((ny * cols) + x0)
      done;
      widest := max !widest !p
    done
  done;
  let rb = Array.make !widest 0 and cb = Array.make !widest 0 in
  let nr = ref 0 and nc = ref 0 and ng = ref 0 in
  for u = 0 to n - 1 do
    let k = grid.slot.(u) and cx = grid.col.(u) and cy = grid.row.(u) in
    let ux = xs.(k) and uy = ys.(k) in
    let x0 = max 0 (cx - 1) and x1 = min (cols - 1) (cx + 1) in
    let a = ref 0 and b = ref 0 in
    for ny = max 0 (cy - 1) to min (rows - 1) (cy + 1) do
      (* [j] is a slot, and [!a], [!b] stay below the number of slots
         visited so far, at most [!widest]: the accesses are in bounds *)
      for j = start.((ny * cols) + x0) to start.((ny * cols) + x1 + 1) - 1 do
        let v = Array.unsafe_get ids j in
        (* [Point.dist pos.(u) pos.(v)] bit for bit.  Branch-free: the
           tests below split about evenly, so branches would mispredict
           half the time. *)
        let dx = ux -. Array.unsafe_get xs j and dy = uy -. Array.unsafe_get ys j in
        let dist = sqrt ((dx *. dx) +. (dy *. dy)) in
        let up = Bool.to_int (v > u) and near = Bool.to_int (dist <= 1.0) in
        Array.unsafe_set rb !a ((u * n) + v);
        a := !a + (near land up);
        Array.unsafe_set cb !b ((u * n) + v);
        b := !b + (Bool.to_int (dist <= d) land (near lxor 1) land up)
      done
    done;
    Rn_util.Int_sort.sort_range rb 0 !a;
    Array.blit rb 0 rel !nr !a;
    nr := !nr + !a;
    (* keep the candidates whose draw came up, in order *)
    Rn_util.Int_sort.sort_range cb 0 !b;
    let m = ref 0 in
    for j = 0 to !b - 1 do
      cb.(!m) <- cb.(j);
      m := !m + Bool.to_int (Bitset.mem keep (!nc + j))
    done;
    Array.blit cb 0 gray_pk !ng !m;
    nc := !nc + !b;
    ng := !ng + !m
  done;
  (* [Graph.of_packed] rejects keys that are not strictly ascending *)
  let g = Graph.of_packed n rel in
  Dual.make_packed ~pos ~d ~g ~gray_pk ()

(* Random geometric dual graph, resampled until G is connected. *)
let geometric ~rng spec =
  if spec.n < 1 then invalid_arg "Gen.geometric: n < 1";
  let rec attempt k =
    if k > spec.max_attempts then
      failwith
        (Printf.sprintf
           "Gen.geometric: no connected instance in %d attempts (n=%d side=%.2f)"
           spec.max_attempts spec.n spec.side);
    let pos = Array.init spec.n (fun _ -> Point.random rng ~w:spec.side ~h:spec.side) in
    let dual = of_positions ~rng ~d:spec.d ~gray_p:spec.gray_p pos in
    if Algo.is_connected (Dual.g dual) then dual else attempt (k + 1)
  in
  attempt 1

(* Nodes near a jittered grid: connected by construction for small jitter
   (grid spacing + 2*jitter stays within unit distance), which makes it a
   deterministic-shape workload for tests. *)
let grid_jitter ~rng ?(spacing = 0.75) ?(jitter = 0.1) ?(d = 2.0) ?(gray_p = 0.5) ~rows ~cols () =
  if rows < 1 || cols < 1 then invalid_arg "Gen.grid_jitter";
  let pos =
    Array.init (rows * cols) (fun idx ->
        let r = idx / cols and c = idx mod cols in
        let dx = (Rng.float rng -. 0.5) *. 2.0 *. jitter in
        let dy = (Rng.float rng -. 0.5) *. 2.0 *. jitter in
        Point.make ((float_of_int c *. spacing) +. dx) ((float_of_int r *. spacing) +. dy))
  in
  of_positions ~rng ~d ~gray_p pos

(* Clustered sensor deployment: dense hotspots connected by a sparse
   backbone of waypoints — a common real-world shape that stresses the
   algorithms differently from uniform fields (high local contention
   inside clusters, long thin corridors between them).  Cluster centres
   are placed on a circle spaced so adjacent waypoint chains connect. *)
let clusters ~rng ?(d = 2.0) ?(gray_p = 0.5) ?(cluster_radius = 0.8) ~clusters:k
    ~per_cluster () =
  if k < 1 || per_cluster < 1 then invalid_arg "Gen.clusters";
  let ring_radius = if k = 1 then 0.0 else float_of_int k *. 1.4 /. (2.0 *. Float.pi) in
  let center i =
    let a = 2.0 *. Float.pi *. float_of_int i /. float_of_int k in
    Point.make (ring_radius *. cos a) (ring_radius *. sin a)
  in
  let members = ref [] in
  for i = 0 to k - 1 do
    let c = center i in
    for _ = 1 to per_cluster do
      let dx = (Rng.float rng -. 0.5) *. 2.0 *. cluster_radius in
      let dy = (Rng.float rng -. 0.5) *. 2.0 *. cluster_radius in
      members := Point.make (c.Point.x +. dx) (c.Point.y +. dy) :: !members
    done;
    (* waypoints towards the next cluster keep the field connected *)
    if k > 1 then begin
      let next = center ((i + 1) mod k) in
      let gap = Point.dist c next in
      let steps = int_of_float (ceil (gap /. 0.8)) in
      for s = 1 to steps - 1 do
        let t = float_of_int s /. float_of_int steps in
        members :=
          Point.make
            (c.Point.x +. (t *. (next.Point.x -. c.Point.x)))
            (c.Point.y +. (t *. (next.Point.y -. c.Point.y)))
          :: !members
      done
    end
  done;
  let pos = Array.of_list (List.rev !members) in
  let dual = of_positions ~rng ~d ~gray_p pos in
  if not (Algo.is_connected (Dual.g dual)) then
    failwith "Gen.clusters: disconnected instance (increase per_cluster or radius)";
  dual

(* The Section 7 lower-bound family: G is two beta-cliques joined by a
   single bridge edge; G' is the complete graph.  [bridge_a] lives in
   clique A = {0..beta-1} and [bridge_b] in clique B = {beta..2beta-1}. *)
let bridge_cliques ~beta ?(bridge_a = 0) ?bridge_b () =
  if beta < 2 then invalid_arg "Gen.bridge_cliques: beta < 2";
  let bridge_b = match bridge_b with Some b -> b | None -> beta in
  if bridge_a < 0 || bridge_a >= beta then invalid_arg "Gen.bridge_cliques: bridge_a";
  if bridge_b < beta || bridge_b >= 2 * beta then invalid_arg "Gen.bridge_cliques: bridge_b";
  let n = 2 * beta in
  let reliable = ref [] in
  for u = 0 to beta - 1 do
    for v = u + 1 to beta - 1 do
      reliable := (u, v) :: !reliable
    done
  done;
  for u = beta to n - 1 do
    for v = u + 1 to n - 1 do
      reliable := (u, v) :: !reliable
    done
  done;
  reliable := (bridge_a, bridge_b) :: !reliable;
  let g = Graph.of_edges n !reliable in
  let gray = ref [] in
  for u = 0 to beta - 1 do
    for v = beta to n - 1 do
      if not (u = bridge_a && v = bridge_b) then gray := (u, v) :: !gray
    done
  done;
  Dual.make ~g ~gray:!gray ()

(* Simple deterministic topologies for unit tests. *)
let clique n =
  let es = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      es := (u, v) :: !es
    done
  done;
  Graph.of_edges n !es

let path n = Graph.of_edges n (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let ring n =
  if n < 3 then invalid_arg "Gen.ring: n < 3";
  Graph.of_edges n ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))

let star n =
  if n < 2 then invalid_arg "Gen.star: n < 2";
  Graph.of_edges n (List.init (n - 1) (fun i -> (0, i + 1)))

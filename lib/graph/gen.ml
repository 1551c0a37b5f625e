(* Network generators.

   Geometric generators realise the paper's embedding assumptions: nodes in
   the plane, reliable links at distance <= 1, unreliable (gray) links in
   the zone (1, d].  [bridge_cliques] is the synthetic two-cliques-plus-
   bridge family from the lower bound of Section 7 (it has no geometric
   embedding; the lower bound does not need one). *)

module Rng = Rn_util.Rng
module Point = Rn_geom.Point

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
   density: a hash-grid of cell max(d, 1) enumerates exactly the pairs
   that can be reliable or gray-zone.

   RNG-stream compatibility matters here: the naive scan draws one
   Bernoulli per gray-zone pair in (u, v)-lexicographic order, and every
   cached experiment table depends on that stream.  The grid visits
   pairs in cell order, so gray-zone *candidates* are collected first
   and sorted back to (u, v) order before any draw — the produced dual
   graph is identical to the naive one, bit for bit. *)
let of_positions ~rng ~d ~gray_p pos =
  let n = Array.length pos in
  (* Growable unboxed buffers of packed (u * n + v) keys: at a million
     nodes the reliable and gray-zone sets run to tens of millions of
     pairs, where tuple lists cost gigabytes of boxed cells.  The
     amortised-doubling push keeps peak memory at ~2x the final size. *)
  let push bufref lenref e =
    let buf = !bufref and len = !lenref in
    let buf =
      if len < Array.length buf then buf
      else begin
        let b = Array.make (2 * len) 0 in
        Array.blit buf 0 b 0 len;
        bufref := b;
        b
      end
    in
    buf.(len) <- e;
    lenref := len + 1
  in
  let rel_buf = ref (Array.make 1024 0) and rel_len = ref 0 in
  let cand_buf = ref (Array.make 1024 0) and cand_len = ref 0 in
  let grid = Rn_geom.Grid.build ~cell:(Float.max d 1.0) pos in
  Rn_geom.Grid.iter_pairs
    (fun u v dist ->
      if dist <= 1.0 then push rel_buf rel_len ((u * n) + v)
      else if dist <= d then push cand_buf cand_len ((u * n) + v))
    grid pos;
  (* ascending packed (u * n + v) order is (u, v)-lexicographic — the
     naive scan's draw order; [Int_sort.packed] buckets the candidates by
     u and sorts each bucket in place *)
  let cand = Array.sub !cand_buf 0 !cand_len in
  cand_buf := [||];
  Rn_util.Int_sort.packed ~n cand;
  (* Bernoulli draws in ascending order produce the gray keys already
     ascending, exactly what [Dual.make_packed] wants. *)
  let gray_len = ref 0 in
  Array.iter
    (fun e ->
      if Rng.bool rng gray_p then begin
        cand.(!gray_len) <- e;
        incr gray_len
      end)
    cand;
  let gray_pk = Array.sub cand 0 !gray_len in
  let g = Graph.of_packed_unsorted n (Array.sub !rel_buf 0 !rel_len) in
  rel_buf := [||];
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

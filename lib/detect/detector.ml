(* Link detectors (Section 2 of the paper).

   A link detector provides each process u a set L_u estimating which
   neighbours are connected to u by a reliable link.  A τ-complete detector
   satisfies L_u = N_G(u) ∪ W_u with W_u a set of at most τ non-neighbours
   — τ bounds the classification mistakes, and τ = 0 is perfect knowledge.

   As in the rest of this reproduction, process ids coincide with node
   indices (the adversarial process-to-node bijection of the paper only
   matters for algorithms that exploit id structure, which none of the
   paper's algorithms do); detector sets therefore hold node indices. *)

module Bitset = Rn_util.Bitset
module Rng = Rn_util.Rng
module Graph = Rn_graph.Graph
module Dual = Rn_graph.Dual

(* Rows are built lazily: a detector over n nodes holds n bitsets of n
   bits, which at a million nodes is ~125 GB if materialised up front —
   but scale workloads (beacon bodies) never read their detector sets at
   all, and algorithmic bodies only read the rows of nodes that actually
   consult them.  [sets] caches built rows; [build] produces one on
   first use.  Rows are forced from algorithm fibers; a fiber only ever
   forces its own row (process u queries L_u), and when the engine's
   resume runs in slices on several domains each fiber is stepped by
   exactly one domain per round, so row slots are written by at most
   one domain at a time and the cache still needs no lock.
   (Whole-detector scans like [h_graph] and [is_tau_complete] run
   outside simulations, on one domain.) *)
type t = { n : int; sets : Bitset.t option array; build : int -> Bitset.t }

let n t = t.n

let set t u =
  match t.sets.(u) with
  | Some s -> s
  | None ->
    let s = t.build u in
    t.sets.(u) <- Some s;
    s

let mem t u v = Bitset.mem (set t u) v

let of_sets sets =
  {
    n = Array.length sets;
    sets = Array.map Option.some sets;
    build = (fun _ -> invalid_arg "Detector.of_sets: no builder");
  }

(* The perfect (0-complete) detector: L_u = N_G(u). *)
let perfect g =
  let n = Graph.n g in
  {
    n;
    sets = Array.make n None;
    build =
      (fun u ->
        let s = Bitset.create n in
        Graph.iter_neighbors (Bitset.add s) g u;
        s);
  }

(* Where detector mistakes are drawn from. *)
type mistake_pool =
  | Gray_only (* misclassify only actual G' gray neighbours (realistic) *)
  | Any_non_neighbor (* arbitrary non-neighbours *)
  | Planted of (int -> int list) (* exact mistakes per node (lower bound) *)

(* A τ-complete detector for the dual graph: perfect knowledge plus up to
   τ mistakes per node drawn from [pool]. *)
let tau_complete ~rng ~tau ?(pool = Gray_only) dual =
  if tau < 0 then invalid_arg "Detector.tau_complete: negative tau";
  let g = Dual.g dual in
  let nn = Graph.n g in
  let base = perfect g in
  (match pool with
  | Planted f ->
    for u = 0 to nn - 1 do
      let ws = f u in
      if List.length ws > tau then
        invalid_arg "Detector.tau_complete: planted mistakes exceed tau";
      List.iter
        (fun w ->
          if w = u || Graph.mem_edge g u w then
            invalid_arg "Detector.tau_complete: planted mistake not a non-neighbor";
          Bitset.add (set base u) w)
        ws
    done
  | Gray_only | Any_non_neighbor ->
    for u = 0 to nn - 1 do
      let candidates =
        match pool with
        | Gray_only -> Array.map fst (Dual.gray_adj dual u)
        | Any_non_neighbor ->
          Array.of_seq
            (Seq.filter
               (fun v -> v <> u && not (Graph.mem_edge g u v))
               (Seq.init nn (fun i -> i)))
        | Planted _ -> assert false
      in
      let picks = min tau (Array.length candidates) in
      if picks > 0 then begin
        let shuffled = Array.copy candidates in
        Rng.shuffle_in_place rng shuffled;
        for k = 0 to picks - 1 do
          Bitset.add (set base u) shuffled.(k)
        done
      end
    done);
  base

(* τ-completeness check: contains every reliable neighbour, never contains
   the node itself, and has at most τ extras. *)
let is_tau_complete t ~tau g =
  let nn = Graph.n g in
  t.n = nn
  &&
  let ok = ref true in
  for u = 0 to nn - 1 do
    if Bitset.mem (set t u) u then ok := false;
    Graph.iter_neighbors (fun v -> if not (Bitset.mem (set t u) v) then ok := false) g u;
    let extras = Bitset.cardinal (set t u) - Graph.degree g u in
    if extras > tau then ok := false
  done;
  !ok

(* The graph H of Section 3: edge (u,v) iff u ∈ L_v and v ∈ L_u.  For a
   τ-complete detector G ⊆ H, and H = G when τ = 0. *)
let h_graph t =
  let nn = n t in
  let es = ref [] in
  for u = 0 to nn - 1 do
    Bitset.iter (fun v -> if u < v && mem t v u then es := (u, v) :: !es) (set t u)
  done;
  Graph.of_edges nn !es

(* --- Dynamic link detectors (Section 8) --------------------------------

   A dynamic detector outputs a set per round.  It "stabilises at r" when
   from round r on its output equals a fixed static detector.  *)

type dynamic = { at : int -> t; stabilizes_at : int option }

let static t = { at = (fun _ -> t); stabilizes_at = Some 0 }

let dynamic ~at ?stabilizes_at () = { at; stabilizes_at }

(* A detector that reports [before] until [round] and [after] from then on:
   the "link degrades / link estimate converges" scenario of Section 8. *)
let switching ~before ~after ~round =
  {
    at = (fun r -> if r < round then before else after);
    stabilizes_at = Some round;
  }

let at dyn round = dyn.at round

(* Round at which the detector is known to stabilise, if any. *)
let stabilizes_at dyn = dyn.stabilizes_at

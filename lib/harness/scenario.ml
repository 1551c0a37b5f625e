(* Scenario files: declarative experiment descriptions that the CLI can
   run directly, e.g.

     (scenario
      (network (geometric (n 128) (degree 12)))
      (detector (tau 0))
      (adversary (bernoulli 0.5))
      (algorithm ccds-banned)
      (b 96)
      (seed 7))

   Networks:    (geometric (n N) (degree D) [(d F)] [(gray-p F)])
                (grid (rows R) (cols C))
                (clusters (clusters K) (per-cluster M))
                (bridge (beta B))
                (ring (n N)) | (path (n N)) | (clique (n N)) | (star (n N))
   Adversaries: silent | all | spiteful | jamming | (bernoulli P) | (harassing P)
   Algorithms:  mis | ccds-banned | ccds-explore | ccds-tdma | async-mis

   Everything else is optional with sensible defaults.  Parsing failures
   raise [Scenario_error] with a readable message. *)

module Sexp = Rn_util.Sexp
module Rng = Rn_util.Rng
module Dual = Rn_graph.Dual
module Gen = Rn_graph.Gen
module Detector = Rn_detect.Detector
module Verify = Rn_verify.Verify
module R = Core.Radio

exception Scenario_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Scenario_error m)) fmt

type algorithm = Mis | Ccds_banned | Ccds_explore | Ccds_tdma | Async_mis

type t = {
  network : Sexp.t;
  tau : int;
  adversary : Rn_sim.Adversary.t;
  algorithm : algorithm;
  b_bits : int option;
  seed : int;
}

let get_int ?default entries key =
  match Sexp.assoc key entries with
  | Some [ v ] -> begin
    match Sexp.as_int v with
    | Some i -> i
    | None -> fail "(%s …): expected an integer" key
  end
  | Some _ -> fail "(%s …): expected exactly one value" key
  | None -> ( match default with Some d -> d | None -> fail "missing (%s …)" key)

let get_float_opt entries key =
  match Sexp.assoc key entries with
  | Some [ v ] -> begin
    match Sexp.as_float v with
    | Some f -> Some f
    | None -> fail "(%s …): expected a number" key
  end
  | Some _ -> fail "(%s …): expected exactly one value" key
  | None -> None

let parse_adversary = function
  | Sexp.Atom "silent" -> Rn_sim.Adversary.silent
  | Sexp.Atom "all" -> Rn_sim.Adversary.all_gray
  | Sexp.Atom "spiteful" -> Rn_sim.Adversary.spiteful
  | Sexp.Atom "jamming" -> Rn_sim.Adversary.jamming
  | Sexp.List [ Sexp.Atom "bernoulli"; p ] -> begin
    match Sexp.as_float p with
    | Some p -> Rn_sim.Adversary.bernoulli p
    | None -> fail "(bernoulli P): bad probability"
  end
  | Sexp.List [ Sexp.Atom "harassing"; p ] -> begin
    match Sexp.as_float p with
    | Some p -> Rn_sim.Adversary.harassing p
    | None -> fail "(harassing P): bad probability"
  end
  | s -> fail "unknown adversary %s" (Sexp.to_string s)

let parse_algorithm = function
  | Sexp.Atom "mis" -> Mis
  | Sexp.Atom "ccds-banned" -> Ccds_banned
  | Sexp.Atom "ccds-explore" -> Ccds_explore
  | Sexp.Atom "ccds-tdma" -> Ccds_tdma
  | Sexp.Atom "async-mis" -> Async_mis
  | s -> fail "unknown algorithm %s" (Sexp.to_string s)

let parse sexp =
  (match sexp with
  | Sexp.List (Sexp.Atom "scenario" :: _) -> ()
  | _ -> fail "expected (scenario …)");
  let network =
    match Sexp.assoc "network" sexp with
    | Some [ n ] -> n
    | Some _ | None -> fail "missing (network …)"
  in
  let tau =
    match Sexp.assoc "detector" sexp with
    | Some [ d ] -> get_int ~default:0 (Sexp.List [ d ]) "tau"
    | Some _ -> fail "(detector …): expected one spec"
    | None -> 0
  in
  let adversary =
    match Sexp.assoc "adversary" sexp with
    | Some [ a ] -> parse_adversary a
    | Some _ -> fail "(adversary …): expected one spec"
    | None -> Rn_sim.Adversary.bernoulli 0.5
  in
  let algorithm =
    match Sexp.assoc "algorithm" sexp with
    | Some [ a ] -> parse_algorithm a
    | Some _ | None -> fail "missing (algorithm …)"
  in
  let b_bits =
    match Sexp.assoc "b" sexp with
    | Some [ v ] -> Some (match Sexp.as_int v with Some i -> i | None -> fail "(b …): bad int")
    | Some _ -> fail "(b …): expected one value"
    | None -> None
  in
  let seed = match Sexp.assoc "seed" sexp with Some [ v ] -> ( match Sexp.as_int v with Some i -> i | None -> fail "(seed …): bad int") | Some _ -> fail "(seed …)" | None -> 1 in
  { network; tau; adversary; algorithm; b_bits; seed }

let build_network t =
  match t.network with
  | Sexp.List (Sexp.Atom "geometric" :: _) as spec ->
    let n = get_int spec "n" in
    let degree = get_int ~default:12 spec "degree" in
    let d = match get_float_opt spec "d" with Some f -> f | None -> 2.0 in
    let gray_p = match get_float_opt spec "gray-p" with Some f -> f | None -> 0.5 in
    Harness.geometric ~d ~gray_p ~seed:t.seed ~n ~degree ()
  | Sexp.List (Sexp.Atom "grid" :: _) as spec ->
    let rows = get_int spec "rows" and cols = get_int spec "cols" in
    Gen.grid_jitter ~rng:(Rng.create t.seed) ~rows ~cols ()
  | Sexp.List (Sexp.Atom "clusters" :: _) as spec ->
    let k = get_int spec "clusters" and m = get_int spec "per-cluster" in
    Gen.clusters ~rng:(Rng.create t.seed) ~clusters:k ~per_cluster:m ()
  | Sexp.List (Sexp.Atom "bridge" :: _) as spec ->
    Gen.bridge_cliques ~beta:(get_int spec "beta") ()
  | Sexp.List (Sexp.Atom shape :: _) as spec
    when List.mem shape [ "ring"; "path"; "clique"; "star" ] ->
    let n = get_int spec "n" in
    let g =
      match shape with
      | "ring" -> Gen.ring n
      | "path" -> Gen.path n
      | "clique" -> Gen.clique n
      | _ -> Gen.star n
    in
    Dual.classic g
  | s -> fail "unknown network %s" (Sexp.to_string s)

type report = {
  scenario : t;
  rounds : int;
  stats : Rn_sim.Engine.stats;
  valid : bool;
  violations : string list;
  outputs : int option array;
}

let run t =
  let dual = build_network t in
  let detector =
    if t.tau = 0 then Detector.perfect (Dual.g dual)
    else Detector.tau_complete ~rng:(Rng.create (t.seed + 77)) ~tau:t.tau dual
  in
  let h = Detector.h_graph detector in
  let det = Detector.static detector in
  let adversary = t.adversary and seed = t.seed in
  let finish ~kind rounds stats (outputs : int option array) =
    let valid, violations =
      match kind with
      | `Mis ->
        let r = Verify.Mis_check.check ~g:(Dual.g dual) ~h outputs in
        (Verify.Mis_check.ok r, r.violations)
      | `Ccds ->
        let r = Verify.Ccds_check.check ~h ~g':(Dual.g' dual) outputs in
        (Verify.Ccds_check.ok r, r.violations)
    in
    { scenario = t; rounds; stats; valid; violations; outputs }
  in
  match t.algorithm with
  | Mis ->
    let r = Core.Mis.run ~adversary ~seed ?b_bits:t.b_bits ~detector:det dual in
    finish ~kind:`Mis r.R.rounds r.R.stats r.R.outputs
  | Ccds_banned ->
    if t.tau > 0 then fail "ccds-banned requires (detector (tau 0))";
    let r = Core.Ccds.run ~adversary ~seed ?b_bits:t.b_bits ~detector:det dual in
    finish ~kind:`Ccds r.R.rounds r.R.stats r.R.outputs
  | Ccds_explore ->
    let r =
      Core.Explore_ccds.run ~adversary ~seed ?b_bits:t.b_bits ~tau:t.tau ~detector:det dual
    in
    finish ~kind:`Ccds r.R.rounds r.R.stats r.R.outputs
  | Ccds_tdma ->
    let r = Core.Tdma_ccds.run ~adversary ~seed ?b_bits:t.b_bits ~detector:det dual in
    finish ~kind:`Ccds r.R.rounds r.R.stats r.R.outputs
  | Async_mis ->
    let n = Dual.n dual in
    let spread = 4 * Rn_util.Ilog.log2_up n * Rn_util.Ilog.log2_up n in
    let wake = Array.init n (fun i -> 1 + (((i * 131) + seed) mod spread)) in
    let r = Core.Async_mis.run ~adversary ~seed ~wake ~detector:det dual in
    finish ~kind:`Mis r.R.rounds r.R.stats r.R.outputs

let render (r : report) =
  let b = Buffer.create 256 in
  let size = Array.fold_left (fun c o -> if o = Some 1 then c + 1 else c) 0 r.outputs in
  Buffer.add_string b
    (Printf.sprintf "rounds=%d sends=%d collisions=%d bits=%d\n" r.rounds r.stats.sends
       r.stats.collisions r.stats.bits_sent);
  Buffer.add_string b
    (Printf.sprintf "structure: %d of %d processes output 1\n" size (Array.length r.outputs));
  Buffer.add_string b (Printf.sprintf "valid: %b\n" r.valid);
  List.iter (fun v -> Buffer.add_string b (Printf.sprintf "  violation: %s\n" v)) r.violations;
  Buffer.contents b

let run_file path = run (parse (Sexp.parse_file path))

(* End-to-end tests of the Section 4 MIS algorithm. *)

module R = Core.Radio
module Graph = Rn_graph.Graph
module Dual = Rn_graph.Dual
module Gen = Rn_graph.Gen
module Detector = Rn_detect.Detector
module Verify = Rn_verify.Verify
module Rng = Rn_util.Rng

let qtest = QCheck_alcotest.to_alcotest

let run_mis ?params ?(adversary = Rn_sim.Adversary.bernoulli 0.5) ?(seed = 1) dual =
  let det = Detector.perfect (Dual.g dual) in
  let res = Core.Mis.run ?params ~seed ~adversary ~detector:(Detector.static det) dual in
  (res, det)

let check_solves ?adversary ?seed name dual =
  let res, det = run_mis ?adversary ?seed dual in
  let rep = Verify.Mis_check.check ~g:(Dual.g dual) ~h:(Detector.h_graph det) res.R.outputs in
  Alcotest.(check bool)
    (name ^ ": " ^ String.concat "; " rep.violations)
    true (Verify.Mis_check.ok rep);
  res

let test_clique () =
  let res = check_solves "clique" (Dual.classic (Gen.clique 16)) in
  let members = Array.fold_left (fun c o -> if o = Some 1 then c + 1 else c) 0 res.R.outputs in
  Alcotest.check Alcotest.int "clique MIS is a single node" 1 members

let test_path () = ignore (check_solves "path" (Dual.classic (Gen.path 20)))
let test_ring () = ignore (check_solves "ring" (Dual.classic (Gen.ring 17)))

let test_star () =
  (* K_{1,4} is the largest star realisable in the unit-disk embedding the
     model assumes (leaves pairwise > 1 apart, all within 1 of the
     centre); bigger stars are outside the paper's guarantees. *)
  let res = check_solves ~seed:2 "star" (Dual.classic (Gen.star 5)) in
  let members =
    res.R.outputs |> Array.to_seqi
    |> Seq.filter_map (fun (v, o) -> if o = Some 1 then Some v else None)
    |> List.of_seq
  in
  Alcotest.(check bool) "centre alone or all leaves" true
    (members = [ 0 ] || members = List.init 4 (fun i -> i + 1))

let test_two_nodes () =
  let res = check_solves "pair" (Dual.classic (Gen.path 2)) in
  let members = Array.fold_left (fun c o -> if o = Some 1 then c + 1 else c) 0 res.R.outputs in
  Alcotest.check Alcotest.int "exactly one of two" 1 members

let test_geometric_seeds () =
  for seed = 1 to 5 do
    let dual = Rn_harness.Harness.geometric ~seed ~n:60 ~degree:10 () in
    ignore (check_solves ~seed (Printf.sprintf "geometric seed %d" seed) dual)
  done

let test_grid () =
  let rng = Rng.create 6 in
  let dual = Gen.grid_jitter ~rng ~rows:7 ~cols:7 () in
  ignore (check_solves "grid" dual)

let test_adversaries () =
  let dual = Rn_harness.Harness.geometric ~seed:2 ~n:50 ~degree:9 () in
  List.iter
    (fun (name, adversary) -> ignore (check_solves ~adversary name dual))
    [
      ("silent", Rn_sim.Adversary.silent);
      ("bernoulli 0.2", Rn_sim.Adversary.bernoulli 0.2);
      ("bernoulli 0.5", Rn_sim.Adversary.bernoulli 0.5);
      ("harassing 0.5", Rn_sim.Adversary.harassing 0.5);
    ]

let test_schedule_length () =
  let dual = Dual.classic (Gen.ring 32) in
  let res, _ = run_mis dual in
  Alcotest.check Alcotest.int "fixed schedule"
    (Core.Mis.schedule_rounds Core.Params.default ~n:32)
    res.R.rounds;
  Alcotest.(check bool) "no timeout" false res.R.timed_out

let test_decided_within_schedule () =
  let dual = Rn_harness.Harness.geometric ~seed:3 ~n:48 ~degree:8 () in
  let res, _ = run_mis dual in
  Array.iter
    (function
      | Some r -> Alcotest.(check bool) "decided within run" true (r >= 1 && r <= res.R.rounds)
      | None -> Alcotest.fail "undecided process")
    res.R.decided_round

let test_outputs_match_returns () =
  let dual = Rn_harness.Harness.geometric ~seed:4 ~n:48 ~degree:8 () in
  let res, det = run_mis dual in
  Array.iteri
    (fun v outcome ->
      match outcome with
      | Some (o : Core.Mis.outcome) ->
        Alcotest.(check bool) "in_mis iff output 1" true
          (o.in_mis = (res.R.outputs.(v) = Some 1));
        (* every reported MIS neighbour is a detector neighbour that output 1 *)
        List.iter
          (fun u ->
            Alcotest.(check bool) "neighbour in detector" true (Detector.mem det v u);
            Alcotest.(check bool) "neighbour output 1" true (res.R.outputs.(u) = Some 1))
          o.mis_neighbors
      | None -> Alcotest.fail "no return")
    res.R.returns

let test_determinism () =
  let dual = Rn_harness.Harness.geometric ~seed:5 ~n:40 ~degree:8 () in
  let a, _ = run_mis ~seed:9 dual in
  let b, _ = run_mis ~seed:9 dual in
  Alcotest.(check bool) "same outputs" true (a.R.outputs = b.R.outputs);
  let c, _ = run_mis ~seed:10 dual in
  ignore c (* different seed may or may not give a different MIS; just runs *)

let test_covered_have_dominator_knowledge () =
  (* every 0-output process must know at least one MIS neighbour — this is
     what the CCDS algorithm builds on *)
  let dual = Rn_harness.Harness.geometric ~seed:6 ~n:48 ~degree:8 () in
  let res, _ = run_mis dual in
  Array.iteri
    (fun v outcome ->
      match (outcome, res.R.outputs.(v)) with
      | Some (o : Core.Mis.outcome), Some 0 ->
        Alcotest.(check bool) "covered process knows a dominator" true (o.mis_neighbors <> [])
      | _ -> ())
    res.R.returns

let test_b_bits_sufficient () =
  (* contender/announce messages fit in Theta(log n) bits *)
  let dual = Dual.classic (Gen.ring 32) in
  let det = Detector.perfect (Dual.g dual) in
  let b = Core.Msg.tag_bits + Rn_util.Ilog.log2_up 32 + 1 in
  let res = Core.Mis.run ~seed:1 ~b_bits:b ~detector:(Detector.static det) dual in
  Alcotest.(check bool) "runs with b = Theta(log n)" false res.R.timed_out

(* The w.h.p. guarantee needs the paper's phase-length constant: the
   default c_phase = 6 (tuned for throughput in the experiments) leaves
   a small per-instance failure probability that a 200-seed generator
   space does hit — e.g. instance seed 100 below, found via
   QCHECK_SEED=720430007.  c_phase = 8 clears every seed in [10, 200]. *)
let whp_params = { Core.Params.default with Core.Params.c_phase = 8 }

let prop_random_geometric_solves =
  QCheck.Test.make ~name:"MIS solves on random geometric instances" ~count:8
    (QCheck.int_range 10 200) (fun seed ->
      let dual = Rn_harness.Harness.geometric ~seed ~n:40 ~degree:8 () in
      let res, det = run_mis ~params:whp_params ~seed dual in
      Verify.Mis_check.ok
        (Verify.Mis_check.check ~g:(Dual.g dual) ~h:(Detector.h_graph det) res.R.outputs))

(* Pinned regression for the flake above: under the default budget this
   instance produced adjacent MIS members (22-31 and 22-36). *)
let test_whp_budget_regression () =
  let dual = Rn_harness.Harness.geometric ~seed:100 ~n:40 ~degree:8 () in
  let res, det = run_mis ~params:whp_params ~seed:100 dual in
  let rep = Verify.Mis_check.check ~g:(Dual.g dual) ~h:(Detector.h_graph det) res.R.outputs in
  Alcotest.(check bool)
    ("seed 100: " ^ String.concat "; " rep.violations)
    true (Verify.Mis_check.ok rep)

let test_density_corollary () =
  let dual = Rn_harness.Harness.geometric ~seed:7 ~n:80 ~degree:12 () in
  let res, _ = run_mis dual in
  let members = ref [] in
  Array.iteri (fun v o -> if o = Some 1 then members := v :: !members) res.R.outputs;
  let pos = match Dual.positions dual with Some p -> p | None -> assert false in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "Cor 4.7 at r=%.0f" r)
        true
        (Verify.Density.respects_corollary ~pos ~members:!members r))
    [ 1.0; 2.0; 3.0 ]

(* What [rn_cli mis --trace] reads from one run: an observer that counts
   each round's broadcasters sees every round once (an observer turns
   off fast-forward), the counts add up to the run's sends, and
   [decided_round] holds each process's first decision, whatever it
   outputs later. *)
let traced_run dual body =
  let det = Detector.perfect (Dual.g dual) in
  let counts = ref [] in
  let observer (v : R.view) = counts := Array.length v.R.view_broadcasters :: !counts in
  let cfg = R.config ~seed:1 ~observer ~detector:(Detector.static det) dual in
  let res = R.run cfg body in
  (res, Array.of_list (List.rev !counts))

(* A scripted run: both processes send in round 1, nobody in round 2,
   process 1 alone in round 3. *)
let test_trace_counts () =
  let dual = Dual.classic (Gen.path 2) in
  let res, counts =
    traced_run dual (fun ctx ->
        let me = R.me ctx in
        let msg = Some (Core.Msg.Contender { src = me; lds = None }) in
        ignore (R.sync ctx msg);
        ignore (R.sync ctx None);
        ignore (R.sync ctx (if me = 1 then msg else None)))
  in
  Alcotest.(check (array int)) "counts" [| 2; 0; 1 |] counts;
  Alcotest.(check int) "sends" 3 res.R.stats.Rn_sim.Engine.sends

(* Process 0 decides in round 1, process 1 in round 2; both repeat their
   output in round 3, which keeps the first round. *)
let test_trace_first_decisions_only () =
  let dual = Dual.classic (Gen.path 2) in
  let res, _ =
    traced_run dual (fun ctx ->
        let me = R.me ctx in
        ignore (R.sync ctx None);
        if me = 0 then R.output ctx 1;
        ignore (R.sync ctx None);
        if me = 1 then R.output ctx 0;
        ignore (R.sync ctx None);
        R.output ctx (if me = 0 then 1 else 0))
  in
  Alcotest.(check (array (option int)))
    "decisions" [| Some 1; Some 0 |] res.R.outputs;
  Alcotest.(check (array (option int)))
    "first decisions only" [| Some 1; Some 2 |] res.R.decided_round

let test_trace_with_engine () =
  let dual = Dual.classic (Gen.ring 16) in
  let res, counts =
    traced_run dual (fun ctx ->
        Core.Mis.body ~on_decide:(fun o -> R.output ctx o) Core.Params.default ctx)
  in
  Alcotest.(check int) "rounds observed" res.R.rounds (Array.length counts);
  Alcotest.(check int)
    "broadcasters add up to sends" res.R.stats.Rn_sim.Engine.sends
    (Array.fold_left ( + ) 0 counts);
  Array.iteri
    (fun v d ->
      match (d, res.R.outputs.(v)) with
      | Some r, Some _ ->
        Alcotest.(check bool) (Printf.sprintf "%d decided in the run" v) true
          (r >= 1 && r <= res.R.rounds)
      | _ -> Alcotest.failf "process %d has no first decision" v)
    res.R.decided_round;
  (* a repeated output keeps the round of the first *)
  let res, _ =
    traced_run dual (fun ctx ->
        ignore (R.sync ctx None);
        R.output ctx 1;
        R.idle ctx 2;
        R.output ctx 1)
  in
  Alcotest.(check (array (option int)))
    "first decisions only" (Array.make 16 (Some 1)) res.R.decided_round

let () =
  Alcotest.run "mis"
    [
      ( "topologies",
        [
          Alcotest.test_case "clique" `Quick test_clique;
          Alcotest.test_case "path" `Quick test_path;
          Alcotest.test_case "ring" `Quick test_ring;
          Alcotest.test_case "star" `Quick test_star;
          Alcotest.test_case "two nodes" `Quick test_two_nodes;
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "geometric seeds" `Slow test_geometric_seeds;
        ] );
      ( "trace",
        [
          Alcotest.test_case "counts" `Quick test_trace_counts;
          Alcotest.test_case "first decisions only" `Quick test_trace_first_decisions_only;
          Alcotest.test_case "with engine" `Quick test_trace_with_engine;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "adversaries" `Slow test_adversaries;
          Alcotest.test_case "fixed schedule length" `Quick test_schedule_length;
          Alcotest.test_case "decided within schedule" `Quick test_decided_within_schedule;
          Alcotest.test_case "outputs match returns" `Quick test_outputs_match_returns;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "covered know dominators" `Quick
            test_covered_have_dominator_knowledge;
          Alcotest.test_case "b = Theta(log n) suffices" `Quick test_b_bits_sufficient;
          Alcotest.test_case "density corollary" `Quick test_density_corollary;
          Alcotest.test_case "w.h.p. budget regression (seed 100)" `Quick
            test_whp_budget_regression;
          qtest prop_random_geometric_solves;
        ] );
    ]

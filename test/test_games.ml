(* Tests for the Section 7 games and reductions. *)

module Rng = Rn_util.Rng
module Single = Rn_games.Single_game
module Double = Rn_games.Double_game
module Reduction = Rn_games.Reduction
module Graph = Rn_graph.Graph
module Dual = Rn_graph.Dual

let qtest = QCheck_alcotest.to_alcotest

(* --- single hitting game --- *)

let test_permutation_hits_within_beta () =
  let rng = Rng.create 1 in
  for target = 1 to 16 do
    match Single.play rng Permutation ~beta:16 ~target ~max_rounds:16 with
    | Some r -> Alcotest.(check bool) "within beta" true (r >= 1 && r <= 16)
    | None -> Alcotest.fail "permutation must hit within beta"
  done

let test_memoryless_eventually_hits () =
  let rng = Rng.create 2 in
  match Single.play rng Memoryless ~beta:8 ~target:5 ~max_rounds:10_000 with
  | Some _ -> ()
  | None -> Alcotest.fail "memoryless should hit in 10k rounds"

let test_target_out_of_range () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "bad target" (Invalid_argument "Single_game.play: target")
    (fun () -> ignore (Single.play rng Permutation ~beta:4 ~target:5 ~max_rounds:10))

let test_mean_rounds_linear () =
  let rng = Rng.create 4 in
  let m8 = Single.mean_rounds rng Permutation ~beta:8 ~samples:500 in
  let m64 = Single.mean_rounds rng Permutation ~beta:64 ~samples:500 in
  (* optimal means are about (beta+1)/2 *)
  Alcotest.(check bool) "mean beta=8 near 4.5" true (abs_float (m8 -. 4.5) < 1.0);
  Alcotest.(check bool) "mean beta=64 near 32.5" true (abs_float (m64 -. 32.5) < 5.0);
  Alcotest.(check bool) "linear growth" true (m64 /. m8 > 4.0)

let test_custom_strategy () =
  let rng = Rng.create 5 in
  (* a sweep strategy as Custom *)
  let sweep = Single.Custom (fun _rng ~beta ~round -> 1 + ((round - 1) mod beta)) in
  Alcotest.(check (option Alcotest.int))
    "sweep hits target 3 at round 3" (Some 3)
    (Single.play rng sweep ~beta:8 ~target:3 ~max_rounds:8)

let prop_quantile_at_least_mean_target =
  QCheck.Test.make ~name:"p90 worst target >= beta/2 (no free lunch)" ~count:5
    (QCheck.int_range 4 32) (fun beta ->
      let rng = Rng.create beta in
      Single.quantile_rounds rng Permutation ~beta ~samples:50 ~q:0.9
      >= float_of_int beta /. 2.0)

(* The hitting game as it was first written: [play] builds every one of
   the [max_rounds] guesses with [Single.guesses] and then scans them.
   [Single.play] stops drawing at the hit and skips the rest of the
   stream; the means, the quantiles and the stream after them must not
   move. *)
module Single_ref = struct
  let play rng strategy ~beta ~target ~max_rounds =
    let gs = Single.guesses rng strategy ~beta ~max_rounds in
    let rec loop i =
      if i >= Array.length gs then None
      else if gs.(i) = target then Some (i + 1)
      else loop (i + 1)
    in
    loop 0

  let mean_rounds rng strategy ~beta ~samples =
    let total = ref 0 in
    let max_rounds = 1000 * beta in
    for _ = 1 to samples do
      let target = 1 + Rng.int rng beta in
      match play rng strategy ~beta ~target ~max_rounds with
      | Some r -> total := !total + r
      | None -> total := !total + max_rounds
    done;
    float_of_int !total /. float_of_int samples

  let quantile_rounds rng strategy ~beta ~samples ~q =
    let worst = ref 0.0 in
    let max_rounds = 1000 * beta in
    for target = 1 to beta do
      let times =
        Array.init samples (fun _ ->
            match play rng strategy ~beta ~target ~max_rounds with
            | Some r -> float_of_int r
            | None -> float_of_int max_rounds)
      in
      let t = Rn_util.Stats.percentile times q in
      if t > !worst then worst := t
    done;
    !worst
end

(* A custom automaton that draws a varying number of times per guess
   (round mod 3 extra draws), and one that never hits target 1, so that
   the whole budget is spent. *)
let strategies =
  [
    ("permutation", Single.Permutation);
    ("memoryless", Single.Memoryless);
    ( "custom, varying draws",
      Single.Custom
        (fun rng ~beta ~round ->
          for _ = 1 to round mod 3 do
            ignore (Rng.bits rng)
          done;
          1 + Rng.int rng beta) );
    ("custom, misses 1", Single.Custom (fun rng ~beta ~round:_ -> 2 + Rng.int rng (beta - 1)));
  ]

let prop_single_matches_reference =
  QCheck.Test.make ~name:"mean and quantile = array-building reference, same stream" ~count:30
    QCheck.(triple (int_range 0 3) (int_range 2 8) small_nat)
    (fun (six, beta, seed) ->
      let _, strategy = List.nth strategies six in
      let r1 = Rng.create seed and r2 = Rng.create seed in
      let m1 = Single.mean_rounds r1 strategy ~beta ~samples:5 in
      let m2 = Single_ref.mean_rounds r2 strategy ~beta ~samples:5 in
      let q1 = Single.quantile_rounds r1 strategy ~beta ~samples:3 ~q:0.9 in
      let q2 = Single_ref.quantile_rounds r2 strategy ~beta ~samples:3 ~q:0.9 in
      m1 = m2 && q1 = q2 && Rng.bits r1 = Rng.bits r2)

(* One quick E4a cell, beta = 64: both means over 200 samples, then the
   permutation's p90 over 50, all from one stream. *)
let test_single_matches_reference_e4a () =
  let cell (mean, quantile) rng =
    let perm = mean rng Single.Permutation ~beta:64 ~samples:200 in
    let memless = mean rng Single.Memoryless ~beta:64 ~samples:200 in
    let p90 = quantile rng Single.Permutation ~beta:64 ~samples:50 ~q:0.9 in
    (perm, memless, p90, Rng.bits rng)
  in
  let mean = Single.mean_rounds and quantile = Single.quantile_rounds in
  let ref_mean = Single_ref.mean_rounds and ref_quantile = Single_ref.quantile_rounds in
  let p1, m1, q1, b1 = cell (mean, quantile) (Rng.create (0xE4A + 64)) in
  let p2, m2, q2, b2 = cell (ref_mean, ref_quantile) (Rng.create (0xE4A + 64)) in
  Alcotest.(check (float 0.0)) "permutation mean" p2 p1;
  Alcotest.(check (float 0.0)) "memoryless mean" m2 m1;
  Alcotest.(check (float 0.0)) "p90" q2 q1;
  Alcotest.(check int) "stream after" b2 b1

(* --- double hitting game --- *)

let test_sweep_players_solve () =
  let beta = 12 in
  let pa, pb = Double.sweep_players ~beta in
  let worst, unsolved = Double.worst_case ~pa ~pb ~beta ~seed:1 in
  Alcotest.check Alcotest.int "all pairs solved" 0 unsolved;
  Alcotest.(check bool) "within beta rounds" true (worst <= beta)

let test_trace_hits () =
  let trace = [| [ 3 ]; []; [ 1; 2 ]; [ 5 ] |] in
  Alcotest.(check (option Alcotest.int)) "hit at 1" (Some 1) (Double.trace_hits trace 3);
  Alcotest.(check (option Alcotest.int)) "hit at 3" (Some 3) (Double.trace_hits trace 2);
  Alcotest.(check (option Alcotest.int)) "miss" None (Double.trace_hits trace 9)

let test_double_to_single () =
  let beta2 = 8 in
  let pa, pb = Double.sweep_players ~beta:beta2 in
  let automaton = Double.double_to_single ~pa ~pb ~beta2 ~rounds:beta2 ~samples:3 ~seed:2 in
  for target = 1 to beta2 / 2 do
    match Double.play_single automaton ~target ~seed:3 with
    | Some r -> Alcotest.(check bool) "hit within 2*beta" true (r <= beta2)
    | None -> Alcotest.fail (Printf.sprintf "target %d never hit" target)
  done

(* --- the CCDS reduction (Lemma 7.2) --- *)

let test_clique_trace_shape () =
  let beta = 4 in
  let trace = Reduction.ccds_clique_trace ~beta ~seed:1 () in
  Alcotest.(check bool) "trace non-trivial" true (Array.length trace > 100);
  Array.iter
    (List.iter (fun g ->
         Alcotest.(check bool) "guesses in [1,beta]" true (g >= 1 && g <= beta)))
    trace;
  (* the CCDS of a clique contains at least one process: termination
     guesses exist *)
  Alcotest.(check bool) "some guess emitted" true
    (Array.exists (fun gs -> gs <> []) trace)

let test_ccds_players_solve_all_pairs () =
  let beta = 4 in
  let pa, pb = Reduction.ccds_players ~beta () in
  let worst, unsolved = Double.worst_case ~pa ~pb ~beta ~seed:5 in
  Alcotest.check Alcotest.int "all pairs solved" 0 unsolved;
  Alcotest.(check bool) "positive solve time" true (worst > 0)

let test_planted_detector_is_1_complete () =
  let beta = 5 in
  let dual = Reduction.clique_with_phantom ~beta in
  let det = Reduction.planted_detector ~beta in
  Alcotest.(check bool) "1-complete" true
    (Rn_detect.Detector.is_tau_complete det ~tau:1 (Dual.g dual))

let test_bridge_detector_is_1_complete () =
  let beta = 5 in
  let dual = Rn_graph.Gen.bridge_cliques ~beta () in
  let det = Reduction.bridge_detector ~beta in
  Alcotest.(check bool) "1-complete" true
    (Rn_detect.Detector.is_tau_complete det ~tau:1 (Dual.g dual));
  (* H of the planted detector is exactly G: cliques plus the bridge *)
  let h = Rn_detect.Detector.h_graph det in
  Alcotest.(check bool) "H = G" true (Graph.edges h = Graph.edges (Dual.g dual))

let test_bridge_run_solves () =
  let r = Reduction.bridge_run ~beta:4 ~seed:1 () in
  Alcotest.(check bool) ("solved: " ^ String.concat ";" r.report.violations) true r.solved

let test_bridge_rounds_grow () =
  let r4 = Reduction.bridge_run ~beta:4 ~seed:1 () in
  let r16 = Reduction.bridge_run ~beta:16 ~seed:1 () in
  Alcotest.(check bool) "rounds grow with beta" true
    (float_of_int r16.rounds /. float_of_int r4.rounds > 2.0)

let () =
  Alcotest.run "games"
    [
      ( "single",
        [
          Alcotest.test_case "permutation within beta" `Quick test_permutation_hits_within_beta;
          Alcotest.test_case "memoryless hits" `Quick test_memoryless_eventually_hits;
          Alcotest.test_case "target range" `Quick test_target_out_of_range;
          Alcotest.test_case "means linear" `Quick test_mean_rounds_linear;
          Alcotest.test_case "custom strategy" `Quick test_custom_strategy;
          qtest prop_quantile_at_least_mean_target;
          qtest prop_single_matches_reference;
          Alcotest.test_case "E4a sizes = reference" `Quick test_single_matches_reference_e4a;
        ] );
      ( "double",
        [
          Alcotest.test_case "sweep players" `Quick test_sweep_players_solve;
          Alcotest.test_case "trace hits" `Quick test_trace_hits;
          Alcotest.test_case "double-to-single" `Quick test_double_to_single;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "clique trace" `Quick test_clique_trace_shape;
          Alcotest.test_case "ccds players solve" `Slow test_ccds_players_solve_all_pairs;
          Alcotest.test_case "planted detector" `Quick test_planted_detector_is_1_complete;
          Alcotest.test_case "bridge detector" `Quick test_bridge_detector_is_1_complete;
          Alcotest.test_case "bridge run solves" `Quick test_bridge_run_solves;
          Alcotest.test_case "bridge rounds grow" `Slow test_bridge_rounds_grow;
        ] );
    ]

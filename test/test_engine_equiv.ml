(* Differential tests for the engine hot-path rework: [Engine.run] (live
   worklist, wake buckets, idle parking, silent-round fast-forward, cached
   detectors, per-round adversary derivation) must agree *exactly* — same
   [outputs], [returns], [rounds], [decided_round], [stats], [timed_out] —
   with [Engine.run_reference], the straightforward full-scan loop, across
   random graphs, seeds, wake schedules, adversaries, stop conditions and
   bodies (scripted send/listen/idle mixes, MIS, TDMA/CCDS, flooding).

   Since results are records of arrays/options/ints, whole-result
   structural equality is the comparison. *)

module Graph = Rn_graph.Graph
module Dual = Rn_graph.Dual
module Gen = Rn_graph.Gen
module Detector = Rn_detect.Detector
module Adversary = Rn_sim.Adversary
module Rng = Rn_util.Rng
module R = Core.Radio

let qtest = QCheck_alcotest.to_alcotest

module M = struct
  type t = int

  let size_bits ~n:_ _ = 16
  let pp = Fmt.int
end

module E = Rn_sim.Engine.Make (M)

let adversaries =
  [|
    ("silent", Adversary.silent);
    ("all_gray", Adversary.all_gray);
    ("bernoulli 0.5", Adversary.bernoulli 0.5);
    ("bernoulli 0.9", Adversary.bernoulli 0.9);
    ("harassing 0.7", Adversary.harassing 0.7);
    ("spiteful", Adversary.spiteful);
    ("jamming", Adversary.jamming);
  |]

(* Random dual graph: each pair becomes reliable, gray, or absent. *)
let build_dual n gseed =
  let rng = Rng.create gseed in
  let es = ref [] and grays = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let r = Rng.int rng 10 in
      if r < 4 then es := (u, v) :: !es else if r < 7 then grays := (u, v) :: !grays
    done
  done;
  Dual.make ~g:(Graph.of_edges n !es) ~gray:!grays ()

type scenario = {
  dual : Dual.t;
  adv_name : string;
  adv : Adversary.t;
  wake : int array option;
  stop : Rn_sim.Engine.stop_condition;
  seed : int;
  max_rounds : int;
}

let scenario_of ~max_wake ~max_rounds case_seed =
  let rng = Rng.create (0xE0_1AB + case_seed) in
  let n = 2 + Rng.int rng 8 in
  let dual = build_dual n (Rng.bits rng) in
  let adv_name, adv = adversaries.(Rng.int rng (Array.length adversaries)) in
  let wake =
    if Rng.bool rng 0.4 then None
    else Some (Array.init n (fun _ -> 1 + Rng.int rng max_wake))
  in
  let stop =
    if Rng.bool rng 0.5 then Rn_sim.Engine.All_done
    else Rn_sim.Engine.At_round (5 + Rng.int rng 80)
  in
  { dual; adv_name; adv; wake; stop; seed = Rng.int rng 10_000; max_rounds }

let pp_scenario s =
  Printf.sprintf "n=%d adv=%s wake=%s stop=%s seed=%d"
    (Dual.n s.dual) s.adv_name
    (match s.wake with
    | None -> "sync"
    | Some w -> String.concat "," (List.map string_of_int (Array.to_list w)))
    (match s.stop with
    | Rn_sim.Engine.All_done -> "all_done"
    | Rn_sim.Engine.All_decided -> "all_decided"
    | Rn_sim.Engine.At_round r -> Printf.sprintf "at_round %d" r)
    s.seed

let config_of s =
  let det = Detector.static (Detector.perfect (Dual.g s.dual)) in
  E.config ~adversary:s.adv ~seed:s.seed ?wake:s.wake ~stop:s.stop
    ~max_rounds:s.max_rounds ~detector:det s.dual

(* A scripted body drawing its actions from the process RNG: broadcast,
   listen, batched idle, parked listen, decide.  With [unroll] the idle
   stretch is replaced by the equivalent sequence of silent syncs, and the
   parked listen by silent syncs that stop at the first [Recv] — neither
   may change anything observable. *)
let random_body ?(unroll = false) ~steps ~max_idle ctx =
  let rng = E.rng ctx in
  let me = E.me ctx in
  let log = ref [] in
  let decided = ref false in
  let note = function
    | E.Recv m -> log := m :: !log
    | E.Own -> log := -1 :: !log
    | E.Silence -> ()
  in
  let listen_unrolled k =
    let rec go i =
      if i > k then None
      else
        match E.sync ctx None with
        | E.Recv m -> Some (i, m)
        | E.Own | E.Silence -> go (i + 1)
    in
    go 1
  in
  for _ = 1 to steps do
    match Rng.int rng 7 with
    | 0 | 1 -> note (E.sync ctx (Some me))
    | 2 | 3 -> note (E.sync ctx None)
    | 4 ->
      let k = 1 + Rng.int rng max_idle in
      if unroll then
        for _ = 1 to k do
          ignore (E.sync ctx None)
        done
      else E.idle ctx k
    | 5 -> (
      let k = 1 + Rng.int rng max_idle in
      match if unroll then listen_unrolled k else E.listen ctx k with
      | Some (i, m) -> log := m :: (-1 - i) :: !log
      | None -> ())
    | _ ->
      if (not !decided) && Rng.int rng 3 = 0 then begin
        decided := true;
        E.output ctx (Rng.int rng 2)
      end;
      note (E.sync ctx None)
  done;
  (!log, E.round ctx)

let prop_random_bodies =
  QCheck.Test.make ~name:"run = run_reference (random send/listen/idle bodies)" ~count:150
    QCheck.(small_nat)
    (fun case ->
      let s = scenario_of ~max_wake:12 ~max_rounds:120 case in
      let cfg = config_of s in
      let body = random_body ~steps:12 ~max_idle:6 in
      let fast = E.run cfg body in
      let oracle = E.run_reference cfg body in
      let unrolled = E.run cfg (random_body ~unroll:true ~steps:12 ~max_idle:6) in
      if fast <> oracle then QCheck.Test.fail_reportf "run <> run_reference: %s" (pp_scenario s);
      if fast <> unrolled then
        QCheck.Test.fail_reportf "idle/listen <> unrolled silent syncs: %s" (pp_scenario s);
      true)

(* Sparse wakes and long idles: the engine fast-forwards whole stretches of
   silent rounds in one jump; the reference grinds through each round (and
   consults the adversary in all of them).  Results must still match. *)
let prop_fast_forward =
  QCheck.Test.make ~name:"silent-round fast-forward never changes results" ~count:60
    QCheck.(small_nat)
    (fun case ->
      let s = scenario_of ~max_wake:400 ~max_rounds:3_000 case in
      let s = if s.stop = Rn_sim.Engine.All_done then s else { s with stop = Rn_sim.Engine.All_done } in
      let cfg = config_of s in
      let body ctx =
        let rng = E.rng ctx in
        let heard = ref 0 in
        for _ = 1 to 3 do
          E.idle ctx (20 + Rng.int rng 200);
          (match E.sync ctx (Some (E.me ctx)) with E.Recv _ -> incr heard | _ -> ());
          match E.sync ctx None with E.Recv _ -> incr heard | _ -> ()
        done;
        !heard
      in
      let fast = E.run cfg body in
      let oracle = E.run_reference cfg body in
      if fast <> oracle then QCheck.Test.fail_reportf "fast-forward mismatch: %s" (pp_scenario s);
      if fast.E.stats.silent_rounds <> oracle.E.stats.silent_rounds then
        QCheck.Test.fail_reportf "silent_rounds mismatch: %s" (pp_scenario s);
      true)

(* Flooding: one informed source, everyone forwards what they heard with
   probability 1/2.  Exercises Recv payload paths under every adversary. *)
let prop_flood =
  QCheck.Test.make ~name:"run = run_reference (flood body)" ~count:80 QCheck.(small_nat)
    (fun case ->
      let s = scenario_of ~max_wake:6 ~max_rounds:500 case in
      let s = { s with stop = Rn_sim.Engine.At_round 40 } in
      let cfg = config_of s in
      let body ctx =
        let token = ref (if E.me ctx = 0 then Some 0 else None) in
        let hops = ref [] in
        for _ = 1 to 40 do
          let send =
            match !token with
            | Some t when Rng.bool (E.rng ctx) 0.5 -> Some (t + 1)
            | _ -> None
          in
          match E.sync ctx send with
          | E.Recv t ->
            hops := t :: !hops;
            if !token = None then begin
              token := Some t;
              E.output ctx 1
            end
          | E.Own | E.Silence -> ()
        done;
        !hops
      in
      let fast = E.run cfg body in
      let oracle = E.run_reference cfg body in
      if fast <> oracle then QCheck.Test.fail_reportf "flood mismatch: %s" (pp_scenario s);
      true)

(* The real algorithm bodies, through the shared Radio instantiation. *)
let radio_config s ~stop =
  let det = Detector.static (Detector.perfect (Dual.g s.dual)) in
  R.config ~adversary:s.adv ~seed:s.seed ~stop ~max_rounds:s.max_rounds ~detector:det s.dual

let prop_mis =
  QCheck.Test.make ~name:"run = run_reference (MIS body)" ~count:25 QCheck.(small_nat)
    (fun case ->
      let s = scenario_of ~max_wake:1 ~max_rounds:100_000 case in
      let s = { s with wake = None } in
      let params = Core.Params.default in
      let n = Dual.n s.dual in
      let stop = R.At_round (Core.Mis.schedule_rounds params ~n) in
      let cfg = radio_config s ~stop in
      let body ctx = Core.Mis.body params ctx in
      let fast = R.run cfg body in
      let oracle = R.run_reference cfg body in
      if fast <> oracle then QCheck.Test.fail_reportf "MIS mismatch: %s" (pp_scenario s);
      true)

let prop_tdma =
  QCheck.Test.make ~name:"run = run_reference (TDMA/CCDS body)" ~count:20 QCheck.(small_nat)
    (fun case ->
      let s = scenario_of ~max_wake:1 ~max_rounds:100_000 case in
      let s = { s with wake = None } in
      let params = Core.Params.default in
      let cfg = radio_config s ~stop:R.All_done in
      let body ctx = Core.Tdma_ccds.body params ctx in
      let fast = R.run cfg body in
      let oracle = R.run_reference cfg body in
      if fast <> oracle then QCheck.Test.fail_reportf "TDMA mismatch: %s" (pp_scenario s);
      true)

(* Unit checks pinning down the fast-forward bookkeeping. *)

let path2 = Dual.classic (Gen.path 2)

let test_far_wake_jump () =
  let det = Detector.static (Detector.perfect (Dual.g path2)) in
  let cfg = E.config ~wake:[| 1; 300 |] ~detector:det path2 in
  let body ctx = ignore (E.sync ctx (Some (E.me ctx))) in
  let fast = E.run cfg body in
  let oracle = E.run_reference cfg body in
  Alcotest.(check bool) "identical results" true (fast = oracle);
  Alcotest.(check int) "runs to the late wake" 300 fast.E.rounds;
  (* rounds 2..299 have no broadcaster: fast-forwarded, still counted *)
  Alcotest.(check int) "silent rounds counted" 298 fast.E.stats.silent_rounds

let test_idle_past_stop () =
  (* A fiber idling beyond At_round: the run ends mid-stretch. *)
  let det = Detector.static (Detector.perfect (Dual.g path2)) in
  let cfg = E.config ~stop:(Rn_sim.Engine.At_round 10) ~detector:det path2 in
  let body ctx =
    ignore (E.sync ctx (Some (E.me ctx)));
    E.idle ctx 1_000;
    E.round ctx
  in
  let fast = E.run cfg body in
  let oracle = E.run_reference cfg body in
  Alcotest.(check bool) "identical results" true (fast = oracle);
  Alcotest.(check int) "stopped at 10" 10 fast.E.rounds;
  Alcotest.(check bool) "no return yet" true (fast.E.returns = [| None; None |])

(* "Park forever": the expiry key saturates at max_int instead of wrapping
   negative, so the run still fast-forwards to its stop round. *)
let test_idle_forever_fast_forwards () =
  let det = Detector.static (Detector.perfect (Dual.g path2)) in
  let cfg = E.config ~stop:(Rn_sim.Engine.At_round 1_000_000) ~detector:det path2 in
  let body ctx =
    ignore (E.sync ctx (Some (E.me ctx)));
    E.idle ctx max_int
  in
  Rn_util.Timing.reset ();
  Rn_util.Timing.set_enabled true;
  let res =
    Fun.protect
      ~finally:(fun () -> Rn_util.Timing.set_enabled false)
      (fun () -> E.run cfg body)
  in
  let prof = Rn_util.Timing.snapshot () in
  Rn_util.Timing.reset ();
  Alcotest.(check int) "stopped at 10^6" 1_000_000 res.E.rounds;
  Alcotest.(check int) "one round executed" 1 prof.Rn_util.Timing.rounds;
  Alcotest.(check int) "the rest fast-forwarded" 999_999 prof.Rn_util.Timing.silent;
  Alcotest.(check int) "silent rounds counted" 999_999 res.E.stats.silent_rounds

(* A listener parked for good wakes on the first message, however late:
   node 1 wakes at round 50_000 and broadcasts at once. *)
let test_listen_forever_wakes () =
  let det = Detector.static (Detector.perfect (Dual.g path2)) in
  let cfg = E.config ~wake:[| 1; 50_000 |] ~detector:det path2 in
  let body ctx =
    if E.me ctx = 0 then begin
      let got = E.listen ctx max_int in
      (got, E.round ctx)
    end
    else begin
      ignore (E.sync ctx (Some 7));
      (None, E.round ctx)
    end
  in
  let fast = E.run cfg body in
  Alcotest.(check bool) "identical results" true (fast = E.run_reference cfg body);
  Alcotest.(check int) "ends at the late broadcast" 50_000 fast.E.rounds;
  Alcotest.(check bool) "listener woke in the stretch's 50000th round" true
    (fast.E.returns.(0) = Some (Some (50_000, 7), 50_000))

(* A delivery in a stretch's last round finds the listener both due and
   delivered-to: it must wake with the message, on every delivery and
   resume path.  Nodes 0-1 and 1-2 are reliable, 0-2 is gray; node 0
   listens for rounds 2..4 (parked from the resume phase), node 1 speaks
   in round 4, node 2 too, so a gray-activating adversary turns node 0's
   delivery into a collision. *)
let test_listen_last_round () =
  let dual = Dual.make ~g:(Graph.of_edges 3 [ (0, 1); (1, 2) ]) ~gray:[ (0, 2) ] () in
  let det = Detector.static (Detector.perfect (Dual.g dual)) in
  let body ctx =
    let me = E.me ctx in
    ignore (E.sync ctx None);
    let got =
      if me = 0 then E.listen ctx 3
      else begin
        E.idle ctx 2;
        ignore (E.sync ctx (Some me));
        None
      end
    in
    ignore (E.sync ctx None);
    (got, E.round ctx)
  in
  Array.iter
    (fun (adv_name, adversary) ->
      let expected = ref None in
      List.iter
        (fun (kernel, resume_shards) ->
          let cfg =
            E.config ~adversary ~seed:3 ~kernel ~resume_shards ~resume_kernel:`On
              ~detector:det dual
          in
          let fast = E.run cfg body in
          let name =
            Printf.sprintf "%s kernel=%s resume_shards=%d" adv_name
              (if kernel = `On then "on" else "off")
              resume_shards
          in
          Alcotest.(check bool) (name ^ " = reference") true (fast = E.run_reference cfg body);
          (match !expected with
          | None -> expected := Some fast
          | Some e -> Alcotest.(check bool) (name ^ " = first path") true (fast = e));
          if adv_name = "silent" then
            Alcotest.(check bool) (name ^ " woke in round 3 of 3") true
              (fast.E.returns.(0) = Some (Some (3, 1), 5)))
        (List.concat_map
           (fun kernel -> List.map (fun rs -> (kernel, rs)) [ 1; 2; 4 ])
           [ `On; `Off ]))
    adversaries

let test_observer_disables_jump () =
  (* With an observer every round must be materialised and observed. *)
  let seen = ref [] in
  let det = Detector.static (Detector.perfect (Dual.g path2)) in
  let cfg =
    E.config ~wake:[| 1; 5 |]
      ~observer:(fun v -> seen := (v.E.view_round, Array.length v.E.view_broadcasters) :: !seen)
      ~detector:det path2
  in
  let body ctx = ignore (E.sync ctx (Some (E.me ctx))) in
  ignore (E.run cfg body);
  Alcotest.(check (list (pair int int)))
    "observer saw every round" [ (1, 1); (2, 0); (3, 0); (4, 0); (5, 1) ] (List.rev !seen)

(* One moderate-scale pin: the qcheck scenarios stay at n <= 9, which
   exercises the worklist/heap/bucket logic but not at the array sizes
   the experiments use.  A geometric n=128 MIS run catches size-dependent
   bookkeeping slips (heap ordering, wake-pointer drift, scratch reuse). *)
let test_mis_n128 () =
  let dual =
    Gen.geometric ~rng:(Rng.create 7)
      (Gen.default_spec ~n:128 ~side:(Gen.side_for_degree ~n:128 ~target_degree:12) ())
  in
  let det = Detector.static (Detector.perfect (Dual.g dual)) in
  let params = Core.Params.default in
  let stop = R.At_round (Core.Mis.schedule_rounds params ~n:(Dual.n dual)) in
  let cfg =
    R.config ~adversary:(Adversary.bernoulli 0.5) ~seed:41 ~stop ~detector:det dual
  in
  let fast = R.run cfg (fun ctx -> Core.Mis.body params ctx) in
  let oracle = R.run_reference cfg (fun ctx -> Core.Mis.body params ctx) in
  Alcotest.(check bool) "identical results at n=128" true (fast = oracle)

let () =
  Alcotest.run "engine_equiv"
    [
      ( "differential",
        [
          qtest prop_random_bodies;
          qtest prop_fast_forward;
          qtest prop_flood;
          qtest prop_mis;
          qtest prop_tdma;
          Alcotest.test_case "run = run_reference (MIS, n=128)" `Quick test_mis_n128;
        ] );
      ( "fast-forward",
        [
          Alcotest.test_case "far wake jump" `Quick test_far_wake_jump;
          Alcotest.test_case "idle past stop" `Quick test_idle_past_stop;
          Alcotest.test_case "idle forever fast-forwards" `Quick
            test_idle_forever_fast_forwards;
          Alcotest.test_case "listen forever wakes on a late message" `Quick
            test_listen_forever_wakes;
          Alcotest.test_case "listen: delivery in the stretch's last round" `Quick
            test_listen_last_round;
          Alcotest.test_case "observer disables jump" `Quick test_observer_disables_jump;
        ] );
    ]

(* Differential tests for the sharded fiber resume loop.

   [Engine.run] with [resume_shards > 1] partitions each round's
   active-and-due fibers into pid-contiguous slices, steps every slice on
   a pool domain (collecting joins, idle parkings and finish/decide
   counts into private per-shard buffers), and merges the buffers in
   ascending shard order.  This is pure evaluation strategy: for any
   config and body, any resume shard count must produce
   results identical to the scalar resume loop and to [run_reference] —
   the per-process RNG streams are independently derived and a fiber's
   step reads only its own receive slot, so the slices are independent
   and the shard-order merge reproduces the sequential step order.

   Scenarios reuse test_shard.ml's generator (dense duals, all adversary
   policies, random wake/stop, random bodies), plus the real MIS and
   TDMA-CCDS schedules, a traced≡untraced forcing check (a sink must
   force the scalar path without changing results), a fixed n=512
   circulant pin, and a fault-injection case: fibers raising in two
   slices of one round. *)

module Rng = Rn_util.Rng
module Graph = Rn_graph.Graph
module Dual = Rn_graph.Dual
module Gen = Rn_graph.Gen
module Detector = Rn_detect.Detector
module Adversary = Rn_sim.Adversary
module Events = Rn_sim.Events

let qtest = QCheck_alcotest.to_alcotest

module M = struct
  type t = int

  let size_bits ~n:_ _ = 16
  let pp = Fmt.int
end

module E = Rn_sim.Engine.Make (M)
module R = Core.Radio

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

let build_dual ~n ~rel_w ~gray_w gseed =
  let rng = Rng.create gseed in
  let es = ref [] and grays = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let r = Rng.int rng 10 in
      if r < rel_w then es := (u, v) :: !es
      else if r < rel_w + gray_w then grays := (u, v) :: !grays
    done
  done;
  Dual.make ~g:(Graph.of_edges n !es) ~gray:!grays ()

type scenario = {
  dual : Dual.t;
  shape : string;
  adv_name : string;
  adv : Adversary.t;
  wake : int array option;
  stop : Rn_sim.Engine.stop_condition;
  seed : int;
  resume_shards : int;
}

let scenario_of case_seed =
  let rng = Rng.create (0x2E5ED + case_seed) in
  let n = 2 + Rng.int rng 39 in
  let shape, dual =
    match Rng.int rng 4 with
    | 0 -> ("dense", build_dual ~n ~rel_w:6 ~gray_w:3 (Rng.bits rng))
    | 1 -> ("classic", build_dual ~n ~rel_w:7 ~gray_w:0 (Rng.bits rng))
    | 2 -> ("all-gray", build_dual ~n ~rel_w:1 ~gray_w:8 (Rng.bits rng))
    | _ -> ("clique", Dual.classic (Gen.clique n))
  in
  let adv_name, adv = adversaries.(Rng.int rng (Array.length adversaries)) in
  let wake =
    if Rng.bool rng 0.5 then None else Some (Array.init n (fun _ -> 1 + Rng.int rng 8))
  in
  let stop =
    if Rng.bool rng 0.5 then Rn_sim.Engine.All_done
    else Rn_sim.Engine.At_round (5 + Rng.int rng 60)
  in
  {
    dual;
    shape;
    adv_name;
    adv;
    wake;
    stop;
    seed = Rng.int rng 10_000;
    (* more shards than live fibers is legal (empty slices) and must
       still be exact, so 4 shards at n as small as 2 is on purpose *)
    resume_shards = (match Rng.int rng 3 with 0 -> 1 | 1 -> 2 | _ -> 4);
  }

let pp_scenario s =
  Printf.sprintf "n=%d shape=%s adv=%s seed=%d resume_shards=%d" (Dual.n s.dual) s.shape
    s.adv_name s.seed s.resume_shards

(* [resume_kernel:`On] forces sharding below the auto threshold — these
   networks are far smaller than the cost model would ever shard. *)
let config_of ?sink ?(resume_kernel = `On) ~resume_shards s =
  let det = Detector.static (Detector.perfect (Dual.g s.dual)) in
  E.config ~adversary:s.adv ~seed:s.seed ?wake:s.wake ~stop:s.stop ~max_rounds:5_000
    ?sink ~resume_shards ~resume_kernel ~detector:det s.dual

let body ctx =
  let rng = E.rng ctx in
  let me = E.me ctx in
  let log = ref [] in
  let decided = ref false in
  for _ = 1 to 14 do
    match Rng.int rng 7 with
    | 0 | 1 | 2 -> (
      match E.sync ctx (Some me) with
      | E.Recv m -> log := m :: !log
      | E.Own -> log := -1 :: !log
      | E.Silence -> ())
    | 3 -> (
      match E.sync ctx None with
      | E.Recv m -> log := m :: !log
      | E.Own | E.Silence -> ())
    | 4 -> E.idle ctx (1 + Rng.int rng 4)
    | 5 -> (
      match E.listen ctx (1 + Rng.int rng 4) with
      | Some (i, m) -> log := m :: (-1 - i) :: !log
      | None -> ())
    | _ ->
      if (not !decided) && Rng.int rng 4 = 0 then begin
        decided := true;
        E.output ctx (Rng.int rng 2)
      end;
      ignore (E.sync ctx None)
  done;
  (!log, E.round ctx)

let prop_resume_equiv =
  QCheck.Test.make ~name:"resume shards k = scalar = reference" ~count:120
    QCheck.(small_nat)
    (fun case ->
      let s = scenario_of case in
      let sharded = E.run (config_of ~resume_shards:s.resume_shards s) body in
      let single = E.run (config_of ~resume_shards:1 s) body in
      let scalar = E.run (config_of ~resume_kernel:`Off ~resume_shards:s.resume_shards s) body in
      let oracle = E.run_reference (config_of ~resume_shards:1 s) body in
      if sharded <> single then
        QCheck.Test.fail_reportf "resume shards k <> shards 1: %s" (pp_scenario s);
      if sharded <> scalar then
        QCheck.Test.fail_reportf "resume shards k <> `Off: %s" (pp_scenario s);
      if sharded <> oracle then
        QCheck.Test.fail_reportf "resume shards k <> reference: %s" (pp_scenario s);
      true)

let prop_resume_traced_forcing =
  (* an attached sink forces the scalar resume path (events must be
     emitted in step order); forcing must not change any result *)
  QCheck.Test.make ~name:"traced (forced scalar) = untraced sharded" ~count:40
    QCheck.(small_nat)
    (fun case ->
      let s = scenario_of (2000 + case) in
      let sink = Events.create () in
      let traced = E.run (config_of ~sink ~resume_shards:4 s) body in
      let untraced = E.run (config_of ~resume_shards:4 s) body in
      if traced <> untraced then
        QCheck.Test.fail_reportf "traced <> untraced: %s" (pp_scenario s);
      if Events.emitted sink = 0 then
        QCheck.Test.fail_reportf "sink saw no events: %s" (pp_scenario s);
      true)

(* --- real schedules: MIS and TDMA-CCDS over the Msg protocol ----------- *)

let algo_duals =
  [|
    ("clique 12", Dual.classic (Gen.clique 12));
    ("star 17", Dual.classic (Gen.star 17));
    ("path 16", Dual.classic (Gen.path 16));
    ("dense 14", build_dual ~n:14 ~rel_w:5 ~gray_w:3 7);
  |]

let algo_config ~resume_shards ~resume_kernel ~adv ~seed dual =
  let det = Detector.static (Detector.perfect (Dual.g dual)) in
  R.config ~adversary:adv ~seed ~resume_shards ~resume_kernel ~detector:det dual

let prop_mis_resume_equiv =
  QCheck.Test.make ~name:"MIS: resume shards k = scalar" ~count:30
    QCheck.(small_nat)
    (fun case ->
      let rng = Rng.create (0x415 + case) in
      let dual_name, dual = algo_duals.(Rng.int rng (Array.length algo_duals)) in
      let adv_name, adv = adversaries.(Rng.int rng (Array.length adversaries)) in
      let seed = Rng.int rng 1000 in
      let shards = 2 + (2 * Rng.int rng 2) (* 2 or 4 *) in
      let params = Core.Params.default in
      let run ~resume_shards ~resume_kernel =
        R.run
          (algo_config ~resume_shards ~resume_kernel ~adv ~seed dual)
          (fun ctx -> Core.Mis.body params ctx)
      in
      let sharded = run ~resume_shards:shards ~resume_kernel:`On in
      let scalar = run ~resume_shards:1 ~resume_kernel:`Off in
      if sharded <> scalar then
        QCheck.Test.fail_reportf "MIS sharded <> scalar: %s adv=%s seed=%d shards=%d"
          dual_name adv_name seed shards;
      true)

let prop_tdma_resume_equiv =
  QCheck.Test.make ~name:"TDMA-CCDS: resume shards k = scalar" ~count:15
    QCheck.(small_nat)
    (fun case ->
      let rng = Rng.create (0x7D3A + case) in
      let dual_name, dual = algo_duals.(Rng.int rng (Array.length algo_duals)) in
      let adv_name, adv = adversaries.(Rng.int rng (Array.length adversaries)) in
      let seed = Rng.int rng 1000 in
      let params = Core.Params.default in
      let run ~resume_shards ~resume_kernel =
        R.run
          (algo_config ~resume_shards ~resume_kernel ~adv ~seed dual)
          (fun ctx -> Core.Tdma_ccds.body params ctx)
      in
      let sharded = run ~resume_shards:4 ~resume_kernel:`On in
      let scalar = run ~resume_shards:1 ~resume_kernel:`Off in
      if sharded <> scalar then
        QCheck.Test.fail_reportf "TDMA sharded <> scalar: %s adv=%s seed=%d" dual_name
          adv_name seed;
      true)

(* Moderate-scale pin at a shard count that does not divide the live
   fiber count: uneven slices, both sync and idle fibers in flight. *)
let test_resume_n512 () =
  let n = 512 in
  let es = ref [] in
  for u = 0 to n - 1 do
    for k = 1 to 32 do
      let v = (u + k) mod n in
      es := (min u v, max u v) :: !es
    done
  done;
  let dual = Dual.classic (Graph.of_edges n !es) in
  let det = Detector.static (Detector.perfect (Dual.g dual)) in
  let run resume_shards resume_kernel =
    let cfg =
      E.config ~adversary:(Adversary.bernoulli 0.5) ~seed:11
        ~stop:(Rn_sim.Engine.At_round 40) ~resume_shards ~resume_kernel ~detector:det dual
    in
    E.run cfg (fun ctx ->
        let rng = E.rng ctx in
        let heard = ref 0 in
        for _ = 1 to 40 do
          if Rng.bool rng 0.1 then E.idle ctx (1 + Rng.int rng 3)
          else
            match E.sync_p ctx 0.03 (E.me ctx) with
            | E.Recv _ -> incr heard
            | E.Own | E.Silence -> ()
        done;
        !heard)
  in
  let one = run 1 `Off and three = run 3 `On and four = run 4 `On in
  Alcotest.(check bool) "identical results at n=512, resume shards=3" true (one = three);
  Alcotest.(check bool) "identical results at n=512, resume shards=4" true (one = four);
  Alcotest.(check bool) "deliveries happened" true (one.E.stats.deliveries > 0)

exception Boom of int

(* Fibers 0 and 63 of a 64-node ring both raise in round 1's resume, in
   different slices at 2 and 4 shards, and fiber 63 raises first in time:
   fiber 0 waits for it on an Atomic handshake (spun on with a bound, so
   a one-core host cannot hang), then a little longer so fiber 63's
   failure is recorded first.  The scalar paths step fiber 0 first and
   never reach 63, so they get the flag pre-set.  Every path must raise
   fiber 0's failure, as the scalar resume and [run_reference] do, and a
   second run on the same config must then complete: the run shut its
   pool down and left no fiber routed to a shard buffer. *)
let test_resume_raise_lowest () =
  let n = 64 in
  let dual = Dual.classic (Gen.ring n) in
  let det = Detector.static (Detector.perfect (Dual.g dual)) in
  let cfg resume_shards =
    E.config ~stop:(Rn_sim.Engine.At_round 3) ~resume_shards ~resume_kernel:`On
      ~detector:det dual
  in
  let spin_until ready =
    let t0 = Rn_util.Timing.now () in
    while (not (ready ())) && Rn_util.Timing.now () -. t0 < 5.0 do
      Domain.cpu_relax ()
    done
  in
  let faulty raised ctx =
    ignore (E.sync ctx None);
    (match E.me ctx with
    | 63 ->
      Atomic.set raised true;
      raise (Boom 63)
    | 0 ->
      spin_until (fun () -> Atomic.get raised);
      let t0 = Rn_util.Timing.now () in
      spin_until (fun () -> Rn_util.Timing.now () -. t0 > 0.02);
      raise (Boom 0)
    | _ -> ());
    ignore (E.sync ctx (Some (E.me ctx)))
  in
  let quiet ctx =
    ignore (E.sync ctx None);
    E.sync ctx (Some (E.me ctx))
  in
  let raised_by run = try ignore (run ()); None with Boom i -> Some i in
  Alcotest.(check (option int))
    "run_reference" (Some 0)
    (raised_by (fun () -> E.run_reference (cfg 1) (faulty (Atomic.make true))));
  Alcotest.(check (option int))
    "resume_shards 1" (Some 0)
    (raised_by (fun () -> E.run (cfg 1) (faulty (Atomic.make true))));
  List.iter
    (fun k ->
      let c = cfg k in
      Alcotest.(check (option int))
        (Printf.sprintf "resume_shards %d" k)
        (Some 0)
        (raised_by (fun () -> E.run c (faulty (Atomic.make false))));
      Alcotest.(check bool)
        (Printf.sprintf "resume_shards %d: next run completes" k)
        true
        (E.run c quiet = E.run_reference c quiet))
    [ 2; 4 ]

let test_resume_config_validation () =
  let dual = Dual.classic (Gen.clique 4) in
  let det = Detector.static (Detector.perfect (Dual.g dual)) in
  Alcotest.check_raises "resume_shards = 0 rejected"
    (Invalid_argument "Engine.config: resume_shards < 1") (fun () ->
      ignore (E.config ~resume_shards:0 ~detector:det dual));
  (* process-wide defaults clamp rather than raise (CLI validates) *)
  Rn_sim.Engine.set_default_resume_shards 0;
  Alcotest.check Alcotest.int "default clamps to 1" 1
    (Rn_sim.Engine.get_default_resume_shards ());
  Rn_sim.Engine.set_default_resume_shards 1

let () =
  Alcotest.run "resume-shard"
    [
      ( "sharded-resume",
        [
          qtest prop_resume_equiv;
          qtest prop_resume_traced_forcing;
          Alcotest.test_case "circulant n=512 pin" `Quick test_resume_n512;
          Alcotest.test_case "config validation" `Quick test_resume_config_validation;
          Alcotest.test_case "raise in two slices: lowest fiber wins" `Quick
            test_resume_raise_lowest;
        ] );
      ( "real-schedules",
        [ qtest prop_mis_resume_equiv; qtest prop_tdma_resume_equiv ] );
    ]

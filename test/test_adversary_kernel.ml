(* Differential tests for the word-parallel adversary kernel.

   Deterministic policies (all_gray, spiteful, jamming) carry a mask-
   algebra kernel that must reproduce the scalar [choose]'s activation
   bitset bit for bit, with the same scratch reused across rounds.  This
   suite certifies it at two levels:

   - directly at the [Adversary] API: random duals x random broadcaster
     sets, [choose] vs [choose_kernel], many consecutive rounds against
     one scratch (so stale scratch state shows up);
   - end to end through the engine: whole-run equality across
     [adv_kernel] `On/`Off/`Auto against [run_reference],
     for every policy (randomised ones included — their scalar path was
     reworked too and must not have moved a single RNG draw), and traced
     vs untraced runs (a sink forces the scalar path but must not change
     the bytes). *)

module Bitset = Rn_util.Bitset
module Rng = Rn_util.Rng
module Graph = Rn_graph.Graph
module Dual = Rn_graph.Dual
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

(* Random dual graph: enough gray structure that activation sets are
   non-trivial, enough reliable structure that jamming finds victims. *)
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

let kernel_policies =
  [| ("all_gray", Adversary.all_gray); ("spiteful", Adversary.spiteful); ("jamming", Adversary.jamming) |]

(* --- choose_kernel = choose, directly ---------------------------------- *)

let random_broadcasters rng n =
  let p = [| 0.05; 0.3; 0.8 |].(Rng.int rng 3) in
  let l = ref [] in
  for v = n - 1 downto 0 do
    if Rng.bool rng p then l := v :: !l
  done;
  Array.of_list !l

let prop_choose_equiv =
  QCheck.Test.make ~name:"choose_kernel = choose (shards 1/2/4, scratch reuse)" ~count:120
    QCheck.(small_nat)
    (fun case ->
      let rng = Rng.create (0xADF0 + case) in
      let n = 2 + Rng.int rng 60 in
      let rel_w = 1 + Rng.int rng 4 and gray_w = 1 + Rng.int rng 5 in
      let dual = build_dual ~n ~rel_w ~gray_w (Rng.bits rng) in
      let ng = max 1 (Dual.gray_count dual) in
      let scratch = Adversary.make_scratch dual in
      let adv_root = Rng.derive (Rng.create (Rng.bits rng)) 0x5EED in
      for round = 1 to 12 do
        let broadcasters = random_broadcasters rng n in
        Array.iter
          (fun (pname, adv) ->
            let scalar = Bitset.create ng in
            Adversary.choose adv ~round ~broadcasters dual (Rng.derive adv_root round)
              scalar;
            let masked = Bitset.create ng in
            Adversary.choose_kernel adv ~round ~broadcasters dual (Rng.derive adv_root round)
              scratch masked;
            if not (Bitset.equal scalar masked) then
              QCheck.Test.fail_reportf "%s: kernel <> scalar at n=%d round=%d (#bcast=%d)"
                pname n round (Array.length broadcasters))
          kernel_policies
      done;
      true)

let test_kernel_flags () =
  Alcotest.(check bool) "all_gray has kernel" true (Adversary.has_kernel Adversary.all_gray);
  Alcotest.(check bool) "spiteful has kernel" true (Adversary.has_kernel Adversary.spiteful);
  Alcotest.(check bool) "jamming has kernel" true (Adversary.has_kernel Adversary.jamming);
  Alcotest.(check bool) "bernoulli stays scalar" false
    (Adversary.has_kernel (Adversary.bernoulli 0.5));
  Alcotest.(check bool) "harassing stays scalar" false
    (Adversary.has_kernel (Adversary.harassing 0.5));
  Alcotest.(check bool) "silent stays scalar" false (Adversary.has_kernel Adversary.silent);
  let dual = build_dual ~n:40 ~rel_w:2 ~gray_w:4 7 in
  Alcotest.(check bool) "kernel_wins false without kernel" false
    (Adversary.kernel_wins (Adversary.bernoulli 0.5)
       ~broadcasters:(Array.init 40 Fun.id) dual);
  Alcotest.check_raises "choose_kernel raises without kernel"
    (Invalid_argument "Adversary.choose_kernel: policy has no kernel") (fun () ->
      Adversary.choose_kernel Adversary.silent ~round:1 ~broadcasters:[||] dual
        (Rng.create 0)
        (Adversary.make_scratch dual)
        (Bitset.create 1))

(* Word-boundary pin: a circulant dual at n=600 whose per-node gray
   ranges span several 63-bit words, all nodes broadcasting — the
   fill_range fast path does the bulk of the work. *)
let test_circulant_pin () =
  let n = 600 in
  let es = ref [] and grays = ref [] in
  for u = 0 to n - 1 do
    for k = 1 to 4 do
      let v = (u + k) mod n in
      es := (min u v, max u v) :: !es
    done;
    for k = 5 to 24 do
      let v = (u + k) mod n in
      grays := (min u v, max u v) :: !grays
    done
  done;
  let dual = Dual.make ~g:(Graph.of_edges n !es) ~gray:!grays () in
  let ng = Dual.gray_count dual in
  let scratch = Adversary.make_scratch dual in
  let everyone = Array.init n Fun.id in
  let rng = Rng.create 3 in
  Array.iter
    (fun (pname, adv) ->
      Array.iter
        (fun broadcasters ->
          let scalar = Bitset.create ng and masked = Bitset.create ng in
          Adversary.choose adv ~round:1 ~broadcasters dual rng scalar;
          Adversary.choose_kernel adv ~round:1 ~broadcasters dual rng scratch masked;
          Alcotest.(check bool)
            (Printf.sprintf "%s circulant n=600 #bcast=%d" pname (Array.length broadcasters))
            true (Bitset.equal scalar masked))
        [| everyone; [| 0; 1; 299; 599 |]; [| 42 |] |])
    kernel_policies

(* --- engine end-to-end: adv_kernel = reference -------------------------- *)

let adversaries =
  [|
    ("all_gray", Adversary.all_gray);
    ("spiteful", Adversary.spiteful);
    ("jamming", Adversary.jamming);
    ("bernoulli 0.5", Adversary.bernoulli 0.5);
    ("harassing 0.7", Adversary.harassing 0.7);
    ("silent", Adversary.silent);
  |]

type scenario = {
  dual : Dual.t;
  adv_name : string;
  adv : Adversary.t;
  wake : int array option;
  stop : Rn_sim.Engine.stop_condition;
  seed : int;
}

let scenario_of case_seed =
  let rng = Rng.create (0xADBE + case_seed) in
  let n = 2 + Rng.int rng 39 in
  let rel_w = 1 + Rng.int rng 4 and gray_w = Rng.int rng 6 in
  let dual = build_dual ~n ~rel_w ~gray_w (Rng.bits rng) in
  let adv_name, adv = adversaries.(Rng.int rng (Array.length adversaries)) in
  let wake =
    if Rng.bool rng 0.5 then None else Some (Array.init n (fun _ -> 1 + Rng.int rng 8))
  in
  let stop =
    if Rng.bool rng 0.5 then Rn_sim.Engine.All_done
    else Rn_sim.Engine.At_round (5 + Rng.int rng 60)
  in
  { dual; adv_name; adv; wake; stop; seed = Rng.int rng 10_000 }

let pp_scenario s =
  Printf.sprintf "n=%d adv=%s seed=%d" (Dual.n s.dual) s.adv_name s.seed

let config_of ?sink ~adv_kernel s =
  let det = Detector.static (Detector.perfect (Dual.g s.dual)) in
  E.config ~adversary:s.adv ~seed:s.seed ?wake:s.wake ~stop:s.stop ~max_rounds:5_000
    ~adv_kernel ?sink ~detector:det s.dual

(* Broadcast-heavy scripted body logging every receive, as in
   test_kernel.ml — any activation-set divergence perturbs deliveries. *)
let body ctx =
  let rng = E.rng ctx in
  let me = E.me ctx in
  let log = ref [] in
  for _ = 1 to 14 do
    match Rng.int rng 5 with
    | 0 | 1 | 2 -> (
      match E.sync ctx (Some me) with
      | E.Recv m -> log := m :: !log
      | E.Own -> log := -1 :: !log
      | E.Silence -> ())
    | 3 -> (
      match E.sync ctx None with
      | E.Recv m -> log := m :: !log
      | E.Own | E.Silence -> ())
    | _ -> E.idle ctx (1 + Rng.int rng 4)
  done;
  (!log, E.round ctx)

let prop_engine_equiv =
  QCheck.Test.make ~name:"adv_kernel `On/`Off/`Auto x shards 1/2/4 = reference"
    ~count:100
    QCheck.(small_nat)
    (fun case ->
      let s = scenario_of case in
      let oracle = E.run_reference (config_of ~adv_kernel:`Auto s) body in
      List.iter
        (fun adv_kernel ->
          let r = E.run (config_of ~adv_kernel s) body in
          if r <> oracle then
            QCheck.Test.fail_reportf "adv_kernel=%s <> reference: %s"
              (match adv_kernel with `On -> "on" | `Off -> "off" | `Auto -> "auto")
              (pp_scenario s))
        [ `On; `Off; `Auto ];
      true)

let prop_traced_equiv =
  QCheck.Test.make ~name:"traced run = untraced (adv_kernel `On)" ~count:40
    QCheck.(small_nat)
    (fun case ->
      let s = scenario_of case in
      let plain = E.run (config_of ~adv_kernel:`On s) body in
      let sink = Events.create ~capacity:(1 lsl 12) () in
      let traced = E.run (config_of ~sink ~adv_kernel:`On s) body in
      if plain <> traced then
        QCheck.Test.fail_reportf "traced <> untraced: %s" (pp_scenario s);
      true)

let () =
  Alcotest.run "adversary-kernel"
    [
      ( "choose",
        [
          qtest prop_choose_equiv;
          Alcotest.test_case "kernel availability flags" `Quick test_kernel_flags;
          Alcotest.test_case "circulant n=600 pin" `Quick test_circulant_pin;
        ] );
      ("engine", [ qtest prop_engine_equiv; qtest prop_traced_equiv ]);
    ]

(* Differential tests for the word-parallel delivery kernel.

   [Engine.run] picks between two evaluations of the round delivery rule:
   the scalar per-edge touch loop and the dense once/twice bitset kernel.
   The choice must be pure evaluation strategy — for any config and body,
   [kernel:`On], [kernel:`Off] and [run_reference] must agree exactly on
   whole results.  The qcheck scenarios here skew dense (random duals up
   to n=40 with high edge probability, cliques, all-gray adversaries) so
   the forced-[`On] runs exercise the kernel on every broadcasting round
   rather than falling into the sparse regime the equivalence suite in
   test_engine_equiv.ml already covers with [`Auto].

   Also here: unit and property tests for the kernel's two primitive
   layers — the Bitset once/twice accumulator (0, 1, 2, ≥3 senders) and
   the hash-grid world generator (grid-built duals must equal the naive
   O(n²) oracle bit for bit, including RNG stream consumption). *)

module Bitset = Rn_util.Bitset
module Rng = Rn_util.Rng
module Point = Rn_geom.Point
module Graph = Rn_graph.Graph
module Dual = Rn_graph.Dual
module Gen = Rn_graph.Gen
module Detector = Rn_detect.Detector
module Adversary = Rn_sim.Adversary

let qtest = QCheck_alcotest.to_alcotest

module M = struct
  type t = int

  let size_bits ~n:_ _ = 16
  let pp = Fmt.int
end

module E = Rn_sim.Engine.Make (M)

(* --- once/twice accumulator ------------------------------------------- *)

let bs cap l = Bitset.of_list cap l

let check_acc2 name ~cap rows ~exp_once ~exp_twice =
  let once = Bitset.create cap and twice = Bitset.create cap in
  List.iter (fun row -> Bitset.acc2_or_into ~once ~twice (bs cap row)) rows;
  Alcotest.(check (list int)) (name ^ ": once") exp_once (Bitset.to_list once);
  Alcotest.(check (list int)) (name ^ ": twice") exp_twice (Bitset.to_list twice)

let test_acc2_units () =
  check_acc2 "no senders" ~cap:130 [] ~exp_once:[] ~exp_twice:[];
  check_acc2 "one sender" ~cap:130 [ [ 0; 63; 129 ] ] ~exp_once:[ 0; 63; 129 ] ~exp_twice:[];
  check_acc2 "two disjoint" ~cap:130
    [ [ 0; 64 ]; [ 1; 65 ] ]
    ~exp_once:[ 0; 1; 64; 65 ] ~exp_twice:[];
  check_acc2 "two overlapping" ~cap:130
    [ [ 0; 63; 64 ]; [ 63; 64; 129 ] ]
    ~exp_once:[ 0; 63; 64; 129 ] ~exp_twice:[ 63; 64 ];
  (* saturation: a third and fourth sender must not clear the twice bit *)
  check_acc2 "three senders saturate" ~cap:130
    [ [ 5 ]; [ 5 ]; [ 5 ] ]
    ~exp_once:[ 5 ] ~exp_twice:[ 5 ];
  check_acc2 "four senders saturate" ~cap:130
    [ [ 5; 70 ]; [ 5 ]; [ 5; 70 ]; [ 5; 70 ] ]
    ~exp_once:[ 5; 70 ] ~exp_twice:[ 5; 70 ]

let test_acc2_add_matches_or () =
  (* element-wise feeding must equal set-wise feeding *)
  let cap = 100 in
  let rows = [ [ 1; 63; 64 ]; [ 2; 63 ]; [ 1; 99 ] ] in
  let o1 = Bitset.create cap and t1 = Bitset.create cap in
  List.iter (fun r -> Bitset.acc2_or_into ~once:o1 ~twice:t1 (bs cap r)) rows;
  let o2 = Bitset.create cap and t2 = Bitset.create cap in
  List.iter (List.iter (fun i -> Bitset.acc2_add ~once:o2 ~twice:t2 i)) rows;
  Alcotest.(check bool) "once equal" true (Bitset.equal o1 o2);
  Alcotest.(check bool) "twice equal" true (Bitset.equal t1 t2)

let prop_acc2_counts =
  QCheck.Test.make ~name:"acc2 = naive multiset counting" ~count:200
    QCheck.(pair (int_range 1 5) (small_list (small_list (int_range 0 149))))
    (fun (_, rows) ->
      let cap = 150 in
      let once = Bitset.create cap and twice = Bitset.create cap in
      let counts = Array.make cap 0 in
      List.iter
        (fun row ->
          let row = List.sort_uniq compare row in
          List.iter (fun i -> counts.(i) <- counts.(i) + 1) row;
          Bitset.acc2_or_into ~once ~twice (bs cap row))
        rows;
      let ok = ref true in
      for i = 0 to cap - 1 do
        if Bitset.mem once i <> (counts.(i) >= 1) then ok := false;
        if Bitset.mem twice i <> (counts.(i) >= 2) then ok := false
      done;
      !ok)

(* --- kernel ≡ scalar ≡ reference -------------------------------------- *)

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

(* Random dual graph, dense by default so forced-kernel rounds have real
   collision structure.  [gray_w = 0] yields a classic dual (G = G'). *)
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
}

let scenario_of case_seed =
  let rng = Rng.create (0x5CE7 + case_seed) in
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
  { dual; shape; adv_name; adv; wake; stop; seed = Rng.int rng 10_000 }

let pp_scenario s =
  Printf.sprintf "n=%d shape=%s adv=%s seed=%d" (Dual.n s.dual) s.shape s.adv_name s.seed

let config_of ~kernel s =
  let det = Detector.static (Detector.perfect (Dual.g s.dual)) in
  E.config ~adversary:s.adv ~seed:s.seed ?wake:s.wake ~stop:s.stop ~max_rounds:5_000
    ~kernel ~detector:det s.dual

(* Scripted body mixing broadcasts, syncs, idles, parked listens and
   decisions, logging every receive — any delivery divergence shows up
   in [returns]. *)
let body ctx =
  let rng = E.rng ctx in
  let me = E.me ctx in
  let log = ref [] in
  let decided = ref false in
  for _ = 1 to 14 do
    match Rng.int rng 7 with
    | 0 | 1 | 2 ->
      (* broadcast-heavy: dense rounds are the kernel's territory *)
      (match E.sync ctx (Some me) with
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

let prop_kernel_equiv =
  QCheck.Test.make ~name:"kernel `On = `Off = run_reference" ~count:200
    QCheck.(small_nat)
    (fun case ->
      let s = scenario_of case in
      let on = E.run (config_of ~kernel:`On s) body in
      let off = E.run (config_of ~kernel:`Off s) body in
      let auto = E.run (config_of ~kernel:`Auto s) body in
      let oracle = E.run_reference (config_of ~kernel:`Auto s) body in
      if on <> off then QCheck.Test.fail_reportf "`On <> `Off: %s" (pp_scenario s);
      if on <> auto then QCheck.Test.fail_reportf "`On <> `Auto: %s" (pp_scenario s);
      if on <> oracle then QCheck.Test.fail_reportf "`On <> reference: %s" (pp_scenario s);
      true)

let prop_kernel_mis =
  QCheck.Test.make ~name:"kernel `On = `Off (MIS body)" ~count:15 QCheck.(small_nat)
    (fun case ->
      let s = { (scenario_of case) with wake = None } in
      let params = Core.Params.default in
      let det = Detector.static (Detector.perfect (Dual.g s.dual)) in
      let stop = Core.Radio.At_round (Core.Mis.schedule_rounds params ~n:(Dual.n s.dual)) in
      let run kernel =
        let cfg =
          Core.Radio.config ~adversary:s.adv ~seed:s.seed ~stop ~max_rounds:100_000
            ~kernel ~detector:det s.dual
        in
        Core.Radio.run cfg (fun ctx -> Core.Mis.body params ctx)
      in
      if run `On <> run `Off then QCheck.Test.fail_reportf "MIS mismatch: %s" (pp_scenario s);
      true)

(* Moderate-scale pin: a circulant graph at n=512 has every node at
   degree 64 — kernel rounds throughout — with enough words per row to
   catch top-word masking and word-indexing slips. *)
let test_kernel_n512 () =
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
  let run kernel =
    let cfg =
      E.config ~adversary:(Adversary.bernoulli 0.5) ~seed:11
        ~stop:(Rn_sim.Engine.At_round 30) ~kernel ~detector:det dual
    in
    E.run cfg (fun ctx ->
        let heard = ref 0 in
        for _ = 1 to 30 do
          (* ~2 expected senders per 64-neighbourhood: deliveries and
             collisions both occur in quantity *)
          match E.sync_p ctx 0.03 (E.me ctx) with
          | E.Recv _ -> incr heard
          | E.Own | E.Silence -> ()
        done;
        !heard)
  in
  let on = run `On and off = run `Off in
  Alcotest.(check bool) "identical results at n=512" true (on = off);
  Alcotest.(check bool) "deliveries happened" true (on.E.stats.deliveries > 0);
  Alcotest.(check bool) "collisions happened" true (on.E.stats.collisions > 0)

(* Twin of the pin above on a gray band: reliable ±1..32, gray ±33..40.
   Every adversary here switches gray edges on, so the kernel's two gray
   sweeps (reach accumulation, then receive assignment) run at scale;
   the body logs each sender it hears, so a message that arrived over a
   gray edge is visible in [returns]. *)
let test_kernel_n512_gray () =
  let n = 512 in
  let es = ref [] and grays = ref [] in
  for u = 0 to n - 1 do
    for k = 1 to 40 do
      let v = (u + k) mod n in
      let e = (min u v, max u v) in
      if k <= 32 then es := e :: !es else grays := e :: !grays
    done
  done;
  let dual = Dual.make ~g:(Graph.of_edges n !es) ~gray:!grays () in
  let det = Detector.static (Detector.perfect (Dual.g dual)) in
  let over_gray v src =
    let d = abs (v - src) in
    min d (n - d) > 32
  in
  List.iter
    (fun (name, adversary) ->
      let cfg kernel =
        E.config ~adversary ~seed:11 ~stop:(Rn_sim.Engine.At_round 30) ~kernel ~detector:det
          dual
      in
      let body ctx =
        let heard = ref [] in
        for _ = 1 to 30 do
          match E.sync_p ctx 0.03 (E.me ctx) with
          | E.Recv src -> heard := src :: !heard
          | E.Own | E.Silence -> ()
        done;
        !heard
      in
      let on = E.run (cfg `On) body and off = E.run (cfg `Off) body in
      let oracle = E.run_reference (cfg `Auto) body in
      Alcotest.(check bool) (name ^ ": `On = `Off") true (on = off);
      Alcotest.(check bool) (name ^ ": `On = reference") true (on = oracle);
      Alcotest.(check bool) (name ^ ": deliveries happened") true (on.E.stats.deliveries > 0);
      let gray_receives = ref 0 in
      Array.iteri
        (fun v heard ->
          List.iter
            (fun src -> if over_gray v src then incr gray_receives)
            (Option.value ~default:[] heard))
        on.E.returns;
      Alcotest.(check bool) (name ^ ": received over gray edges") true (!gray_receives > 0))
    [
      ("bernoulli 0.5", Adversary.bernoulli 0.5);
      ("spiteful", Adversary.spiteful);
      ("all_gray", Adversary.all_gray);
    ]

(* --- grid world generation ≡ naive oracle ------------------------------ *)

let dual_eq a b =
  Graph.n (Dual.g a) = Graph.n (Dual.g b)
  && Graph.edges (Dual.g a) = Graph.edges (Dual.g b)
  && Graph.edges (Dual.g' a) = Graph.edges (Dual.g' b)
  && Dual.gray_edges a = Dual.gray_edges b
  && Dual.d a = Dual.d b

let prop_grid_gen_equiv =
  QCheck.Test.make ~name:"grid of_positions = naive oracle (same RNG stream)" ~count:150
    QCheck.(triple (int_range 1 60) (int_range 0 1000) (int_range 0 2))
    (fun (n, pseed, dix) ->
      let d = [| 1.0; 2.0; 3.5 |].(dix) in
      let prng = Rng.create pseed in
      (* spread tight enough that reliable and gray pairs both occur *)
      let side = 1.0 +. sqrt (float_of_int n) in
      let pos = Array.init n (fun _ -> Point.random prng ~w:side ~h:side) in
      let grid = Gen.of_positions ~rng:(Rng.create 42) ~d ~gray_p:0.5 pos in
      let naive = Gen.of_positions_naive ~rng:(Rng.create 42) ~d ~gray_p:0.5 pos in
      if not (dual_eq grid naive) then
        QCheck.Test.fail_reportf "grid <> naive at n=%d pseed=%d d=%.1f" n pseed d;
      (* both must leave the RNG in the same state: draw-count equality *)
      let r1 = Rng.create 42 and r2 = Rng.create 42 in
      ignore (Gen.of_positions ~rng:r1 ~d ~gray_p:0.5 pos);
      ignore (Gen.of_positions_naive ~rng:r2 ~d ~gray_p:0.5 pos);
      if Rng.bits r1 <> Rng.bits r2 then
        QCheck.Test.fail_reportf "RNG stream diverged at n=%d pseed=%d d=%.1f" n pseed d;
      true)

let prop_grid_gen_negative_coords =
  (* the clusters generator places points at negative coordinates; the
     grid must bucket them correctly *)
  QCheck.Test.make ~name:"grid of_positions = naive (negative coords)" ~count:60
    QCheck.(int_range 0 500)
    (fun pseed ->
      let prng = Rng.create pseed in
      let n = 40 in
      let pos =
        Array.init n (fun _ ->
            Point.make ((Rng.float prng -. 0.5) *. 8.0) ((Rng.float prng -. 0.5) *. 8.0))
      in
      let grid = Gen.of_positions ~rng:(Rng.create 7) ~d:2.0 ~gray_p:0.3 pos in
      let naive = Gen.of_positions_naive ~rng:(Rng.create 7) ~d:2.0 ~gray_p:0.3 pos in
      dual_eq grid naive)

let () =
  Alcotest.run "kernel"
    [
      ( "acc2",
        [
          Alcotest.test_case "unit cases (0/1/2/3+ senders)" `Quick test_acc2_units;
          Alcotest.test_case "acc2_add = acc2_or_into" `Quick test_acc2_add_matches_or;
          qtest prop_acc2_counts;
        ] );
      ( "delivery",
        [
          qtest prop_kernel_equiv;
          qtest prop_kernel_mis;
          Alcotest.test_case "circulant n=512 pin" `Quick test_kernel_n512;
          Alcotest.test_case "circulant n=512 gray-band pin" `Quick test_kernel_n512_gray;
        ] );
      ( "world-gen",
        [ qtest prop_grid_gen_equiv; qtest prop_grid_gen_negative_coords ] );
    ]

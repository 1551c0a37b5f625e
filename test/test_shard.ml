(* [~shards] compatibility and the Bigarray-backed bitset words.

   [Engine.config] still accepts [~shards] (perfbench passes it for its
   domains check), but delivery and the adversary run on the calling
   domain whatever it says.  The [sharded-delivery] cases certify the
   contract that check relies on: for any config and body, [~shards:k]
   gives results identical to [~shards:1], to the scalar path, and to
   [run_reference].  The scenarios reuse test_kernel.ml's generator
   (dense duals, all adversary policies, random wake/stop) with the
   shard count drawn per case.

   Also here: laws of the off-heap word layer — the (once, twice) pair
   is a pure function of the contribution multiset (checked against
   naive counting, as in test_kernel.ml), and [acc2_merge_into] over any
   partition of the rows into any number of shards reproduces the
   sequential accumulators bit for bit. *)

module Bitset = Rn_util.Bitset
module Rng = Rn_util.Rng
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

(* --- off-heap word-layer laws ------------------------------------------ *)

let bs cap l = Bitset.of_list cap l

(* The Bigarray storage swap must preserve the word-op laws the kernel
   and the sharded merge depend on; the multiset-counting oracle is the
   same one test_kernel.ml pins the on-heap representation with. *)
let prop_acc2_counts_offheap =
  QCheck.Test.make ~name:"off-heap acc2 = naive multiset counting" ~count:200
    QCheck.(small_list (small_list (int_range 0 200)))
    (fun rows ->
      let cap = 201 in
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

let prop_word_ops_offheap =
  (* union/inter/diff/cardinal/iter agree with a sorted-list model *)
  QCheck.Test.make ~name:"off-heap word ops = list model" ~count:300
    QCheck.(pair (small_list (int_range 0 190)) (small_list (int_range 0 190)))
    (fun (la, lb) ->
      let cap = 191 in
      let la = List.sort_uniq compare la and lb = List.sort_uniq compare lb in
      let a = bs cap la and b = bs cap lb in
      let model f = List.filter (fun i -> f (List.mem i la) (List.mem i lb)) (List.init cap Fun.id) in
      let got op =
        let c = Bitset.copy a in
        op ~into:c b;
        Bitset.to_list c
      in
      got Bitset.union_into = model (fun x y -> x || y)
      && got Bitset.inter_into = model (fun x y -> x && y)
      && got Bitset.diff_into = model (fun x y -> x && not y)
      && Bitset.cardinal a = List.length la
      && Bitset.to_list a = la
      && Bitset.equal a (bs cap la))

(* [acc2_merge_into] is the sharded scatter's merge step: feeding each
   shard's rows into a private pair and merging must equal feeding all
   rows into one pair, for any partition into any number of shards. *)
let prop_merge_equals_sequential =
  QCheck.Test.make ~name:"sharded acc2 merge = sequential acc2" ~count:300
    QCheck.(pair (int_range 1 7) (small_list (small_list (int_range 0 220))))
    (fun (shards, rows) ->
      let cap = 221 in
      let rows = Array.of_list rows in
      let nr = Array.length rows in
      (* sequential: one pass over all rows *)
      let once = Bitset.create cap and twice = Bitset.create cap in
      Array.iter (fun row -> Bitset.acc2_or_into ~once ~twice (bs cap row)) rows;
      (* sharded: contiguous slices (the engine's partition rule) into
         private pairs, merged in shard order *)
      let m_once = Bitset.create cap and m_twice = Bitset.create cap in
      for s = 0 to shards - 1 do
        let so = Bitset.create cap and st = Bitset.create cap in
        for i = s * nr / shards to (((s + 1) * nr) / shards) - 1 do
          Bitset.acc2_or_into ~once:so ~twice:st (bs cap rows.(i))
        done;
        Bitset.acc2_merge_into ~once:m_once ~twice:m_twice ~src_once:so ~src_twice:st
      done;
      Bitset.equal once m_once && Bitset.equal twice m_twice)

let test_merge_units () =
  let cap = 130 in
  let mk lo lt = (bs cap lo, bs cap lt) in
  let merge (o1, t1) (o2, t2) =
    let once = Bitset.copy o1 and twice = Bitset.copy t1 in
    Bitset.acc2_merge_into ~once ~twice ~src_once:o2 ~src_twice:t2;
    (Bitset.to_list once, Bitset.to_list twice)
  in
  (* disjoint singles stay single *)
  Alcotest.(check (pair (list int) (list int)))
    "disjoint singles"
    ([ 0; 64; 65; 129 ], [])
    (merge (mk [ 0; 64 ] []) (mk [ 65; 129 ] []));
  (* single + single on the same bit saturates to twice *)
  Alcotest.(check (pair (list int) (list int)))
    "overlap saturates"
    ([ 5; 70 ], [ 70 ])
    (merge (mk [ 5; 70 ] []) (mk [ 70 ] []));
  (* an incoming twice wins regardless of the target's state *)
  Alcotest.(check (pair (list int) (list int)))
    "src twice dominates"
    ([ 7 ], [ 7 ])
    (merge (mk [] []) (mk [ 7 ] [ 7 ]))

(* --- sharded engine ≡ scalar ≡ kernel ≡ reference ---------------------- *)

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
  shards : int;
}

let scenario_of case_seed =
  let rng = Rng.create (0x54A2D + case_seed) in
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
    (* more shards than broadcasters is legal (empty slices) and must
       still be exact, so draw well past the typical broadcaster count *)
    shards = 2 + Rng.int rng 4;
  }

let pp_scenario s =
  Printf.sprintf "n=%d shape=%s adv=%s seed=%d shards=%d" (Dual.n s.dual) s.shape
    s.adv_name s.seed s.shards

let config_of ?(kernel = `Auto) ~shards s =
  let det = Detector.static (Detector.perfect (Dual.g s.dual)) in
  E.config ~adversary:s.adv ~seed:s.seed ?wake:s.wake ~stop:s.stop ~max_rounds:5_000
    ~kernel ~shards ~detector:det s.dual

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

let prop_shard_equiv =
  QCheck.Test.make ~name:"shards k = shards 1 = scalar = reference" ~count:120
    QCheck.(small_nat)
    (fun case ->
      let s = scenario_of case in
      let sharded = E.run (config_of ~shards:s.shards s) body in
      let single = E.run (config_of ~shards:1 s) body in
      let scalar = E.run (config_of ~kernel:`Off ~shards:1 s) body in
      let oracle = E.run_reference (config_of ~shards:1 s) body in
      if sharded <> single then
        QCheck.Test.fail_reportf "shards k <> shards 1: %s" (pp_scenario s);
      if sharded <> scalar then
        QCheck.Test.fail_reportf "shards k <> scalar: %s" (pp_scenario s);
      if sharded <> oracle then
        QCheck.Test.fail_reportf "shards k <> reference: %s" (pp_scenario s);
      true)

let prop_shard_forced_kernel =
  (* [~shards:k] is inert under the forced dense kernel too *)
  QCheck.Test.make ~name:"shards k + kernel `On = kernel `On" ~count:60
    QCheck.(small_nat)
    (fun case ->
      let s = scenario_of (1000 + case) in
      let sharded = E.run (config_of ~kernel:`On ~shards:s.shards s) body in
      let plain = E.run (config_of ~kernel:`On ~shards:1 s) body in
      if sharded <> plain then
        QCheck.Test.fail_reportf "sharded `On <> `On: %s" (pp_scenario s);
      true)

(* Moderate-scale pin at a shard count that does not divide the
   broadcaster count: uneven slices, multiple words per row. *)
let test_shard_n512 () =
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
  let run shards =
    let cfg =
      E.config ~adversary:(Adversary.bernoulli 0.5) ~seed:11
        ~stop:(Rn_sim.Engine.At_round 30) ~shards ~detector:det dual
    in
    E.run cfg (fun ctx ->
        let heard = ref 0 in
        for _ = 1 to 30 do
          match E.sync_p ctx 0.03 (E.me ctx) with
          | E.Recv _ -> incr heard
          | E.Own | E.Silence -> ()
        done;
        !heard)
  in
  let one = run 1 and three = run 3 in
  Alcotest.(check bool) "identical results at n=512, shards=3" true (one = three);
  Alcotest.(check bool) "deliveries happened" true (one.E.stats.deliveries > 0);
  Alcotest.(check bool) "collisions happened" true (one.E.stats.collisions > 0)

let test_shard_config_validation () =
  let dual = Dual.classic (Gen.clique 4) in
  let det = Detector.static (Detector.perfect (Dual.g dual)) in
  Alcotest.check_raises "shards = 0 rejected"
    (Invalid_argument "Engine.config: shards < 1") (fun () ->
      ignore (E.config ~shards:0 ~detector:det dual))

let () =
  Alcotest.run "shard"
    [
      ( "offheap-words",
        [
          qtest prop_acc2_counts_offheap;
          qtest prop_word_ops_offheap;
          Alcotest.test_case "acc2_merge_into unit cases" `Quick test_merge_units;
          qtest prop_merge_equals_sequential;
        ] );
      ( "sharded-delivery",
        [
          qtest prop_shard_equiv;
          qtest prop_shard_forced_kernel;
          Alcotest.test_case "circulant n=512, shards=3 pin" `Quick test_shard_n512;
          Alcotest.test_case "config validation" `Quick test_shard_config_validation;
        ] );
    ]

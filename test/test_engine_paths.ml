(* Differential tests for [Engine.run]'s evaluation paths.

   [run] evaluates the Section 2 round with a live-fiber worklist, wake
   buckets, parking, silent-round fast-forward, a cached detector, the
   adversary's declared reach ([Adversary.reach], which skips the
   adversary phase) and two per-round choices: the word-parallel
   delivery kernel, picked by cost, and the resume's work list cut in
   [resume_shards] slices on Pool domains ([resume_shards > 1] with at
   least 1024 fibers to step) instead of one.  None of it may change a
   result.  One property says so — [run] = [run_reference] = [run] with
   a sink, which forces every round onto [choose], delivery onto its
   scalar path and the resume into one slice — over one scenario
   generator: sparse
   and dense duals, n on both sides of 1024, every adversary policy,
   random wake and stop, and any shard counts.  The fast-path cases read
   the engine's path counters to show that their inputs engage the path
   they target, and that sparse or small inputs do not.

   Results are records of arrays/options/ints, so whole-result
   structural equality is the comparison. *)

module Bitset = Rn_util.Bitset
module Metrics = Rn_util.Metrics
module Rng = Rn_util.Rng
module Graph = Rn_graph.Graph
module Dual = Rn_graph.Dual
module Gen = Rn_graph.Gen
module Detector = Rn_detect.Detector
module Adversary = Rn_sim.Adversary
module Events = Rn_sim.Events
module R = Core.Radio

let qtest = QCheck_alcotest.to_alcotest

module M = struct
  type t = int

  let size_bits ~n:_ _ = 16
  let pp = Fmt.int
end

module E = Rn_sim.Engine.Make (M)

exception Boom of int

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

(* --- duals ------------------------------------------------------------- *)

(* Random dual: each pair is reliable w.p. rel_w/10, else gray w.p.
   gray_w/10; [gray_w = 0] yields a classic dual (G = G'). *)
let random_dual ~n ~rel_w ~gray_w gseed =
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

(* Circulant dual: u is reliable to u±1..rel and gray to
   u±(rel+1)..(rel+gray), mod n (n > 2 (rel + gray)). *)
let circulant ~n ~rel ~gray =
  let es = ref [] and grays = ref [] in
  for u = 0 to n - 1 do
    for k = 1 to rel + gray do
      let v = (u + k) mod n in
      let e = (min u v, max u v) in
      if k <= rel then es := e :: !es else grays := e :: !grays
    done
  done;
  Dual.make ~g:(Graph.of_edges n !es) ~gray:!grays ()

(* Duals with n >= 1024 cost as much to build as a run on them; cases
   draw them from a few sizes and share them, keyed by shape name and n,
   so each name stands for one construction. *)
let shared =
  let memo = Hashtbl.create 16 in
  fun shape n build ->
    match Hashtbl.find_opt memo (shape, n) with
    | Some d -> (shape, d)
    | None ->
      let d = build () in
      Hashtbl.add memo (shape, n) d;
      (shape, d)

(* The large circulants: reliable to u±1..rel, gray beyond to ±(rel+gray). *)
let large_circulant n (shape, rel, gray) = shared shape n (fun () -> circulant ~n ~rel ~gray)
let sparse_circulant = ("sparse circulant", 2, 1)
let dense_circulant = ("dense circulant", 48, 8)
let gray_circulant = ("gray circulant", 2, 24)

let perfect dual = Detector.static (Detector.perfect (Dual.g dual))

(* --- the one property -------------------------------------------------- *)

(* [f ()] with the engine's metrics on, and what it recorded.  The
   flag is the one [Timing.set_enabled] toggles, so it is set here
   rather than once for the whole suite. *)
let recorded f =
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was) (fun () -> Metrics.scoped f)

(* Rounds in which each fast path ran, read through [recorded]:
   [declared] counts the rounds whose declared reach skipped the
   adversary phase. *)
type paths = { declared : int; deliver : int; resume : int }

let counted f =
  let r, snap = recorded f in
  let c name = Option.value ~default:0 (List.assoc_opt name snap.Metrics.counters) in
  ( r,
    {
      declared = c "engine.declared_reach_rounds";
      deliver = c "engine.kernel_rounds";
      resume = c "engine.resume_shard_rounds";
    } )

let no_paths = { declared = 0; deliver = 0; resume = 0 }

let pp_paths p =
  Printf.sprintf "declared=%d deliver=%d resume=%d" p.declared p.deliver p.resume

(* [run] = [run_reference] = traced [run], where [run sink] runs the case
   with an optional sink.  The traced run must take no fast path.
   Returns the untraced result and the paths it took. *)
let agree ~what ~run ~reference =
  let fast, paths = counted (fun () -> run None) in
  let sink = Events.create () in
  let traced, traced_paths = counted (fun () -> run (Some sink)) in
  if fast <> reference () then QCheck.Test.fail_reportf "run <> run_reference: %s" what;
  if fast <> traced then QCheck.Test.fail_reportf "run <> traced run: %s" what;
  if traced_paths <> no_paths then
    QCheck.Test.fail_reportf "a sink did not force scalar (%s): %s" (pp_paths traced_paths)
      what;
  if Events.emitted sink = 0 then QCheck.Test.fail_reportf "sink saw no events: %s" what;
  (fast, paths)

(* [agree] on this file's engine; [config sink] builds the case's config
   with an optional sink. *)
let agree_e ~what config body =
  agree ~what
    ~run:(fun sink -> E.run (config sink) body)
    ~reference:(fun () -> E.run_reference (config None) body)

(* --- the one scenario generator ---------------------------------------- *)

type scenario = {
  dual : Dual.t;
  shape : string;
  adv_name : string;
  adv : Adversary.t;
  wake : int array option;
  stop : Rn_sim.Engine.stop_condition;
  seed : int;
  max_rounds : int;
  shards : int; (* accepted and inert *)
  resume_shards : int;
}

(* Small scenarios (n <= 40) draw one of five random-dual shapes; large
   ones (four sizes from 1031 to 1423, none a multiple of 2) a sparse,
   dense or gray-heavy circulant, so that a round in which every fiber is
   stepped has at least the 1024 a multi-slice resume needs. *)
let scenario ?(large = false) ?(max_wake = 8) ?(max_rounds = 5_000) case =
  let rng = Rng.create ((if large then 0x1A46E else 0xE9A7) + case) in
  let n =
    if large then [| 1031; 1153; 1297; 1423 |].(Rng.int rng 4) else 2 + Rng.int rng 39
  in
  let shape, dual =
    if large then
      large_circulant n [| sparse_circulant; dense_circulant; gray_circulant |].(Rng.int rng 3)
    else
      match Rng.int rng 5 with
      | 0 -> ("sparse", random_dual ~n ~rel_w:2 ~gray_w:2 (Rng.bits rng))
      | 1 -> ("dense", random_dual ~n ~rel_w:6 ~gray_w:3 (Rng.bits rng))
      | 2 -> ("classic", random_dual ~n ~rel_w:7 ~gray_w:0 (Rng.bits rng))
      | 3 -> ("all-gray", random_dual ~n ~rel_w:1 ~gray_w:8 (Rng.bits rng))
      | _ -> ("clique", Dual.classic (Gen.clique n))
  in
  let adv_name, adv = adversaries.(Rng.int rng (Array.length adversaries)) in
  let wake =
    if Rng.bool rng 0.5 then None
    else Some (Array.init n (fun _ -> 1 + Rng.int rng max_wake))
  in
  let stop =
    match Rng.int rng 4 with
    | 0 -> Rn_sim.Engine.All_done
    | 1 -> Rn_sim.Engine.All_decided
    | _ -> Rn_sim.Engine.At_round ((if large then 12 else 5) + Rng.int rng 80)
  in
  {
    dual;
    shape;
    adv_name;
    adv;
    wake;
    stop;
    seed = Rng.int rng 10_000;
    max_rounds;
    shards = 1 + Rng.int rng 4;
    (* more shards than live fibers is legal (empty slices) *)
    resume_shards = [| 1; 2; 4 |].(Rng.int rng 3);
  }

let pp_scenario s =
  Printf.sprintf "n=%d shape=%s adv=%s wake=%s stop=%s seed=%d shards=%d resume_shards=%d"
    (Dual.n s.dual) s.shape s.adv_name
    (if s.wake = None then "sync" else "random")
    (match s.stop with
    | Rn_sim.Engine.All_done -> "all_done"
    | Rn_sim.Engine.All_decided -> "all_decided"
    | Rn_sim.Engine.At_round r -> Printf.sprintf "at_round %d" r)
    s.seed s.shards s.resume_shards

let config_of ?sink s =
  E.config ~adversary:s.adv ~seed:s.seed ?wake:s.wake ~stop:s.stop ~max_rounds:s.max_rounds
    ~shards:s.shards ~resume_shards:s.resume_shards ?sink ~detector:(perfect s.dual) s.dual

let agree_on s body = agree_e ~what:(pp_scenario s) (fun sink -> config_of ?sink s) body

(* The same scenario through the shared Radio instantiation, for the
   real algorithm bodies (synchronous wake). *)
let agree_radio s ~stop body =
  let cfg ?sink () =
    R.config ~adversary:s.adv ~seed:s.seed ~stop ~max_rounds:s.max_rounds ~shards:s.shards
      ~resume_shards:s.resume_shards ?sink ~detector:(perfect s.dual) s.dual
  in
  agree ~what:(pp_scenario s)
    ~run:(fun sink -> R.run (cfg ?sink ()) body)
    ~reference:(fun () -> R.run_reference (cfg ()) body)

(* A scripted body drawing its actions from the process RNG: broadcast,
   listen, batched idle, parked listen, decide; it logs every receive,
   so any divergence shows up in [returns].  With [unroll] the idle
   stretch is replaced by the equivalent silent syncs, and the parked
   listen by silent syncs that stop at the first [Recv] — neither may
   change anything observable.  With [decide_first] every process
   outputs right after its first action, so [All_decided] can stop a run
   whose decisions were counted in a multi-slice resume. *)
let random_body ?(unroll = false) ?(decide_first = false) ~steps ~max_idle ctx =
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
    (match Rng.int rng 7 with
    | 0 | 1 | 2 -> note (E.sync ctx (Some me))
    | 3 -> note (E.sync ctx None)
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
      note (E.sync ctx None));
    if decide_first && not !decided then begin
      decided := true;
      E.output ctx (me land 1)
    end
  done;
  (!log, E.round ctx)

let prop_random_bodies =
  QCheck.Test.make ~name:"run = run_reference (random send/listen/idle bodies)" ~count:200
    QCheck.(small_nat)
    (fun case ->
      let s = scenario ~max_wake:12 case in
      let fast, paths = agree_on s (random_body ~steps:14 ~max_idle:6) in
      if paths.resume <> 0 then
        QCheck.Test.fail_reportf "resume sharded below 1024 fibers: %s" (pp_scenario s);
      if fast <> E.run (config_of s) (random_body ~unroll:true ~steps:14 ~max_idle:6) then
        QCheck.Test.fail_reportf "idle/listen <> unrolled silent syncs: %s" (pp_scenario s);
      true)

(* The body of scenario [s] when large: whatever its wake round (at most
   8), every fiber idles until round 9, listens in it and then runs
   [random_body].  All n >= 1024 fibers sync in round 9, so any
   resume_shards > 1 must shard its resume. *)
let aligned_body s ctx =
  (match s.wake with None -> E.idle ctx 8 | Some w -> E.idle ctx (9 - w.(E.me ctx)));
  ignore (E.sync ctx None);
  random_body ~decide_first:true ~steps:6 ~max_idle:4 ctx

let prop_large =
  QCheck.Test.make ~name:"resume shards k = scalar = reference" ~count:120
    QCheck.(small_nat)
    (fun case ->
      let s = scenario ~large:true case in
      let _, paths = agree_on s (aligned_body s) in
      if s.resume_shards = 1 && paths.resume > 0 then
        QCheck.Test.fail_reportf "sharded on one domain: %s" (pp_scenario s);
      if s.resume_shards > 1 && paths.resume = 0 then
        QCheck.Test.fail_reportf "round 9 did not shard: %s" (pp_scenario s);
      true)

(* Sparse wakes and long idles: the engine fast-forwards whole stretches
   of silent rounds in one jump; the reference grinds through each round
   (and consults the adversary in all of them). *)
let prop_fast_forward =
  QCheck.Test.make ~name:"silent-round fast-forward never changes results" ~count:60
    QCheck.(small_nat)
    (fun case ->
      let s = { (scenario ~max_wake:400 ~max_rounds:3_000 case) with stop = All_done } in
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
      ignore (agree_on s body);
      true)

(* Flooding: one informed source, everyone forwards what they heard with
   probability 1/2.  Exercises Recv payload paths under every adversary. *)
let prop_flood =
  QCheck.Test.make ~name:"run = run_reference (flood body)" ~count:80 QCheck.(small_nat)
    (fun case ->
      let s = { (scenario ~max_wake:6 case) with stop = At_round 40 } in
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
      ignore (agree_on s body);
      true)

let prop_mis =
  QCheck.Test.make ~name:"run = run_reference (MIS body)" ~count:25 QCheck.(small_nat)
    (fun case ->
      let s = scenario ~max_rounds:100_000 case in
      let params = Core.Params.default in
      let stop = R.At_round (Core.Mis.schedule_rounds params ~n:(Dual.n s.dual)) in
      ignore (agree_radio s ~stop (fun ctx -> Core.Mis.body params ctx));
      true)

let prop_tdma =
  QCheck.Test.make ~name:"run = run_reference (TDMA/CCDS body)" ~count:20 QCheck.(small_nat)
    (fun case ->
      let s = scenario ~max_rounds:100_000 case in
      let body ctx = Core.Tdma_ccds.body Core.Params.default ctx in
      ignore (agree_radio s ~stop:R.All_done body);
      true)

(* Moderate-scale pin: the generated scenarios stay at n <= 40 or use
   circulants, so a geometric n=128 MIS run catches size-dependent
   bookkeeping slips (heap ordering, wake-pointer drift, scratch reuse). *)
let test_mis_n128 () =
  let dual =
    Gen.geometric ~rng:(Rng.create 7)
      (Gen.default_spec ~n:128 ~side:(Gen.side_for_degree ~n:128 ~target_degree:12) ())
  in
  let params = Core.Params.default in
  let stop = R.At_round (Core.Mis.schedule_rounds params ~n:(Dual.n dual)) in
  let cfg =
    R.config ~adversary:(Adversary.bernoulli 0.5) ~seed:41 ~stop ~detector:(perfect dual) dual
  in
  let fast = R.run cfg (fun ctx -> Core.Mis.body params ctx) in
  let oracle = R.run_reference cfg (fun ctx -> Core.Mis.body params ctx) in
  Alcotest.(check bool) "identical results at n=128" true (fast = oracle)

(* --- fast-forward bookkeeping ------------------------------------------ *)

let path2 = Dual.classic (Gen.path 2)

let test_far_wake_jump () =
  let cfg = E.config ~wake:[| 1; 300 |] ~detector:(perfect path2) path2 in
  let body ctx = ignore (E.sync ctx (Some (E.me ctx))) in
  let fast = E.run cfg body in
  Alcotest.(check bool) "identical results" true (fast = E.run_reference cfg body);
  Alcotest.(check int) "runs to the late wake" 300 fast.E.rounds;
  (* rounds 2..299 have no broadcaster: fast-forwarded, still counted *)
  Alcotest.(check int) "silent rounds counted" 298 fast.E.stats.silent_rounds

let test_idle_past_stop () =
  (* A fiber idling beyond At_round: the run ends mid-stretch. *)
  let cfg = E.config ~stop:(At_round 10) ~detector:(perfect path2) path2 in
  let body ctx =
    ignore (E.sync ctx (Some (E.me ctx)));
    E.idle ctx 1_000;
    E.round ctx
  in
  let fast = E.run cfg body in
  Alcotest.(check bool) "identical results" true (fast = E.run_reference cfg body);
  Alcotest.(check int) "stopped at 10" 10 fast.E.rounds;
  Alcotest.(check bool) "no return yet" true (fast.E.returns = [| None; None |])

(* "Park forever": the expiry key saturates at max_int instead of wrapping
   negative, so the run still fast-forwards to its stop round. *)
let test_idle_forever_fast_forwards () =
  let cfg = E.config ~stop:(At_round 1_000_000) ~detector:(perfect path2) path2 in
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
  let cfg = E.config ~wake:[| 1; 50_000 |] ~detector:(perfect path2) path2 in
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
   delivered-to: it must wake with the message, on the kernel and the
   scalar delivery path.  Nodes 0-1 and 1-2 are reliable, 0-2 is gray;
   node 0 listens for rounds 2..4 (parked from the resume phase), node 1
   speaks in round 4, node 2 too, so a gray-activating adversary turns
   node 0's delivery into a collision.  Nodes 3..22 are a separate
   clique that broadcasts in rounds 1..5, which makes every one of those
   rounds dense enough for the delivery kernel. *)
let test_listen_last_round () =
  let pad = 20 in
  let clique =
    List.concat_map
      (fun i -> List.init (pad - 1 - i) (fun j -> (3 + i, 4 + i + j)))
      (List.init pad Fun.id)
  in
  let dual =
    Dual.make ~g:(Graph.of_edges (3 + pad) ([ (0, 1); (1, 2) ] @ clique)) ~gray:[ (0, 2) ] ()
  in
  let body ctx =
    let me = E.me ctx in
    if me >= 3 then begin
      for _ = 1 to 5 do
        ignore (E.sync ctx (Some me))
      done;
      (None, E.round ctx)
    end
    else begin
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
    end
  in
  Array.iter
    (fun (adv_name, adversary) ->
      let fast, paths =
        agree_e ~what:adv_name
          (fun sink -> E.config ~adversary ~seed:3 ?sink ~detector:(perfect dual) dual)
          body
      in
      Alcotest.(check bool) (adv_name ^ ": kernel delivered") true (paths.deliver >= 5);
      if adv_name = "silent" then
        Alcotest.(check bool) (adv_name ^ ": woke in round 3 of 3") true
          (fast.E.returns.(0) = Some (Some (3, 1), 5)))
    adversaries

(* --- the listener contract ----------------------------------------------- *)

(* [listen_for]'s callback runs in the resume phase, outside the fiber.
   Every case runs on two worlds of 1100 nodes — a circulant at ±2
   reliable and ±3..4 gray under Bernoulli 0.5, where delivery stays
   scalar, and one at ±48 reliable, where it takes the kernel — at
   [resume_shards] 1 and 2, and holds [run] = [run_reference] = traced
   [run].  In each, the nodes [v mod 4 = 0] speak: from round 1 on they
   broadcast the round number with probability [p] each round.  The
   others listen after a first silent sync, so every fiber is stepped
   in round 1 and at 2 slices that round's resume is cut. *)
type listener_world = {
  world : string;
  wdual : Dual.t Lazy.t;
  wadv : Adversary.t;
  p : float;
  kernel : bool;
}

let listener_worlds =
  [
    {
      world = "scalar";
      wdual = lazy (circulant ~n:1100 ~rel:2 ~gray:2);
      wadv = Adversary.bernoulli 0.5;
      p = 0.3;
      kernel = false;
    };
    {
      world = "kernel";
      wdual = lazy (circulant ~n:1100 ~rel:48 ~gray:0);
      wadv = Adversary.silent;
      p = 0.1;
      kernel = true;
    };
  ]

let listener_config w ~resume_shards ?sink () =
  let dual = Lazy.force w.wdual in
  E.config ~adversary:w.wadv ~seed:23 ~resume_shards ?sink ~detector:(perfect dual) dual

(* A speaker's 40 rounds, each message its round number, returning
   [quiet]; a listener's silent sync, then [listen ctx]. *)
let speak_or_listen w ~quiet listen ctx =
  if E.me ctx land 3 = 0 then begin
    for _ = 1 to 40 do
      ignore (E.sync_p ctx w.p (E.round ctx + 1))
    done;
    quiet
  end
  else begin
    ignore (E.sync ctx None);
    listen ctx
  end

(* [check w what r] the result [r] of [body w] in every world [w] at 1
   and 2 slices, after [run] = [run_reference] = traced [run] and the
   paths taken. *)
let on_listener_worlds ~what body check =
  List.iter
    (fun w ->
      List.iter
        (fun resume_shards ->
          let what = Printf.sprintf "%s (%s, %d slices)" what w.world resume_shards in
          let r, paths =
            agree_e ~what (fun sink -> listener_config w ~resume_shards ?sink ()) (body w)
          in
          Alcotest.(check bool)
            (what ^ ": kernel ran iff expected")
            w.kernel (paths.deliver > 0);
          Alcotest.(check bool)
            (what ^ ": resume cut iff 2 slices")
            (resume_shards = 2) (paths.resume > 0);
          check w what r)
        [ 1; 2 ])
    listener_worlds

(* The listeners' results [Some x], and a check that there is one. *)
let listeners what ~did (r : _ E.result) =
  let xs =
    List.filter_map (function Some (Some x) -> Some x | _ -> None) (Array.to_list r.returns)
  in
  Alcotest.(check bool) (what ^ ": someone " ^ did) true (xs <> []);
  xs

(* [listen_for] written out as [k] silent syncs. *)
let listen_for_unrolled ctx k ~on_recv =
  for _ = 1 to k do
    match E.sync ctx None with E.Recv m -> on_recv m | E.Own | E.Silence -> ()
  done

(* Five windows of 1..12 rounds drawn from the listener's RNG, logging
   (round, message) for each message heard and a draw from the RNG at
   every third; the listener decides 1 at its second message. *)
let window_body listen_for w =
  speak_or_listen w ~quiet:None (fun ctx ->
      let rng = E.rng ctx in
      let log = ref [] and heard = ref 0 in
      let on_recv m =
        incr heard;
        log := (E.round ctx, m) :: !log;
        if !heard mod 3 = 0 then log := (-1, Rng.int rng 100) :: !log;
        if !heard = 2 then E.output ctx 1
      in
      for _ = 1 to 5 do
        listen_for ctx (1 + Rng.int rng 12) ~on_recv
      done;
      if !log = [] then None else Some (List.rev !log, E.round ctx))

let test_listen_for_unrolled () =
  on_listener_worlds ~what:"listen_for" (window_body E.listen_for) (fun w what r ->
      ignore (listeners what ~did:"heard" r);
      let unrolled =
        E.run (listener_config w ~resume_shards:1 ()) (window_body listen_for_unrolled w)
      in
      Alcotest.(check bool) (what ^ ": = unrolled syncs") true (r = unrolled));
  (* no callback raises, so every receive was heard without a wake *)
  let w = List.hd listener_worlds in
  let _, snap =
    recorded (fun () ->
        E.run (listener_config w ~resume_shards:1 ()) (window_body E.listen_for w))
  in
  let c name = Option.value ~default:0 (List.assoc_opt name snap.Metrics.counters) in
  Alcotest.(check bool) "engine.listen_heard > 0" true (c "engine.listen_heard" > 0);
  Alcotest.(check int) "engine.listen_wakes" 0 (c "engine.listen_wakes")

(* [round] read in [on_recv] is the round the message was sent in. *)
let test_listen_for_round () =
  let body w =
    speak_or_listen w ~quiet:None (fun ctx ->
        let seen = ref [] in
        E.listen_for ctx 30 ~on_recv:(fun m -> seen := (E.round ctx, m) :: !seen);
        if !seen = [] then None else Some !seen)
  in
  on_listener_worlds ~what:"round in on_recv" body (fun _ what r ->
      List.iter
        (List.iter (fun (round, m) -> Alcotest.(check int) (what ^ ": receive round") m round))
        (listeners what ~did:"heard" r))

(* [output] in [on_recv] at the first message decides in the round it
   was sent in. *)
let test_listen_for_output () =
  let body w =
    speak_or_listen w ~quiet:None (fun ctx ->
        let first = ref None in
        E.listen_for ctx 30 ~on_recv:(fun m ->
            if !first = None then first := Some m;
            E.output ctx 1);
        !first)
  in
  on_listener_worlds ~what:"output in on_recv" body (fun _ what r ->
      ignore (listeners what ~did:"decided" r);
      Array.iteri
        (fun v -> function
          | Some (Some m) ->
            Alcotest.(check (option int)) (what ^ ": decided round") (Some m)
              r.E.decided_round.(v)
          | Some None | None -> ())
        r.E.returns)

(* An [on_recv] that raises at the first message wakes the fiber in the
   round it was sent in; the body catches the exception and syncs once
   more. *)
let test_listen_for_raise () =
  let body w =
    speak_or_listen w ~quiet:None (fun ctx ->
        match E.listen_for ctx 30 ~on_recv:(fun m -> raise (Boom m)) with
        | () -> None
        | exception Boom m ->
          let caught = E.round ctx in
          ignore (E.sync ctx None);
          Some (m, caught, E.round ctx))
  in
  on_listener_worlds ~what:"raise in on_recv" body (fun _ what r ->
      List.iter
        (fun (m, caught, after) ->
          Alcotest.(check (pair int int))
            (what ^ ": woke in the receive round")
            (m, m + 1) (caught, after))
        (listeners what ~did:"raised" r))

(* [listen] is the park whose callback always wakes: at the first
   message, with its stretch index. *)
let test_listen_first () =
  let body w =
    speak_or_listen w ~quiet:None (fun ctx ->
        let base = E.round ctx in
        match E.listen ctx 30 with
        | Some (i, m) -> Some (base + i, m, E.round ctx)
        | None -> None)
  in
  on_listener_worlds ~what:"listen" body (fun _ what r ->
      List.iter
        (fun (at, m, round) ->
          Alcotest.(check (pair int int))
            (what ^ ": woke in the send round")
            (m, m) (at, round))
        (listeners what ~did:"woke" r))

(* An [on_recv] that performs an engine effect runs outside its fiber:
   the run raises [Invalid_argument], in [run] at either slice count
   and in [run_reference]. *)
let test_listen_for_effect () =
  let misuse = Invalid_argument "Engine.listen_for: on_recv performed an engine effect" in
  List.iter
    (fun (effect, perform) ->
      let body w =
        speak_or_listen w ~quiet:() (fun ctx ->
            E.listen_for ctx 30 ~on_recv:(fun _ -> perform ctx))
      in
      List.iter
        (fun w ->
          let raises what run =
            Alcotest.check_raises
              (Printf.sprintf "%s in on_recv (%s, %s)" effect w.world what)
              misuse
              (fun () -> ignore (run (body w)))
          in
          raises "1 slice" (E.run (listener_config w ~resume_shards:1 ()));
          raises "2 slices" (E.run (listener_config w ~resume_shards:2 ()));
          raises "run_reference" (E.run_reference (listener_config w ~resume_shards:1 ())))
        listener_worlds)
    [
      ("sync", fun ctx -> ignore (E.sync ctx None));
      ("listen", fun ctx -> ignore (E.listen ctx 2));
      ("idle", fun ctx -> E.idle ctx 2);
    ]

let test_observer_disables_jump () =
  (* With an observer every round must be materialised and observed. *)
  let seen = ref [] in
  let cfg =
    E.config ~wake:[| 1; 5 |]
      ~observer:(fun v ->
        seen := (v.E.view_round, Array.length v.E.view_broadcasters) :: !seen)
      ~detector:(perfect path2) path2
  in
  ignore (E.run cfg (fun ctx -> ignore (E.sync ctx (Some (E.me ctx)))));
  Alcotest.(check (list (pair int int)))
    "observer saw every round" [ (1, 1); (2, 0); (3, 0); (4, 0); (5, 1) ] (List.rev !seen)

(* A detector that breaks its declared stabilisation: declared stable
   from round 3, its output changes again at round 6.  [run] serves the
   first value it queried at or after round 3 for the rest of the run;
   [run_reference] re-queries every round.  The two disagree, which is
   why their agreement is only claimed for detectors that honour the
   declaration.  Node 0 reads [1 ∈ L_0] before each of its 10 syncs. *)
let test_detector_breaks_stabilisation () =
  let ring = Gen.ring 4 in
  let dual = Dual.classic ring in
  let full = Detector.perfect ring in
  let empty = Detector.of_sets (Array.init 4 (fun _ -> Bitset.create 4)) in
  let detector =
    Detector.dynamic ~at:(fun r -> if r < 6 then full else empty) ~stabilizes_at:3 ()
  in
  let cfg = E.config ~stop:(At_round 10) ~detector dual in
  let body ctx =
    String.init 10 (fun _ ->
        let bit = if E.detector_mem ctx ((E.me ctx + 1) mod 4) then '1' else '0' in
        ignore (E.sync ctx None);
        bit)
  in
  Alcotest.(check (option string)) "run serves the cached value" (Some "1111111111")
    (E.run cfg body).E.returns.(0);
  Alcotest.(check (option string)) "run_reference re-queries" (Some "1111110000")
    (E.run_reference cfg body).E.returns.(0)

(* --- fibers left suspended ----------------------------------------------- *)

(* A run that stops with fibers still suspended unwinds them: each
   fiber's [Fun.protect ~finally] runs once, in [run] and in
   [run_reference] alike, [engine.discontinued] counts them, and the
   result is the one the same bodies give without the [finally].  The
   stops cover [At_round] with fibers synced, idling and listening,
   [All_decided] with bodies that never return, a [max_rounds] timeout,
   and a fiber that raises. *)
let test_unwind_suspended () =
  let n = 64 in
  let dual = Dual.classic (Gen.ring n) in
  let body ctx =
    let me = E.me ctx in
    if me = 0 then E.output ctx 1;
    while true do
      (match me mod 3 with
      | 0 -> ignore (E.sync_p ctx 0.3 me)
      | 1 -> E.idle ctx 2
      | _ -> ignore (E.listen ctx max_int));
      if E.round ctx >= 3 && me > 0 then E.output ctx 0
    done
  in
  let guarded unwound ctx = Fun.protect ~finally:(fun () -> incr unwound) (fun () -> body ctx) in
  let check what ~cut cfg =
    let plain = E.run cfg body in
    let unwound = ref 0 in
    let r, snap = recorded (fun () -> E.run cfg (guarded unwound)) in
    Alcotest.(check bool) (what ^ ": result unchanged") true (r = plain);
    Alcotest.(check int) (what ^ ": run unwound") cut !unwound;
    Alcotest.(check (option int))
      (what ^ ": engine.discontinued") (Some cut)
      (List.assoc_opt "engine.discontinued" snap.Metrics.counters);
    let unwound = ref 0 in
    Alcotest.(check bool)
      (what ^ ": run_reference agrees") true
      (E.run_reference cfg (guarded unwound) = plain);
    Alcotest.(check int) (what ^ ": run_reference unwound") cut !unwound
  in
  let cfg ?(max_rounds = 2_000_000) stop =
    E.config ~adversary:(Adversary.bernoulli 0.5) ~seed:9 ~stop ~max_rounds
      ~detector:(perfect dual) dual
  in
  check "At_round" ~cut:n (cfg (At_round 8));
  check "All_decided" ~cut:n (cfg All_decided);
  check "timeout" ~cut:n (cfg ~max_rounds:5 All_done);
  (* fiber 5 raises in round 4; the other n - 1 are unwound *)
  let raising unwound ctx =
    Fun.protect
      ~finally:(fun () -> incr unwound)
      (fun () ->
        for _ = 1 to 3 do
          ignore (E.sync ctx None)
        done;
        if E.me ctx = 5 then raise (Boom 5);
        body ctx)
  in
  List.iter
    (fun (what, run) ->
      let unwound = ref 0 in
      Alcotest.check_raises what (Boom 5) (fun () -> ignore (run (cfg All_done) (raising unwound)));
      Alcotest.(check int) (what ^ ": every fiber unwound") n !unwound)
    [ ("run raises", E.run); ("run_reference raises", E.run_reference) ]

(* --- allocation budget --------------------------------------------------- *)

(* What a fiber-round may allocate is counted in units of what one bare
   perform and continue allocates on this runtime: the continuation
   object the runtime builds for every perform (2 words on OCaml 5.1).
   Nothing else has to be allocated for a listener, so a budget of a
   perform plus a fraction of a word per fiber-round leaves no room
   for a wrapper around the continuation (2 words), a boxed park
   request (4) or a closure per broadcaster (4 or more). *)
type _ Effect.t += Probe : unit Effect.t

let resume_probe : ((unit, unit) Effect.Deep.continuation -> unit) option =
  Some (fun k -> Effect.Deep.continue k ())

let perform_words =
  lazy
    (let run count =
       let w0 = Gc.minor_words () in
       Effect.Deep.match_with
         (fun () ->
           for _ = 1 to count do
             Effect.perform Probe
           done)
         ()
         {
           retc = Fun.id;
           exnc = raise;
           effc =
             (fun (type a) (e : a Effect.t) :
                  ((a, unit) Effect.Deep.continuation -> unit) option ->
               match e with Probe -> resume_probe | _ -> None);
         };
       Gc.minor_words () -. w0
     in
     ignore (run 100);
     (run 10_100 -. run 100) /. 10_000.)

(* The minor words and the result of [body rounds] on [dual], run for
   [rounds] rounds. *)
let run_words ?(adversary = Adversary.silent) dual body rounds =
  let cfg =
    E.config ~adversary ~seed:5 ~stop:(At_round rounds) ~detector:(perfect dual) dual
  in
  let w0 = Gc.minor_words () in
  let r = E.run cfg (body rounds) in
  let w = Gc.minor_words () -. w0 in
  Alcotest.(check int) (Printf.sprintf "%d rounds run" rounds) rounds r.E.rounds;
  (w, r)

(* Words per fiber-round of [body rounds] on [dual] over [rounds] rounds:
   the difference of an 8- and a 40-round run over the 32 extra rounds,
   so the setup's allocation cancels.  Checked against [perform_words]
   plus [slack] and printed. *)
let check_fiber_round_words ~what ~slack ?adversary dual body =
  let n = Dual.n dual and short = 8 and long = 40 in
  let words rounds = fst (run_words ?adversary dual body rounds) in
  ignore (words short);
  let per_fiber_round = (words long -. words short) /. float_of_int (n * (long - short)) in
  let p = Lazy.force perform_words in
  Printf.printf "%s: %.2f words per fiber-round (a bare perform: %.2f, budget %.2f)\n%!" what
    per_fiber_round p (p +. slack);
  if per_fiber_round > p +. slack then
    Alcotest.failf "%s: %.2f words per fiber-round, budget %.2f (a bare perform %.2f + %.2f)"
      what per_fiber_round (p +. slack) p slack

let ring_2048 = lazy (Dual.classic (Gen.ring 2048))

(* A [sync_p 0.25] beacon on a ring: beyond the perform, a quarter of the
   fibers send ([Send m], 3 words) and about 0.28 of them receive
   ([Recv m], 2 words): 1.3 words.  (The round's broadcaster snapshot
   is too large for the minor heap and is not counted.) *)
let test_alloc_beacon () =
  check_fiber_round_words ~what:"sync_p beacon" ~slack:2.0 (Lazy.force ring_2048)
    (fun rounds ctx ->
      for _ = 1 to rounds do
        ignore (E.sync_p ctx 0.25 (E.me ctx))
      done)

(* Nothing but parks of one round: [idle 1] and [listen 1] in turn, so
   every fiber-round is one park effect and its expiry. *)
let test_alloc_parks () =
  check_fiber_round_words ~what:"idle/listen parks" ~slack:0.5 (Lazy.force ring_2048)
    (fun rounds ctx ->
      for i = 1 to rounds do
        if i land 1 = 0 then E.idle ctx 1 else ignore (E.listen ctx 1)
      done)

(* Every fiber broadcasts every round under [bernoulli 0.5], whose walk
   draws for each gray edge of each broadcaster: beyond the perform,
   only its [Send m] (3 words).  [sync_p 1.0] broadcasts without the
   [Some] a [sync] call would allocate in the body. *)
let test_alloc_all_broadcast () =
  check_fiber_round_words ~what:"all broadcast, bernoulli" ~slack:3.5
    ~adversary:(Adversary.bernoulli 0.5)
    (circulant ~n:2048 ~rel:2 ~gray:2)
    (fun rounds ctx ->
      for _ = 1 to rounds do
        ignore (E.sync_p ctx 1.0 (E.me ctx))
      done)

(* Deliveries on the scalar path: in round i the nodes v with
   v + i = 0 (mod 17) broadcast on a degree-16 circulant of 17 * 120
   nodes, so each broadcaster's 16 neighbours all hear it, and one
   broadcaster in 17 keeps every round off the delivery kernel.  Beyond a
   perform per fiber-round, a round allocates a [Send m] per broadcaster
   (3 words) and the [Recv m] its receivers share (2): 0.3 words per
   delivery.  A [Recv m] per receiver would add 2. *)
let test_alloc_deliveries () =
  let dual = circulant ~n:(17 * 120) ~rel:8 ~gray:0 in
  let body rounds ctx =
    let me = E.me ctx in
    for i = 1 to rounds do
      ignore (E.sync_p ctx (if (me + i) mod 17 = 0 then 1.0 else 0.0) me)
    done
  in
  ignore (run_words dual body 8);
  let w_short, r_short = run_words dual body 8 in
  let w_long, r_long = run_words dual body 40 in
  let fiber_rounds = float_of_int (Dual.n dual * 32) in
  let deliveries = r_long.E.stats.deliveries - r_short.E.stats.deliveries in
  Alcotest.(check int) "every neighbour of a broadcaster hears it" (16 * 120 * 32) deliveries;
  let p = Lazy.force perform_words in
  let per_delivery = (w_long -. w_short -. (fiber_rounds *. p)) /. float_of_int deliveries in
  let budget = p /. 2.0 in
  Printf.printf
    "scalar deliveries: %.2f words per delivery (a bare perform: %.2f, budget %.2f)\n%!"
    per_delivery p budget;
  if per_delivery > budget then
    Alcotest.failf
      "scalar deliveries: %.2f words per delivery, budget %.2f (half a bare perform)"
      per_delivery budget

(* --- delivery kernel --------------------------------------------------- *)

(* Each node broadcasts w.p. 0.03 for 30 rounds, logging every sender it
   hears: ~2 expected senders per 64-neighbourhood, so deliveries and
   collisions both occur in quantity. *)
let beacon ?(p = 0.03) rounds ctx =
  let heard = ref [] in
  for _ = 1 to rounds do
    match E.sync_p ctx p (E.me ctx) with
    | E.Recv src -> heard := src :: !heard
    | E.Own | E.Silence -> ()
  done;
  !heard

let beacon_config ?(shards = 1) ?(resume_shards = 1) ?sink ~adversary dual =
  E.config ~adversary ~seed:11 ~stop:(At_round 30) ~shards ~resume_shards ?sink
    ~detector:(perfect dual) dual

let agree_beacon ?shards ?resume_shards ~adversary ~what dual =
  agree_e ~what
    (fun sink -> beacon_config ?shards ?resume_shards ?sink ~adversary dual)
    (beacon 30)

(* A circulant at n=512 has every node at degree 64 — kernel rounds
   throughout, with enough words per row to catch top-word masking and
   word-indexing slips.  Its sparse twin (degree 4, gray degree 2, a
   spiteful adversary) takes no delivery kernel, only spiteful's
   declared reach. *)
let test_kernel_n512 () =
  let dense = circulant ~n:512 ~rel:32 ~gray:0 in
  let r, p =
    agree_beacon ~resume_shards:4 ~adversary:(Adversary.bernoulli 0.5) ~what:"dense" dense
  in
  Alcotest.(check bool) "deliveries happened" true (r.E.stats.deliveries > 0);
  Alcotest.(check bool) "collisions happened" true (r.E.stats.collisions > 0);
  Alcotest.(check bool) "dense: delivery kernel ran" true (p.deliver > 0);
  Alcotest.(check int) "n=512: no sharded resume" 0 p.resume;
  let sparse = circulant ~n:512 ~rel:2 ~gray:1 in
  let r, p = agree_beacon ~adversary:Adversary.spiteful ~what:"sparse" sparse in
  Alcotest.(check bool) "sparse: deliveries happened" true (r.E.stats.deliveries > 0);
  Alcotest.(check bool) "sparse: declared reach" true (p.declared > 0);
  Alcotest.(check string) "sparse: no other fast path" (pp_paths no_paths)
    (pp_paths { p with declared = 0 })

(* Twin of the pin above on a gray band: reliable ±1..32, gray ±33..40.
   Every adversary here switches gray edges on: under bernoulli the
   kernel's two gray sweeps (reach accumulation, then receive
   assignment) run at scale, and under spiteful and all_gray, which
   declare their reach, it ORs the N_G' rows instead.  A message that
   arrived over a gray edge is visible in [returns]. *)
let test_kernel_n512_gray () =
  let n = 512 in
  let dual = circulant ~n ~rel:32 ~gray:8 in
  let over_gray v src =
    let d = abs (v - src) in
    min d (n - d) > 32
  in
  List.iter
    (fun (name, adversary, declares) ->
      let r, p = agree_beacon ~adversary ~what:name dual in
      Alcotest.(check bool) (name ^ ": deliveries happened") true (r.E.stats.deliveries > 0);
      Alcotest.(check bool) (name ^ ": delivery kernel ran") true (p.deliver > 0);
      Alcotest.(check bool)
        (name ^ ": declared-reach rounds iff it declares")
        declares (p.declared > 0);
      let gray_receives = ref 0 in
      Array.iteri
        (fun v heard ->
          List.iter
            (fun src -> if over_gray v src then incr gray_receives)
            (Option.value ~default:[] heard))
        r.E.returns;
      Alcotest.(check bool) (name ^ ": received over gray edges") true (!gray_receives > 0))
    [
      ("bernoulli 0.5", Adversary.bernoulli 0.5, false);
      ("spiteful", Adversary.spiteful, true);
      ("all_gray", Adversary.all_gray, true);
    ]

(* The next cases keep the names of the per-phase modes the engine once
   had: "`On" is the kernel the engine picks on these dense rounds, "`Off"
   the scalar path a sink forces. *)

(* Dense duals (n >= 16) with a synchronous wake: round 1 alone has
   enough broadcasters for the delivery kernel.  The gray share of the
   "dense" shape is small, because on a [Chosen] round the kernel is
   priced on G's degrees less the gray degrees it walks twice. *)
let dense_scenario case =
  let s = scenario case in
  let rng = Rng.create (0xDE75 + case) in
  let n = 16 + Rng.int rng 25 in
  let shape, dual =
    match Rng.int rng 3 with
    | 0 -> ("dense", random_dual ~n ~rel_w:7 ~gray_w:2 (Rng.bits rng))
    | 1 -> ("classic", random_dual ~n ~rel_w:7 ~gray_w:0 (Rng.bits rng))
    | _ -> ("clique", Dual.classic (Gen.clique n))
  in
  { s with dual; shape; wake = None }

let prop_kernel_equiv =
  QCheck.Test.make ~name:"kernel `On = `Off = run_reference" ~count:200 QCheck.(small_nat)
    (fun case ->
      let s = dense_scenario case in
      let _, paths = agree_on s (random_body ~steps:14 ~max_idle:4) in
      if paths.deliver = 0 then
        QCheck.Test.fail_reportf "delivery kernel never ran: %s" (pp_scenario s);
      true)

(* MIS discards messages from outside the detector set, so on a sparse G
   it keeps several members whatever the adversary does, and every
   announcement phase has rounds with two or more of them broadcasting.
   Here G' is complete (each pair reliable or gray) and the adversary is
   [all_gray], which reaches every gray edge, so each broadcaster reaches
   all n - 1 others and such a round is a kernel round.  (Under a policy
   that reaches no gray edge the round is priced by G's degrees alone and
   stays scalar.) *)
let prop_kernel_mis =
  QCheck.Test.make ~name:"kernel `On = `Off (MIS body)" ~count:15 QCheck.(small_nat)
    (fun case ->
      let rng = Rng.create (0x3715 + case) in
      let n = 24 + Rng.int rng 17 in
      let s =
        {
          (dense_scenario case) with
          dual = random_dual ~n ~rel_w:2 ~gray_w:8 (Rng.bits rng);
          shape = "sparse G, complete G'";
          adv_name = "all_gray";
          adv = Adversary.all_gray;
        }
      in
      let params = Core.Params.default in
      let stop = R.At_round (Core.Mis.schedule_rounds params ~n:(Dual.n s.dual)) in
      let _, paths = agree_radio s ~stop (fun ctx -> Core.Mis.body params ctx) in
      if paths.deliver = 0 then
        QCheck.Test.fail_reportf "delivery kernel never ran: %s" (pp_scenario s);
      true)

(* --- the run's minor heap ------------------------------------------- *)

(* [run] raises the calling domain's minor heap to 32 words per fiber
   when that exceeds its size, for the run only; a resume cut in k
   slices grows its Pool domains' heaps to 32 words per fiber over k.
   Heap sizes are read with [Gc.get], which reports the calling
   domain's. *)
let minor_heap () = (Gc.get ()).Gc.minor_heap_size

let with_minor_heap words f =
  let was = minor_heap () in
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = words };
  Fun.protect ~finally:(fun () -> Gc.set { (Gc.get ()) with Gc.minor_heap_size = was }) f

(* The heap sizes [run]'s observer saw, one per executed round. *)
let heap_seen ~adversary dual body =
  let seen = ref [] in
  let observer (_ : E.view) = seen := minor_heap () :: !seen in
  let cfg =
    E.config ~adversary ~seed:11 ~stop:(At_round 30) ~observer ~detector:(perfect dual) dual
  in
  let r = E.run cfg body in
  (r, List.sort_uniq compare !seen)

(* Below 4,096 words the rule fires at n = 256: the run sees 8,192, the
   results equal [run_reference]'s, and the size is back afterwards,
   also when a fiber raises. *)
let test_heap_sized_for_run () =
  with_minor_heap 4096 (fun () ->
      let n = 256 in
      let dual = circulant ~n ~rel:4 ~gray:2 in
      List.iter
        (fun (name, adversary) ->
          let r, seen = heap_seen ~adversary dual (beacon ~p:0.25 30) in
          Alcotest.(check (list int)) (name ^ ": heap during the run") [ 32 * n ] seen;
          Alcotest.(check int) (name ^ ": heap after the run") 4096 (minor_heap ());
          let cfg = beacon_config ~adversary dual in
          Alcotest.(check bool)
            (name ^ ": run = run_reference") true
            (r = E.run_reference cfg (beacon ~p:0.25 30));
          Alcotest.(check int) (name ^ ": heap after run_reference") 4096 (minor_heap ()))
        [ ("bernoulli 0.5", Adversary.bernoulli 0.5); ("spiteful", Adversary.spiteful) ];
      let boom ctx =
        for _ = 1 to 3 do
          ignore (E.sync_p ctx 0.25 (E.me ctx))
        done;
        if E.me ctx = 7 then raise (Boom 7);
        beacon ~p:0.25 27 ctx
      in
      Alcotest.check_raises "a fiber raises" (Boom 7) (fun () ->
          ignore (E.run (beacon_config ~adversary:(Adversary.bernoulli 0.5) dual) boom));
      Alcotest.(check int) "heap after the raise" 4096 (minor_heap ()))

(* Where 32 words per fiber do not exceed the heap, the run keeps it. *)
let test_heap_kept () =
  let check what n =
    let before = minor_heap () in
    let _, seen =
      heap_seen ~adversary:(Adversary.bernoulli 0.5) (circulant ~n ~rel:4 ~gray:2)
        (beacon ~p:0.25 30)
    in
    Alcotest.(check (list int)) (what ^ ": heap during the run") [ before ] seen;
    Alcotest.(check int) (what ^ ": heap after the run") before (minor_heap ())
  in
  with_minor_heap 4096 (fun () -> check "n = 64 below 4,096 words" 64);
  check "n = 256 at the default heap" 256

(* At n = 33,024 a resume cut in 2 or 4 slices grows its Pool domains'
   heaps (a new domain starts at 262,144 words on OCaml 5.1; 32 words
   per fiber over 4 slices is 264,192, a whole number of pages, as is
   every size here).  Every body reads the heap of the domain that
   stepped it, which holds at least 32 words per fiber of its share;
   results are identical at 1, 2 and 4 slices and equal
   [run_reference]'s. *)
let test_heap_resume_slices () =
  let n = 33_024 in
  let dual = circulant ~n ~rel:2 ~gray:1 in
  let seen = Array.make n 0 in
  let body ctx =
    let me = E.me ctx in
    for _ = 1 to 6 do
      ignore (E.sync_p ctx 0.25 me);
      seen.(me) <- max seen.(me) (minor_heap ())
    done
  in
  let cfg resume_shards =
    E.config ~adversary:(Adversary.bernoulli 0.5) ~seed:17 ~stop:(At_round 6) ~resume_shards
      ~detector:(perfect dual) dual
  in
  let before = minor_heap () in
  let runs =
    List.map
      (fun k ->
        Array.fill seen 0 n 0;
        let r = E.run (cfg k) body in
        let lo = Array.fold_left min max_int seen in
        Alcotest.(check bool)
          (Printf.sprintf "%d slices: every body ran with at least %d words (least %d)" k
             (32 * n / k) lo)
          true
          (lo >= 32 * n / k);
        Alcotest.(check int) (Printf.sprintf "%d slices: heap after" k) before (minor_heap ());
        r)
      [ 1; 2; 4 ]
  in
  let reference = E.run_reference (cfg 1) body in
  List.iteri
    (fun i r ->
      Alcotest.(check bool) (Printf.sprintf "run %d = run_reference" i) true (r = reference))
    runs

(* [engine.minor_words] counts what the run allocates, not the resize:
   a one-round beacon at n = 9,000 from the default 262,144-word heap,
   where the rule raises it to 288,000 words, reads within 10% of the
   same run from a heap already that large, where it does not fire. *)
let test_heap_minor_words () =
  let n = 9_000 in
  let dual = Dual.classic (Gen.ring n) in
  let cfg = E.config ~seed:3 ~stop:(At_round 1) ~detector:(perfect dual) dual in
  let body ctx = ignore (E.sync_p ctx 0.25 (E.me ctx)) in
  let minor_words heap =
    with_minor_heap heap (fun () ->
        let _, snap = recorded (fun () -> E.run cfg body) in
        Option.value ~default:0 (List.assoc_opt "engine.minor_words" snap.Metrics.counters))
  in
  ignore (minor_words (32 * n));
  let fired = minor_words 262_144 and kept = minor_words (32 * n) in
  Printf.printf "engine.minor_words: %d with the resize, %d without\n%!" fired kept;
  if abs (fired - kept) * 10 > kept then
    Alcotest.failf "engine.minor_words %d with the resize, %d without: more than 10%% apart"
      fired kept

(* --- jamming: choose = n-scan ------------------------------------------ *)

(* The oracle: jamming as a scan of all n nodes.  Byte flags mark the
   broadcasters and an int array counts each node's reliable
   broadcasting neighbours; every non-broadcaster with a count of
   exactly 1 has the gray edge to the first broadcasting neighbour of
   its gray row ([Dual.gray_adj] order) switched on. *)
let jamming_scan ~broadcasters dual active =
  let n = Dual.n dual and g = Dual.g dual in
  let bcast = Bytes.make n '\000' and counts = Array.make n 0 in
  Array.iter (fun u -> Bytes.set bcast u '\001') broadcasters;
  Array.iter
    (fun u -> Graph.iter_neighbors (fun v -> counts.(v) <- counts.(v) + 1) g u)
    broadcasters;
  for v = 0 to n - 1 do
    if Bytes.get bcast v = '\000' && counts.(v) = 1 then
      match
        Array.find_opt (fun (w, _) -> Bytes.get bcast w = '\001') (Dual.gray_adj dual v)
      with
      | Some (_, id) -> Bitset.add active id
      | None -> ()
  done

let random_broadcasters rng n =
  let p = [| 0.05; 0.3; 0.8 |].(Rng.int rng 3) in
  let l = ref [] in
  for v = n - 1 downto 0 do
    if Rng.bool rng p then l := v :: !l
  done;
  Array.of_list !l

(* Random duals x random broadcaster sets, 12 consecutive rounds per
   dual on one domain, so stale scratch within a dual and a capacity
   change between duals both show. *)
let prop_jamming_scan =
  QCheck.Test.make ~name:"jamming choose = n-scan" ~count:120
    QCheck.(small_nat)
    (fun case ->
      let rng = Rng.create (0xADF0 + case) in
      let n = 2 + Rng.int rng 60 in
      let rel_w = 1 + Rng.int rng 4 and gray_w = 1 + Rng.int rng 5 in
      let dual = random_dual ~n ~rel_w ~gray_w (Rng.bits rng) in
      let ng = max 1 (Dual.gray_count dual) in
      let adv_root = Rng.derive (Rng.create (Rng.bits rng)) 0x5EED in
      for round = 1 to 12 do
        let broadcasters = random_broadcasters rng n in
        let chosen = Bitset.create ng and scanned = Bitset.create ng in
        Adversary.choose Adversary.jamming ~round ~broadcasters dual
          (Rng.derive adv_root round) chosen;
        jamming_scan ~broadcasters dual scanned;
        if not (Bitset.equal chosen scanned) then
          QCheck.Test.fail_reportf "jamming: choose <> n-scan at n=%d round=%d (#bcast=%d)" n
            round (Array.length broadcasters)
      done;
      true)

(* --- visit: every policy's walk against choose and the scans ------------ *)

(* The oracles: [bernoulli] and [harassing] as the bitset [choose] they
   had before they visited, broadcasters ascending and each gray row in
   [Dual.gray_adj] order: one draw per incidence ([harassing]), or per
   incidence whose edge a lower broadcaster does not own ([bernoulli]). *)
let bernoulli_scan p ~broadcasters dual rng active =
  let bcast = Array.make (Dual.n dual) false in
  Array.iter (fun u -> bcast.(u) <- true) broadcasters;
  Array.iter
    (fun u ->
      Array.iter
        (fun (v, id) ->
          if (not (v < u && bcast.(v))) && Rng.bool rng p then Bitset.add active id)
        (Dual.gray_adj dual u))
    broadcasters

let harassing_scan p ~broadcasters dual rng active =
  Array.iter
    (fun u ->
      Array.iter
        (fun (_, id) -> if Rng.bool rng p then Bitset.add active id)
        (Dual.gray_adj dual u))
    broadcasters

(* A custom policy whose set reaches past the broadcasters' rows: every
   third gray edge id, shifted by the round. *)
let custom_thirds =
  Adversary.custom ~name:"custom thirds" (fun ~round ~broadcasters:_ dual _ active ->
      for e = 0 to Dual.gray_count dual - 1 do
        if (e + round) mod 3 = 0 then Bitset.add active e
      done)

(* Every policy with the scan it must equal, if it has one. *)
let visit_policies =
  Array.append
    (Array.map
       (fun (name, adv) ->
         let scan =
           match name with
           | "bernoulli 0.5" -> Some (bernoulli_scan 0.5)
           | "bernoulli 0.9" -> Some (bernoulli_scan 0.9)
           | "harassing 0.7" -> Some (harassing_scan 0.7)
           | "jamming" ->
             Some (fun ~broadcasters dual _ active -> jamming_scan ~broadcasters dual active)
           | _ -> None
         in
         (name, adv, scan))
       adversaries)
    [|
      ("harassing 0.5", Adversary.harassing 0.5, Some (harassing_scan 0.5));
      ("custom thirds", custom_thirds, None);
    |]

(* [k] distinct nodes of [0, n), ascending. *)
let distinct_nodes rng n k =
  let picked = Array.make n false and l = ref [] in
  while List.length !l < k do
    let v = Rng.int rng n in
    if not picked.(v) then begin
      picked.(v) <- true;
      l := v :: !l
    end
  done;
  Array.of_list (List.sort compare !l)

(* On random duals with 0, 1, 2 and many broadcasters, for every policy:
   each visited [(u, v, e)] has [u] broadcasting and [e] joining [u] and
   [v], at most once per [(u, e)]; a second visit on the re-derived
   stream repeats the first; [choose] adds exactly the visited edges and
   leaves the stream where [visit] did; and [choose] equals the policy's
   scan, stream included.  The custom policy's [choose] is its own set
   cut to the broadcasters' gray rows. *)
let prop_visit =
  QCheck.Test.make ~name:"visit = choose = scan" ~count:150 QCheck.(small_nat)
    (fun case ->
      let rng = Rng.create (0x7151 + case) in
      let n = 2 + Rng.int rng 60 in
      let dual =
        random_dual ~n ~rel_w:(1 + Rng.int rng 4) ~gray_w:(Rng.int rng 6) (Rng.bits rng)
      in
      let ng = max 1 (Dual.gray_count dual) in
      let adv_root = Rng.derive (Rng.create (Rng.bits rng)) 0x5EED in
      let fail pname round nb what =
        QCheck.Test.fail_reportf "%s: %s at n=%d round=%d (#bcast=%d)" pname what n round nb
      in
      List.iteri
        (fun round broadcasters ->
          let nb = Array.length broadcasters in
          let bcast = Array.make n false in
          Array.iter (fun u -> bcast.(u) <- true) broadcasters;
          let incident = Bitset.create ng in
          Array.iter
            (fun u ->
              Array.iter (fun (_, id) -> Bitset.add incident id) (Dual.gray_adj dual u))
            broadcasters;
          Array.iter
            (fun (pname, adv, scan) ->
              let fail = fail pname round nb in
              let visits () =
                let stream = Rng.derive adv_root round in
                let l = ref [] in
                Adversary.visit adv ~round ~broadcasters dual stream (fun u v e ->
                    l := (u, v, e) :: !l);
                (List.rev !l, Rng.bits stream)
              in
              let visited, after = visits () in
              if visits () <> (visited, after) then fail "a second visit differs";
              let seen = Hashtbl.create 16 in
              List.iter
                (fun (u, v, e) ->
                  if not bcast.(u) then fail (Printf.sprintf "visited from listener %d" u);
                  if (Dual.gray_u dual e, Dual.gray_v dual e) <> (min u v, max u v) then
                    fail (Printf.sprintf "edge %d does not join %d and %d" e u v);
                  if Hashtbl.mem seen (u, e) then
                    fail (Printf.sprintf "edge %d visited twice from %d" e u);
                  Hashtbl.add seen (u, e) ())
                visited;
              let visited_set = Bitset.create ng in
              List.iter (fun (_, _, e) -> Bitset.add visited_set e) visited;
              let choose_stream = Rng.derive adv_root round in
              let chosen = Bitset.create ng in
              Adversary.choose adv ~round ~broadcasters dual choose_stream chosen;
              if not (Bitset.equal chosen visited_set) then fail "choose <> visited set";
              if Rng.bits choose_stream <> after then fail "choose and visit end apart";
              (match scan with
              | Some scan ->
                let scan_stream = Rng.derive adv_root round in
                let scanned = Bitset.create ng in
                scan ~broadcasters dual scan_stream scanned;
                if not (Bitset.equal chosen scanned) then fail "choose <> scan";
                if Rng.bits scan_stream <> after then fail "scan and visit end apart"
              | None -> ());
              if pname = "custom thirds" then begin
                let own = Bitset.create ng in
                for e = 0 to Dual.gray_count dual - 1 do
                  if (e + round) mod 3 = 0 && Bitset.mem incident e then Bitset.add own e
                done;
                if not (Bitset.equal chosen own) then fail "custom <> its set on the rows"
              end)
            visit_policies)
        [ [||]; distinct_nodes rng n 1; distinct_nodes rng n 2; random_broadcasters rng n ];
      true)

(* --- visit ~live: skipped draws ------------------------------------------ *)

(* The receiver predicates [visit ~live] is held to, on [n] nodes with
   these broadcasters: every node, none, a random half, and the scalar
   engine's own — fewer than two broadcasting G neighbours and not
   broadcasting — both as counted once after the G touches and as
   updated by each visit it lets through.  A predicate is a [reset]
   before each walk plus [live] and the [f] bookkeeping [kept]. *)
type live_pred = {
  pname : string;
  reset : unit -> unit;
  live : int -> bool;
  kept : int -> unit;
}

let live_preds rng dual broadcasters =
  let n = Dual.n dual in
  let g = Dual.g dual in
  let bcast = Array.make n false in
  Array.iter (fun u -> bcast.(u) <- true) broadcasters;
  let after_g = Array.make n 0 in
  Array.iter
    (fun u -> Array.iter (fun v -> after_g.(v) <- after_g.(v) + 1) (Graph.neighbors g u))
    broadcasters;
  let half = Array.init n (fun _ -> Rng.bool rng 0.5) in
  let count = Array.make n 0 in
  let static pname live = { pname; reset = ignore; live; kept = ignore } in
  [
    static "all" (fun _ -> true);
    static "none" (fun _ -> false);
    static "random half" (fun v -> half.(v));
    static "count < 2 after G" (fun v -> after_g.(v) < 2 && not bcast.(v));
    {
      pname = "count < 2, updated";
      reset = (fun () -> Array.blit after_g 0 count 0 n);
      live = (fun v -> count.(v) < 2 && not bcast.(v));
      kept = (fun v -> count.(v) <- count.(v) + 1);
    };
  ]

(* [visit ?live] on the round's stream: the visits in order and the
   stream's next draw after the walk. *)
let live_visits adv ?live ?(kept = ignore) ~round ~broadcasters dual adv_root =
  let stream = Rng.derive adv_root round in
  let l = ref [] in
  Adversary.visit adv ?live ~round ~broadcasters dual stream (fun u v e ->
      kept v;
      l := (u, v, e) :: !l);
  (List.rev !l, Rng.bits stream)

(* The [live] contract, for every policy on random duals with 0, 1, 2
   and many broadcasters: every full visit whose receiver is live when
   the walk reaches it is still made, and the stream ends where the
   full walk leaves it.  [bernoulli] and [harassing] skip the rest, so
   their visits are exactly the full visits restricted to live
   receivers, in order. *)
let prop_visit_live =
  QCheck.Test.make ~name:"visit ~live = full visit cut to live receivers" ~count:150
    QCheck.(small_nat)
    (fun case ->
      let rng = Rng.create (0x11FE + case) in
      let n = 2 + Rng.int rng 60 in
      let dual =
        random_dual ~n ~rel_w:(1 + Rng.int rng 4) ~gray_w:(Rng.int rng 6) (Rng.bits rng)
      in
      let adv_root = Rng.derive (Rng.create (Rng.bits rng)) 0x5EED in
      List.iteri
        (fun round broadcasters ->
          let nb = Array.length broadcasters in
          List.iter
            (fun pred ->
              Array.iter
                (fun (aname, adv, _) ->
                  let fail what =
                    QCheck.Test.fail_reportf "%s, live = %s: %s at n=%d round=%d (#bcast=%d)"
                      aname pred.pname what n round nb
                  in
                  let full, after = live_visits adv ~round ~broadcasters dual adv_root in
                  pred.reset ();
                  let expected =
                    List.filter
                      (fun (_, v, _) ->
                        let live = pred.live v in
                        if live then pred.kept v;
                        live)
                      full
                  in
                  pred.reset ();
                  let got, got_after =
                    live_visits adv ~live:pred.live ~kept:pred.kept ~round ~broadcasters dual
                      adv_root
                  in
                  if got_after <> after then fail "the stream ends apart from the full walk";
                  let skips =
                    String.starts_with ~prefix:"bernoulli" aname
                    || String.starts_with ~prefix:"harassing" aname
                  in
                  if skips then begin
                    if got <> expected then fail "visits <> full visits cut to live receivers"
                  end
                  else if not (List.for_all (fun x -> List.mem x got) expected) then
                    fail "a visit to a live receiver was dropped")
                visit_policies)
            (live_preds rng dual broadcasters))
        [ [||]; distinct_nodes rng n 1; distinct_nodes rng n 2; random_broadcasters rng n ];
      true)

(* [Chosen] rounds on the scalar path where most listeners collide on G
   before the adversary moves: a 0.25 beacon on a circulant reliable to
   ±1..8 and gray to ±9..16, n = 1500, priced below the kernel.  Most
   gray draws go to a broadcaster or a node already touched twice, and
   are skipped; the rest still deliver and collide. *)
let test_scalar_chosen_collisions () =
  let n = 1500 in
  let dual = circulant ~n ~rel:8 ~gray:8 in
  let over_gray v src =
    let d = abs (v - src) in
    min d (n - d) > 8
  in
  List.iter
    (fun (name, adversary) ->
      let r, p =
        agree_e ~what:name
          (fun sink ->
            E.config ~adversary ~seed:29 ~stop:(At_round 30) ?sink ~detector:(perfect dual)
              dual)
          (beacon ~p:0.25 30)
      in
      Alcotest.(check string) (name ^ ": scalar rounds only") (pp_paths no_paths) (pp_paths p);
      Alcotest.(check bool)
        (Printf.sprintf "%s: collisions (%d) outnumber deliveries (%d)" name
           r.E.stats.collisions r.E.stats.deliveries)
        true
        (r.E.stats.collisions > r.E.stats.deliveries);
      let gray_receives = ref 0 in
      Array.iteri
        (fun v heard ->
          List.iter
            (fun src -> if over_gray v src then incr gray_receives)
            (Option.value ~default:[] heard))
        r.E.returns;
      Alcotest.(check bool) (name ^ ": received over gray edges") true (!gray_receives > 0))
    [ ("bernoulli 0.5", Adversary.bernoulli 0.5); ("harassing 0.5", Adversary.harassing 0.5) ]

(* [Chosen] rounds on the delivery kernel with receivers: a 0.03 beacon
   on a circulant reliable to ±1..64 and gray to ±65..88, n = 512.
   Nearly every round with broadcasters is priced above the kernel's
   sweeps (G's degree outweighs the gray walks the kernel makes twice),
   and some nodes hear exactly one sender in each, so the second sweep
   runs: it re-derives the round's stream and revisits the adversary's
   gray edges to hand out receives ([bernoulli] and [harassing] deliver
   over them; [jamming] only ever collides). *)
let test_kernel_chosen_receivers () =
  let n = 512 in
  let dual = circulant ~n ~rel:64 ~gray:24 in
  let over_gray v src =
    let d = abs (v - src) in
    min d (n - d) > 64
  in
  List.iter
    (fun (name, adversary, helps) ->
      let r, p =
        agree_e ~what:name
          (fun sink ->
            E.config ~adversary ~seed:13 ~stop:(At_round 30) ?sink ~detector:(perfect dual)
              dual)
          (beacon ~p:0.03 30)
      in
      let busy = r.E.rounds - r.E.stats.silent_rounds in
      Alcotest.(check bool)
        (Printf.sprintf "%s: most busy rounds on the kernel (%d of %d)" name p.deliver busy)
        true
        (2 * p.deliver > busy);
      Alcotest.(check bool) (name ^ ": deliveries happened") true (r.E.stats.deliveries > 0);
      Alcotest.(check int) (name ^ ": no declared round") 0 p.declared;
      let gray_receives = ref 0 in
      Array.iteri
        (fun v heard ->
          List.iter
            (fun src -> if over_gray v src then incr gray_receives)
            (Option.value ~default:[] heard))
        r.E.returns;
      Alcotest.(check bool) (name ^ ": received over gray edges") helps (!gray_receives > 0))
    [
      ("bernoulli 0.5", Adversary.bernoulli 0.5, true);
      ("harassing 0.5", Adversary.harassing 0.5, true);
      ("jamming", Adversary.jamming, false);
    ]

(* A traced run's [Gray] event counts the distinct gray edges [choose]
   adds for the round's broadcasters, read back from its [Broadcast]
   events.  On a gray band of width 6 a 0.3 beacon has many gray edges
   joining two broadcasters, which [harassing] can visit from both
   ends. *)
let test_traced_gray_counts () =
  let dual = circulant ~n:128 ~rel:2 ~gray:6 in
  let seed = 17 in
  let adv_root = Rng.derive (Rng.create seed) 0x5EED in
  List.iter
    (fun (name, adversary) ->
      let sink = Events.create () in
      let cfg =
        E.config ~adversary ~seed ~stop:(At_round 20) ~sink ~detector:(perfect dual) dual
      in
      ignore (E.run cfg (beacon ~p:0.3 20));
      let events = Events.events sink in
      let grays = ref 0 in
      List.iter
        (fun (ev : Events.event) ->
          match ev.kind with
          | Gray { active; total } ->
            incr grays;
            let broadcasters =
              List.filter_map
                (fun (b : Events.event) ->
                  match b.kind with
                  | Broadcast _ when b.round = ev.round -> Some b.proc
                  | _ -> None)
                events
              |> List.sort compare |> Array.of_list
            in
            let chosen = Bitset.create (Dual.gray_count dual) in
            Adversary.choose adversary ~round:ev.round ~broadcasters dual
              (Rng.derive adv_root ev.round) chosen;
            Alcotest.(check int)
              (Printf.sprintf "%s round %d: active" name ev.round)
              (Bitset.cardinal chosen) active;
            Alcotest.(check int) (name ^ ": total") (Dual.gray_count dual) total
          | _ -> ())
        events;
      Alcotest.(check int) (name ^ ": one Gray event per round") 20 !grays)
    [
      ("bernoulli 0.5", Adversary.bernoulli 0.5);
      ("harassing 0.5", Adversary.harassing 0.5);
      ("jamming", Adversary.jamming);
      ("custom thirds", custom_thirds);
    ]

(* What each policy must declare with [nb] broadcasters. *)
let expected_reach name nb =
  match name with
  | "silent" -> Adversary.No_gray
  | "all_gray" -> Adversary.All_incident
  | "spiteful" -> if nb >= 2 then Adversary.All_incident else Adversary.No_gray
  | _ -> Adversary.Chosen

let pp_reach = function
  | Adversary.No_gray -> "No_gray"
  | Adversary.All_incident -> "All_incident"
  | Adversary.Chosen -> "Chosen"

(* Every built-in policy (and a custom one) against its declaration, on
   random duals with 0, 1, 2 and many broadcasters: a policy declares
   what it is documented to, and on a declared round [choose] fills
   exactly the declared set — nothing under [No_gray], and under
   [All_incident] the ids of the gray edges incident to a broadcaster,
   read here from [Dual.gray_adj]. *)
let prop_declared_reach =
  let policies =
    Array.append adversaries
      [|
        ("harassing 0.5", Adversary.harassing 0.5);
        ("custom", Adversary.custom ~name:"custom" (fun ~round:_ ~broadcasters:_ _ _ _ -> ()));
      |]
  in
  QCheck.Test.make ~name:"declared reach = choose" ~count:150 QCheck.(small_nat)
    (fun case ->
      let rng = Rng.create (0xDEC1 + case) in
      let n = 2 + Rng.int rng 60 in
      let dual =
        random_dual ~n ~rel_w:(1 + Rng.int rng 4) ~gray_w:(Rng.int rng 6) (Rng.bits rng)
      in
      let ng = max 1 (Dual.gray_count dual) in
      let adv_root = Rng.derive (Rng.create (Rng.bits rng)) 0x5EED in
      let distinct = distinct_nodes rng n in
      List.iteri
        (fun round broadcasters ->
          let incident = Bitset.create ng in
          Array.iter
            (fun u ->
              Array.iter (fun (_, id) -> Bitset.add incident id) (Dual.gray_adj dual u))
            broadcasters;
          let nb = Array.length broadcasters in
          Array.iter
            (fun (pname, adv) ->
              let declared = Adversary.reach adv ~broadcasters in
              if declared <> expected_reach pname nb then
                QCheck.Test.fail_reportf "%s declares %s with %d broadcasters" pname
                  (pp_reach declared) nb;
              let chosen = Bitset.create ng in
              Adversary.choose adv ~round ~broadcasters dual (Rng.derive adv_root round)
                chosen;
              let holds =
                match declared with
                | Adversary.No_gray -> Bitset.is_empty chosen
                | Adversary.All_incident -> Bitset.equal chosen incident
                | Adversary.Chosen -> true
              in
              if not holds then
                QCheck.Test.fail_reportf "%s: choose <> declared %s at n=%d (#bcast=%d)" pname
                  (pp_reach declared) n nb)
            policies)
        [ [||]; distinct 1; distinct 2; random_broadcasters rng n ];
      true)

(* The kernel shim: no policy has a kernel. *)
let test_kernel_flags () =
  Array.iter
    (fun (name, adv) ->
      Alcotest.(check bool) (name ^ ": no kernel") false (Adversary.has_kernel adv))
    adversaries;
  let dual = random_dual ~n:40 ~rel_w:2 ~gray_w:4 7 in
  Alcotest.(check bool) "kernel_wins false" false
    (Adversary.kernel_wins Adversary.jamming ~broadcasters:(Array.init 40 Fun.id) dual);
  Alcotest.check_raises "choose_kernel raises"
    (Invalid_argument "Adversary.choose_kernel: policy has no kernel") (fun () ->
      Adversary.choose_kernel Adversary.jamming ~round:1 ~broadcasters:[||] dual
        (Rng.create 0) (Adversary.make_scratch dual) (Bitset.create 1))

(* Word-boundary pin: a circulant dual at n=600, whose victim read runs
   over ten 63-bit words, with all, four and one node broadcasting. *)
let test_circulant_pin () =
  let n = 600 in
  let dual = circulant ~n ~rel:4 ~gray:20 in
  let ng = Dual.gray_count dual in
  let rng = Rng.create 3 in
  Array.iter
    (fun broadcasters ->
      let chosen = Bitset.create ng and scanned = Bitset.create ng in
      Adversary.choose Adversary.jamming ~round:1 ~broadcasters dual rng chosen;
      jamming_scan ~broadcasters dual scanned;
      Alcotest.(check bool)
        (Printf.sprintf "jamming circulant n=600 #bcast=%d" (Array.length broadcasters))
        true (Bitset.equal chosen scanned))
    [| Array.init n Fun.id; [| 0; 1; 299; 599 |]; [| 42 |] |]

(* --- adversary fast paths inside the engine ------------------------------ *)

(* all_gray and spiteful declare their reach; jamming's rounds are all
   [Chosen], and its word-parallel [choose] runs in every one of them.
   The two properties below keep the printed names they had when jamming
   also had a mask kernel behind an [adv_kernel] option; both are gone. *)
let fast_policies =
  [|
    ("all_gray", Adversary.all_gray);
    ("spiteful", Adversary.spiteful);
    ("jamming", Adversary.jamming);
  |]

(* Gray-heavy duals on which a policy's adversary phase works from
   round 1 on: all_gray and spiteful on n = 32..48 random duals, jamming
   on n = 256..300 gray circulants (five words of victims). *)
let adv_scenario case =
  let s = scenario case in
  let rng = Rng.create (0xADBE + case) in
  let adv_name, adv = fast_policies.(Rng.int rng (Array.length fast_policies)) in
  let shape, dual =
    if adv_name = "jamming" then
      ("gray circulant", circulant ~n:(256 + Rng.int rng 45) ~rel:2 ~gray:4)
    else ("all-gray", random_dual ~n:(32 + Rng.int rng 17) ~rel_w:1 ~gray_w:8 (Rng.bits rng))
  in
  { s with dual; shape; adv_name; adv; wake = None }

(* Fails unless the scenario's policy took its adversary path: every
   jamming round [Chosen], some declared-reach rounds otherwise. *)
let check_fast_adversary s (paths : paths) =
  if s.adv_name = "jamming" then begin
    if paths.declared > 0 then
      QCheck.Test.fail_reportf "jamming declared its reach (%s): %s" (pp_paths paths)
        (pp_scenario s)
  end
  else if paths.declared = 0 then
    QCheck.Test.fail_reportf "no declared-reach rounds (%s): %s" (pp_paths paths)
      (pp_scenario s)

let prop_adv_engine =
  QCheck.Test.make ~name:"adv_kernel `On/`Off/`Auto x shards 1/2/4 = reference" ~count:100
    QCheck.(small_nat)
    (fun case ->
      let s = { (adv_scenario case) with shards = 1 } in
      let body = random_body ~steps:14 ~max_idle:4 in
      let r, paths = agree_on s body in
      check_fast_adversary s paths;
      List.iter
        (fun shards ->
          if E.run (config_of { s with shards }) body <> r then
            QCheck.Test.fail_reportf "shards %d <> shards 1: %s" shards (pp_scenario s))
        [ 2; 4 ];
      true)

(* A sink whose 64-event ring overflows many times over still forces
   scalar and changes nothing. *)
let prop_adv_traced =
  QCheck.Test.make ~name:"traced run = untraced (adv_kernel `On)" ~count:40
    QCheck.(small_nat)
    (fun case ->
      let s = adv_scenario (2000 + case) in
      let body = random_body ~steps:14 ~max_idle:4 in
      let plain, paths = counted (fun () -> E.run (config_of s) body) in
      let sink = Events.create ~capacity:64 () in
      let traced, traced_paths = counted (fun () -> E.run (config_of ~sink s) body) in
      check_fast_adversary s paths;
      if traced_paths <> no_paths then
        QCheck.Test.fail_reportf "a sink did not force scalar (%s): %s" (pp_paths traced_paths)
          (pp_scenario s);
      if Events.emitted sink <= 64 then
        QCheck.Test.fail_reportf "the ring did not overflow: %s" (pp_scenario s);
      if traced <> plain then
        QCheck.Test.fail_reportf "traced <> untraced: %s" (pp_scenario s);
      true)

(* --- ~shards: accepted, checked, inert --------------------------------- *)

let prop_shard_equiv =
  QCheck.Test.make ~name:"shards k = shards 1 = scalar = reference" ~count:120
    QCheck.(small_nat)
    (fun case ->
      let s = { (scenario case) with shards = 2 + (case mod 3) } in
      let body = random_body ~steps:14 ~max_idle:4 in
      let r, _ = agree_on s body in
      if E.run (config_of { s with shards = 1 }) body <> r then
        QCheck.Test.fail_reportf "shards k <> shards 1: %s" (pp_scenario s);
      true)

let prop_shard_kernel =
  QCheck.Test.make ~name:"shards k + kernel `On = kernel `On" ~count:60 QCheck.(small_nat)
    (fun case ->
      let s = { (dense_scenario (1000 + case)) with shards = 2 + (case mod 3) } in
      let body = random_body ~steps:14 ~max_idle:4 in
      let sharded, paths = counted (fun () -> E.run (config_of s) body) in
      if paths.deliver = 0 then
        QCheck.Test.fail_reportf "delivery kernel never ran: %s" (pp_scenario s);
      if E.run (config_of { s with shards = 1 }) body <> sharded then
        QCheck.Test.fail_reportf "shards k <> shards 1: %s" (pp_scenario s);
      true)

(* The n=512 delivery pin at a shard count that divides neither n nor
   the broadcaster count. *)
let test_shard_n512 () =
  let dual = circulant ~n:512 ~rel:32 ~gray:0 in
  let adversary = Adversary.bernoulli 0.5 in
  let one = E.run (beacon_config ~adversary dual) (beacon 30) in
  let three, p =
    counted (fun () -> E.run (beacon_config ~shards:3 ~adversary dual) (beacon 30))
  in
  Alcotest.(check bool) "identical results at n=512, shards=3" true (one = three);
  Alcotest.(check bool) "deliveries happened" true (one.E.stats.deliveries > 0);
  Alcotest.(check bool) "collisions happened" true (one.E.stats.collisions > 0);
  Alcotest.(check bool) "delivery kernel ran" true (p.deliver > 0)

let test_shard_config_validation () =
  let dual = Dual.classic (Gen.clique 4) in
  Alcotest.check_raises "shards = 0 rejected" (Invalid_argument "Engine.config: shards < 1")
    (fun () -> ignore (E.config ~shards:0 ~detector:(perfect dual) dual))

(* --- sharded resume ---------------------------------------------------- *)

(* At a shard count that does not divide the live-fiber count: uneven
   slices, both sync and idle fibers in flight.  n=2048 shards; n=512 at
   the same shard count stays below the 1024-fiber threshold. *)
let test_resume_n2048 () =
  let body ctx =
    let rng = E.rng ctx in
    let heard = ref 0 in
    for _ = 1 to 40 do
      if Rng.bool rng 0.1 then E.idle ctx (1 + Rng.int rng 3)
      else
        match E.sync_p ctx 0.03 (E.me ctx) with
        | E.Recv _ -> incr heard
        | E.Own | E.Silence -> ()
    done;
    !heard
  in
  let run ~n resume_shards =
    let dual = circulant ~n ~rel:32 ~gray:0 in
    agree_e
      ~what:(Printf.sprintf "n=%d resume_shards=%d" n resume_shards)
      (fun sink ->
        E.config ~adversary:(Adversary.bernoulli 0.5) ~seed:11 ~stop:(At_round 40)
          ~resume_shards ?sink ~detector:(perfect dual) dual)
      body
  in
  let one, p1 = run ~n:2048 1 in
  Alcotest.(check bool) "deliveries happened" true (one.E.stats.deliveries > 0);
  Alcotest.(check int) "resume shards 1: scalar" 0 p1.resume;
  List.iter
    (fun k ->
      let r, p = run ~n:2048 k in
      Alcotest.(check bool) (Printf.sprintf "resume shards %d = 1" k) true (r = one);
      Alcotest.(check bool) (Printf.sprintf "resume shards %d: sharded" k) true (p.resume > 0))
    [ 3; 4 ];
  let _, p = run ~n:512 4 in
  Alcotest.(check int) "n=512: below the threshold" 0 p.resume

(* An attached sink keeps the resume in one slice (events must come out
   in step order) on rounds that would take several; that changes
   nothing.  The case keeps its name from the old scalar resume. *)
let prop_resume_traced =
  QCheck.Test.make ~name:"traced (forced scalar) = untraced sharded" ~count:40
    QCheck.(small_nat)
    (fun case ->
      let s =
        { (scenario ~large:true (2000 + case)) with resume_shards = 2 + (2 * (case mod 2)) }
      in
      let body = aligned_body s in
      let untraced, paths = counted (fun () -> E.run (config_of s) body) in
      let sink = Events.create () in
      let traced, traced_paths = counted (fun () -> E.run (config_of ~sink s) body) in
      if paths.resume = 0 then
        QCheck.Test.fail_reportf "round 9 did not shard: %s" (pp_scenario s);
      if traced_paths <> no_paths then
        QCheck.Test.fail_reportf "a sink did not force scalar (%s): %s" (pp_paths traced_paths)
          (pp_scenario s);
      if Events.emitted sink = 0 then
        QCheck.Test.fail_reportf "sink saw no events: %s" (pp_scenario s);
      if traced <> untraced then
        QCheck.Test.fail_reportf "traced <> untraced: %s" (pp_scenario s);
      true)

let test_config_validation () =
  let dual = Dual.classic (Gen.clique 4) in
  Alcotest.check_raises "resume_shards = 0 rejected"
    (Invalid_argument "Engine.config: resume_shards < 1") (fun () ->
      ignore (E.config ~resume_shards:0 ~detector:(perfect dual) dual))

(* Fibers 0 and n-1 of an n=2048 ring both raise in round 1's resume —
   2048 synced fibers, so the round shards — in different slices at 2
   and 4 shards, and fiber n-1 raises first in time: fiber 0 waits for
   it on an Atomic handshake (spun on with a bound, so a one-core host
   cannot hang), then a little longer so fiber n-1's failure is recorded
   first.  One slice and [run_reference] step fiber 0 first and never
   reach n-1, so they get the flag pre-set.  Every path must raise fiber
   0's failure, as one slice and [run_reference] do, and a second run on
   the same config must then complete: the run shut its pool down. *)
let test_resume_raise_lowest () =
  let n = 2048 in
  let dual = Dual.classic (Gen.ring n) in
  let cfg resume_shards =
    E.config ~stop:(At_round 3) ~resume_shards ~detector:(perfect dual) dual
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
    | 0 ->
      spin_until (fun () -> Atomic.get raised);
      let t0 = Rn_util.Timing.now () in
      spin_until (fun () -> Rn_util.Timing.now () -. t0 > 0.02);
      raise (Boom 0)
    | v when v = n - 1 ->
      Atomic.set raised true;
      raise (Boom v)
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
      let raised, p =
        counted (fun () -> raised_by (fun () -> E.run c (faulty (Atomic.make false))))
      in
      Alcotest.(check (option int)) (Printf.sprintf "resume_shards %d" k) (Some 0) raised;
      Alcotest.(check bool) (Printf.sprintf "resume_shards %d: sharded" k) true (p.resume > 0);
      Alcotest.(check bool)
        (Printf.sprintf "resume_shards %d: next run completes" k)
        true
        (E.run c quiet = E.run_reference c quiet))
    [ 2; 4 ]

(* --- real schedules at n >= 1024 --------------------------------------- *)

(* The real bodies on four duals with n >= 1024 each, under every
   adversary, at resume_shards 2 or 4.  [duals] draws the dual, [stop]
   the round the run stops at. *)
let algo_scenario ~duals ~stop case =
  let rng = Rng.create (0x415 + case) in
  let shape, dual = duals rng in
  let adv_name, adv = adversaries.(Rng.int rng (Array.length adversaries)) in
  {
    (scenario ~max_rounds:1_000_000 case) with
    dual;
    shape;
    adv_name;
    adv;
    wake = None;
    stop = At_round (stop (Dual.n dual));
    resume_shards = 2 + (2 * Rng.int rng 2);
  }

let agree_algo s body =
  let _, p = agree_radio s ~stop:s.stop body in
  if p.resume = 0 then QCheck.Test.fail_reportf "never sharded: %s" (pp_scenario s);
  true

(* MIS: in the first competition phases nearly every process contends,
   so those rounds step n >= 1024 fibers and shard.  Phases are one
   ⌈log₂ n⌉ long, and the run stops after the first epoch: every
   competition phase and one announcement phase. *)
let mis_duals_geometric n =
  shared "geometric" n (fun () ->
      Gen.geometric ~rng:(Rng.create n)
        (Gen.default_spec ~n ~side:(Gen.side_for_degree ~n ~target_degree:10) ()))

let mis_duals rng =
  let n = [| 1031; 1097 |].(Rng.int rng 2) in
  match Rng.int rng 4 with
  | 0 -> shared "ring" n (fun () -> Dual.classic (Gen.ring n))
  | 1 -> large_circulant n sparse_circulant
  | 2 -> large_circulant n gray_circulant
  | _ -> mis_duals_geometric n

let prop_mis_resume =
  let params = { Core.Params.fast with c_phase = 1 } in
  let epoch n = (Core.Mis.competition_phases ~n + 1) * Core.Mis.phase_len params ~n in
  QCheck.Test.make ~name:"MIS: resume shards k = scalar" ~count:30 QCheck.(small_nat)
    (fun case ->
      agree_algo (algo_scenario ~duals:mis_duals ~stop:epoch case) (Core.Mis.body params))

(* A whole MIS schedule at the default constants — 44 epochs of 12
   phases of 66 rounds, 34,848 rounds — on the geometric n = 1031 world
   of [mis_duals] under Bernoulli 0.5 at resume shards 2: [run] against
   a traced [run] and [run_reference].  The cases above cut the schedule
   after one epoch because the oracle steps every listener in every
   round; this one pays for that once.  Budget: about 6 s on a 2-core VM
   (OCaml 5.1.1; medians of 3: [run] 1.4 s, traced [run] 2.1 s,
   [run_reference] 2.4 s). *)
let test_mis_whole_n1031 () =
  let n = 1031 in
  let _, dual = mis_duals_geometric n in
  let params = Core.Params.default in
  let stop = R.At_round (Core.Mis.schedule_rounds params ~n) in
  let cfg ?sink () =
    R.config ~adversary:(Adversary.bernoulli 0.5) ~seed:1031 ~stop ~resume_shards:2 ?sink
      ~detector:(perfect dual) dual
  in
  let body ctx = Core.Mis.body params ctx in
  let _, p =
    agree ~what:"MIS n=1031, whole schedule"
      ~run:(fun sink -> R.run (cfg ?sink ()) body)
      ~reference:(fun () -> R.run_reference (cfg ()) body)
  in
  Alcotest.(check bool) "resume ran in slices" true (p.resume > 0)

(* TDMA-CCDS: hub 0 speaks in the first slot of each frame, and all n - 1
   >= 1024 leaves wake from their parked listen, which shards that round.
   The leaves carry nothing, a reliable ring, a gray ring or random gray
   chords.  The run stops after frames A and B and the first slot of
   frame C. *)
let hub_duals rng =
  let n = [| 1031; 1097 |].(Rng.int rng 2) in
  let spokes = List.init (n - 1) (fun v -> (0, v + 1)) in
  let leaf_ring = (1, n - 1) :: List.init (n - 2) (fun v -> (v + 1, v + 2)) in
  match Rng.int rng 4 with
  | 0 -> shared "star" n (fun () -> Dual.classic (Gen.star n))
  | 1 -> shared "wheel" n (fun () -> Dual.classic (Graph.of_edges n (spokes @ leaf_ring)))
  | 2 -> shared "star + gray ring" n (fun () -> Dual.make ~g:(Gen.star n) ~gray:leaf_ring ())
  | _ ->
    shared "star + gray chords" n (fun () ->
        let rng = Rng.create n in
        let chord _ =
          let u = 1 + Rng.int rng (n - 1) and v = 1 + Rng.int rng (n - 1) in
          if u = v then None else Some (min u v, max u v)
        in
        let chords = List.filter_map chord (List.init (2 * n) Fun.id) in
        Dual.make ~g:(Gen.star n) ~gray:(List.sort_uniq compare chords) ())

let prop_tdma_resume =
  QCheck.Test.make ~name:"TDMA-CCDS: resume shards k = scalar" ~count:15 QCheck.(small_nat)
    (fun case ->
      let s = algo_scenario ~duals:hub_duals ~stop:(fun n -> (2 * n) + 1) case in
      agree_algo s (Core.Tdma_ccds.body Core.Params.default))

(* One report per suite these cases came from.  Alcotest pads group
   labels to the widest in a report and truncates case names to fit, so
   the old grouping keeps every case's printed name.  A failing report
   raises [Alcotest.Test_error], which fails the process. *)
let () =
  List.iter
    (fun (name, groups) -> Alcotest.run ~and_exit:false name groups)
    [
      ( "engine-paths",
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
          ( "listener",
            [
              Alcotest.test_case "listen_for = unrolled silent syncs" `Quick
                test_listen_for_unrolled;
              Alcotest.test_case "on_recv reads the receive round" `Quick test_listen_for_round;
              Alcotest.test_case "on_recv output decides in the receive round" `Quick
                test_listen_for_output;
              Alcotest.test_case "on_recv raises: woken in that round" `Quick
                test_listen_for_raise;
              Alcotest.test_case "listen wakes on the first message" `Quick test_listen_first;
              Alcotest.test_case "on_recv performing an effect raises" `Quick
                test_listen_for_effect;
            ] );
          ( "detector",
            [
              Alcotest.test_case "run caches a broken stabilizes_at" `Quick
                test_detector_breaks_stabilisation;
            ] );
          ( "allocation",
            [
              Alcotest.test_case "ring beacon under sync_p" `Quick test_alloc_beacon;
              Alcotest.test_case "idle/listen park loop" `Quick test_alloc_parks;
              Alcotest.test_case "all broadcast under bernoulli" `Quick
                test_alloc_all_broadcast;
              Alcotest.test_case "scalar deliveries share a Recv" `Quick test_alloc_deliveries;
            ] );
          ( "stop",
            [
              Alcotest.test_case "suspended fibers unwind" `Quick test_unwind_suspended;
            ] );
          ( "minor-heap",
            [
              Alcotest.test_case "sized for the run, restored after" `Quick
                test_heap_sized_for_run;
              Alcotest.test_case "kept where the rule does not fire" `Quick test_heap_kept;
              Alcotest.test_case "resume slices at 1/2/4 agree" `Quick test_heap_resume_slices;
              Alcotest.test_case "minor words leave the resize out" `Quick
                test_heap_minor_words;
            ] );
        ] );
      ( "engine-paths-delivery",
        [
          ( "delivery",
            [
              qtest prop_kernel_equiv;
              qtest prop_kernel_mis;
              Alcotest.test_case "circulant n=512 pin" `Quick test_kernel_n512;
              Alcotest.test_case "circulant n=512 gray-band pin" `Quick test_kernel_n512_gray;
              Alcotest.test_case "chosen rounds: kernel with receivers" `Quick
                test_kernel_chosen_receivers;
              Alcotest.test_case "chosen rounds: scalar under collisions" `Quick
                test_scalar_chosen_collisions;
            ] );
        ] );
      ( "engine-paths-adversary",
        [
          ( "choose",
            [
              qtest prop_jamming_scan;
              qtest prop_visit;
              qtest prop_visit_live;
              Alcotest.test_case "traced Gray counts = choose" `Quick test_traced_gray_counts;
              qtest prop_declared_reach;
              Alcotest.test_case "kernel availability flags" `Quick test_kernel_flags;
              Alcotest.test_case "circulant n=600 pin" `Quick test_circulant_pin;
            ] );
          ("engine", [ qtest prop_adv_engine; qtest prop_adv_traced ]);
        ] );
      ( "engine-paths-shards",
        [
          ( "sharded-delivery",
            [
              qtest prop_shard_equiv;
              qtest prop_shard_kernel;
              Alcotest.test_case "circulant n=512, shards=3 pin" `Quick test_shard_n512;
              Alcotest.test_case "config validation" `Quick test_shard_config_validation;
            ] );
        ] );
      ( "engine-paths-sharded",
        [
          ( "sharded-resume",
            [
              qtest prop_large;
              qtest prop_resume_traced;
              Alcotest.test_case "circulant n=2048 pin" `Quick test_resume_n2048;
              Alcotest.test_case "config validation" `Quick test_config_validation;
              Alcotest.test_case "raise in two slices: lowest fiber wins" `Quick
                test_resume_raise_lowest;
            ] );
          ( "real-schedules",
            [
              qtest prop_mis_resume;
              qtest prop_tdma_resume;
              Alcotest.test_case "MIS: whole schedule at n=1031" `Slow test_mis_whole_n1031;
            ] );
        ] );
    ]

(* Tests for the observability layer: the Rn_util.Metrics registry
   (domain-safety under Pool, scoped capture, merge algebra, histogram
   percentiles, sexp codec), the Rn_sim.Events ring-buffer sink and its
   three export formats, the engine's traced-equals-untraced invariant,
   and the harness's per-experiment metrics aggregation through the
   store (cold sweep = warm replay). *)

module Metrics = Rn_util.Metrics
module Timing = Rn_util.Timing
module Pool = Rn_util.Pool
module Events = Rn_sim.Events
module Store = Rn_util.Store
module Harness = Rn_harness.Harness
module Dual = Rn_graph.Dual
module Detector = Rn_detect.Detector
module R = Core.Radio

let qtest = QCheck_alcotest.to_alcotest

(* --- registry basics --- *)

let test_registry_ops () =
  let c = Metrics.counter "test.reg.c" in
  Metrics.reset_counter c;
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "counter" 42 (Metrics.value c);
  let g = Metrics.gauge "test.reg.g" in
  Alcotest.(check bool) "gauge starts unset" true (Metrics.gauge_value g = None);
  Metrics.set g 7;
  Alcotest.(check (option int)) "gauge" (Some 7) (Metrics.gauge_value g);
  let c' = Metrics.counter "test.reg.c" in
  Metrics.incr c';
  Alcotest.(check int) "registration idempotent (same cell)" 43 (Metrics.value c);
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Metrics: test.reg.c already registered as a counter") (fun () ->
      ignore (Metrics.gauge "test.reg.c"))

let test_enabled_flag () =
  Alcotest.(check bool) "disabled by default" false (Metrics.enabled ());
  Metrics.set_enabled true;
  Alcotest.(check bool) "enable" true (Metrics.enabled ());
  Metrics.set_enabled false

(* --- domain safety: concurrent recording through Pool --- *)

let test_pool_totals () =
  let c = Metrics.counter "test.pool.total" in
  Metrics.reset_counter c;
  ignore (Pool.map ~jobs:4 (fun i -> Metrics.add c i) (List.init 100 (fun i -> i + 1)));
  Alcotest.(check int) "no lost updates at jobs=4" 5050 (Metrics.value c)

(* Each scoped cell sees exactly its own records, independent of what
   runs concurrently on other domains — the property per-cell store
   payloads depend on. *)
let test_scoped_isolation () =
  let c = Metrics.counter "test.pool.scoped" in
  Metrics.reset_counter c;
  let out =
    Pool.map ~jobs:4
      (fun i ->
        let (), snap = Metrics.scoped (fun () -> Metrics.add c i) in
        List.assoc_opt "test.pool.scoped" snap.Metrics.counters)
      (List.init 32 (fun i -> i + 1))
  in
  List.iteri
    (fun i v -> Alcotest.(check (option int)) "scope saw only its cell" (Some (i + 1)) v)
    out;
  Alcotest.(check int) "global still totals" (32 * 33 / 2) (Metrics.value c)

(* --- merge algebra --- *)

let dedup_by_name l = List.sort_uniq (fun (a, _) (b, _) -> compare a b) l

(* Histogram values: small ones land in the exact buckets, large ones in
   the sub-buckets of high powers of two. *)
let value_gen = QCheck.Gen.(oneof [ small_nat; int_range 0 1_000_000_000 ])

let snap_gen =
  QCheck.Gen.(
    let name = oneofl [ "m.a"; "m.b"; "m.c"; "m.d"; "m.e" ] in
    let counters = list_size (int_range 0 5) (pair name (int_range 1 100)) in
    let gauges = list_size (int_range 0 3) (pair name (int_range 0 50)) in
    let hists = list_size (int_range 0 3) (pair name (list_size (int_range 1 8) value_gen)) in
    map3
      (fun cs gs hs ->
        {
          (Metrics.of_counters cs) with
          Metrics.gauges = dedup_by_name gs;
          hists = List.map (fun (n, vs) -> (n, Metrics.hist_of_values vs)) (dedup_by_name hs);
        })
      counters gauges hists)

let qcheck_merge_commutative =
  QCheck.Test.make ~name:"merge commutative" ~count:300
    (QCheck.make QCheck.Gen.(pair snap_gen snap_gen))
    (fun (a, b) -> Metrics.merge a b = Metrics.merge b a)

let qcheck_merge_associative =
  QCheck.Test.make ~name:"merge associative" ~count:300
    (QCheck.make QCheck.Gen.(triple snap_gen snap_gen snap_gen))
    (fun (a, b, c) ->
      Metrics.merge a (Metrics.merge b c) = Metrics.merge (Metrics.merge a b) c)

let qcheck_hist_concat =
  QCheck.Test.make ~name:"hist_of_values (a @ b) = merge_hist" ~count:300
    (QCheck.make QCheck.Gen.(pair (list value_gen) (list value_gen)))
    (fun (a, b) ->
      Metrics.hist_of_values (a @ b)
      = Metrics.merge_hist (Metrics.hist_of_values a) (Metrics.hist_of_values b))

let test_diff () =
  let before = Metrics.of_counters [ ("d.x", 3); ("d.y", 10) ] in
  let after = Metrics.of_counters [ ("d.x", 8); ("d.y", 10); ("d.z", 2) ] in
  let d = Metrics.diff after before in
  Alcotest.(check (list (pair string int)))
    "counter increments" [ ("d.x", 5); ("d.z", 2) ] d.Metrics.counters

(* --- histogram geometry and percentiles --- *)

let test_bucket_geometry () =
  List.iter
    (fun v ->
      let b = Metrics.bucket_of v in
      Alcotest.(check bool)
        (Printf.sprintf "%d within its bucket" v)
        true
        (v >= Metrics.bucket_lower b && v <= Metrics.bucket_upper b))
    [ min_int; -1; 0; 1; 2; 3; 4; 7; 8; 15; 16; 17; 255; 256; 1023; 1024; max_int ];
  Alcotest.(check int) "480 buckets" 480 Metrics.n_buckets;
  Alcotest.(check int) "max_int in the last bucket" (Metrics.n_buckets - 1)
    (Metrics.bucket_of max_int);
  Alcotest.(check int) "the last bucket ends at max_int" max_int
    (Metrics.bucket_upper (Metrics.n_buckets - 1));
  for v = 0 to 15 do
    Alcotest.(check (pair int int))
      (Printf.sprintf "%d has a bucket of its own" v)
      (v, v)
      (Metrics.bucket_upper (Metrics.bucket_of v), Metrics.bucket_of v)
  done;
  for i = 1 to Metrics.n_buckets - 1 do
    let lo = Metrics.bucket_lower i and hi = Metrics.bucket_upper i in
    if i < Metrics.n_buckets - 1 then
      Alcotest.(check int) (Printf.sprintf "bucket %d is followed without a gap" i) (hi + 1)
        (Metrics.bucket_lower (i + 1));
    Alcotest.(check bool)
      (Printf.sprintf "bucket %d at most 1/8 as wide as its lower bound" i)
      true
      (hi - lo + 1 <= max 1 (lo / 8));
    Alcotest.(check (pair int int))
      (Printf.sprintf "bucket %d holds its bounds" i)
      (i, i)
      (Metrics.bucket_of lo, Metrics.bucket_of hi)
  done;
  (* the power-of-two bounds of the old geometry are still bucket upper
     bounds, so payloads cached under it merge bucket for bucket *)
  for e = 1 to 62 do
    let ub = if e = 62 then max_int else (1 lsl e) - 1 in
    Alcotest.(check int) (Printf.sprintf "2^%d - 1 is an upper bound" e) ub
      (Metrics.bucket_upper (Metrics.bucket_of ub))
  done

let test_percentiles () =
  let h = Metrics.hist_of_values (List.init 1000 (fun i -> i + 1)) in
  Alcotest.(check int) "count" 1000 h.Metrics.count;
  Alcotest.(check int) "sum" 500500 h.Metrics.sum;
  Alcotest.(check int) "min" 1 h.Metrics.vmin;
  Alcotest.(check int) "max" 1000 h.Metrics.vmax;
  (* 500 lies in [480, 511], 950 in [896, 959] *)
  Alcotest.(check int) "p50: upper bound of 500's sub-bucket" 511 (Metrics.percentile h 0.5);
  Alcotest.(check int) "p95: upper bound of 950's sub-bucket" 959 (Metrics.percentile h 0.95);
  Alcotest.(check int) "p100 exact" 1000 (Metrics.percentile h 1.0);
  Alcotest.(check (float 1e-9)) "mean exact" 500.5 (Metrics.hist_mean h)

(* Against the exact quantile of the raw values: the rank-ceil(q n)
   value of the sorted sample.  The percentile is never below it and at
   most an eighth above it. *)
let qcheck_percentile_error =
  QCheck.Test.make ~name:"percentile within 12.5% of the exact quantile" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(pair (list int) float)
       QCheck.Gen.(pair (list_size (int_range 1 200) value_gen) (float_range 0.0 1.0)))
    (fun (vs, q) ->
      let sorted = Array.of_list (List.sort compare vs) in
      let n = Array.length sorted in
      let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
      let exact = sorted.(rank - 1) in
      let p = Metrics.percentile (Metrics.hist_of_values vs) q in
      if p < exact || p - exact > exact / 8 then
        QCheck.Test.fail_reportf "q=%g: percentile %d, exact %d" q p exact;
      true)

(* --- exposition: JSON --- *)

let test_exposition_exact () =
  let h = Metrics.hist_of_values [ 1; 1; 3 ] in
  Alcotest.(check (list (pair int int))) "bucket geometry" [ (1, 2); (3, 1) ] h.Metrics.buckets;
  let s =
    { Metrics.counters = [ ("eng.runs", 3) ]; gauges = [ ("g.x", 4) ]; hists = [ ("lat.us", h) ] }
  in
  Alcotest.(check string)
    "json"
    {|{"counters":{"eng.runs":3},"gauges":{"g.x":4},"hists":{"lat.us":{"count":3,"sum":5,"min":1,"max":3,"buckets":[[1,2],[3,1]]}}}|}
    (Metrics.to_json s);
  Alcotest.(check string)
    "empty json" {|{"counters":{},"gauges":{},"hists":{}}|}
    (Metrics.to_json Metrics.empty);
  (* names with quotes/backslashes stay valid JSON *)
  let odd = { Metrics.empty with Metrics.counters = [ ({|a"b\c|}, 1) ] } in
  Alcotest.(check string)
    "json escaping" {|{"counters":{"a\"b\\c":1},"gauges":{},"hists":{}}|}
    (Metrics.to_json odd)

(* Per-cell snapshots reach an experiment's merged snapshot in
   completion order, which varies with --jobs; the JSON export must
   therefore be independent of merge order. *)
let qcheck_exposition_merge_order =
  QCheck.Test.make ~name:"exposition independent of merge order" ~count:200
    (QCheck.make QCheck.Gen.(pair snap_gen snap_gen))
    (fun (a, b) ->
      Metrics.to_json (Metrics.merge a b) = Metrics.to_json (Metrics.merge b a))

(* --- events: ring buffer semantics --- *)

let ev r p k = { Events.round = r; proc = p; kind = k }

let test_ring_eviction () =
  let s = Events.create ~capacity:4 () in
  for i = 1 to 6 do
    Events.emit s (ev i i Events.Wake)
  done;
  Alcotest.(check int) "emitted" 6 (Events.emitted s);
  Alcotest.(check int) "evicted" 2 (Events.evicted s);
  Alcotest.(check int) "length" 4 (Events.length s);
  Alcotest.(check (list int))
    "newest kept, oldest first" [ 3; 4; 5; 6 ]
    (List.map (fun e -> e.Events.round) (Events.events s))

let test_sink_filters () =
  let s = Events.create ~rounds:(2, 3) ~procs:[ 1 ] () in
  Events.emit s (ev 1 1 Events.Wake) (* round out of range *);
  Events.emit s (ev 2 2 Events.Wake) (* proc filtered *);
  Events.emit s (ev 2 1 Events.Wake) (* kept *);
  Events.emit s (ev 3 (-1) (Events.Skip { rounds = 1 })) (* round-scoped: kept *);
  Alcotest.(check int) "kept" 2 (Events.length s);
  Alcotest.(check int) "filtered" 2 (Events.filtered s);
  let s2 = Events.create ~sample:3 () in
  List.iter (fun r -> Events.emit s2 (ev r 0 Events.Wake)) [ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check (list int))
    "sampled rounds" [ 3; 6 ]
    (List.map (fun e -> e.Events.round) (Events.events s2))

(* --- events: export round-trips --- *)

let kind_gen =
  QCheck.Gen.(
    oneof
      [
        return Events.Wake;
        map (fun b -> Events.Broadcast { bits = b }) (int_range 0 500);
        map (fun s -> Events.Deliver { src = s }) (int_range 0 63);
        map (fun s -> Events.Collide { senders = s }) (int_range 2 20);
        map2 (fun a t -> Events.Gray { active = a; total = t }) (int_range 0 50) (int_range 0 50);
        map (fun v -> Events.Decide { value = v }) (int_range 0 1);
        map (fun r -> Events.Skip { rounds = r }) (int_range 1 1000);
      ])

let events_gen =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (map3
         (fun r p k -> { Events.round = r; proc = p; kind = k })
         (int_range 1 5000) (int_range (-1) 63) kind_gen))

let qcheck_export_roundtrips =
  QCheck.Test.make ~name:"JSONL/Chrome/sexp exports round-trip (+ auto-detect)" ~count:200
    (QCheck.make events_gen) (fun evs ->
      Events.of_jsonl (Events.to_jsonl evs) = evs
      && Events.of_chrome (Events.to_chrome evs) = evs
      && Events.of_sexp (Events.to_sexp evs) = evs
      && Events.of_string (Events.to_jsonl evs) = evs
      && Events.of_string (Events.to_chrome evs) = evs
      && Events.of_string (Events.to_sexp evs) = evs)

(* --- engine: traced runs are byte-identical to untraced --- *)

let qcheck_traced_untraced =
  QCheck.Test.make ~name:"traced run = untraced run (MIS)" ~count:15 QCheck.(small_nat)
    (fun seed ->
      let n = 24 + 8 * (seed mod 3) in
      let dual = Harness.geometric ~seed ~n ~degree:8 () in
      let detector = Detector.static (Detector.perfect (Dual.g dual)) in
      let adversary = Rn_sim.Adversary.bernoulli 0.5 in
      let plain = Core.Mis.run ~seed ~adversary ~detector dual in
      let sink = Events.create () in
      let traced = Core.Mis.run ~seed ~adversary ~sink ~detector dual in
      if Events.length sink = 0 then QCheck.Test.fail_report "sink stayed empty";
      if plain <> traced then
        QCheck.Test.fail_reportf "results differ under tracing (seed %d, n %d)" seed n;
      true)

(* Engine metrics recorded only when the registry is enabled, and they
   match the run's own stats. *)
let test_engine_metrics_recorded () =
  let dual = Harness.geometric ~seed:3 ~n:32 ~degree:8 () in
  let detector = Detector.static (Detector.perfect (Dual.g dual)) in
  Metrics.reset ();
  let _ = Core.Mis.run ~seed:3 ~detector dual in
  Alcotest.(check bool)
    "disabled registry records nothing" true
    (Metrics.is_empty (Metrics.snapshot ()));
  Metrics.set_enabled true;
  let r = Core.Mis.run ~seed:3 ~detector dual in
  Metrics.set_enabled false;
  let s = Metrics.snapshot () in
  let c name = List.assoc_opt name s.Metrics.counters in
  Alcotest.(check (option int)) "runs" (Some 1) (c "engine.runs");
  Alcotest.(check (option int)) "rounds" (Some r.R.rounds) (c "engine.rounds");
  Alcotest.(check (option int)) "sends" (Some r.R.stats.Rn_sim.Engine.sends) (c "engine.sends");
  Alcotest.(check (option int))
    "collisions"
    (Some r.R.stats.Rn_sim.Engine.collisions)
    (c "engine.collisions");
  (* a run of n = 32 fibers allocates; it need not promote anything *)
  Alcotest.(check bool)
    "minor words recorded" true
    (match c "engine.minor_words" with Some w -> w > 0 | None -> false);
  Metrics.reset ()

(* --- harness: per-experiment metrics, cold sweep = warm replay --- *)

let tmpdir () =
  let d = Filename.temp_file "rn_metrics_test" "" in
  Sys.remove d;
  d

let test_experiment_metrics_cold_warm () =
  let dir = tmpdir () in
  let s = Store.open_ ~fsync:false dir in
  Harness.set_store s;
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ();
      Harness.clear_store ();
      Harness.reset_store_counters ();
      Harness.reset_experiment_metrics ();
      Store.close s)
    (fun () ->
      let cell seed =
        let dual = Harness.geometric ~seed ~n:24 ~degree:8 () in
        let detector = Detector.static (Detector.perfect (Dual.g dual)) in
        (Core.Mis.run ~seed ~detector dual).R.rounds
      in
      let sweep () =
        Harness.reset_experiment_metrics ();
        Harness.begin_experiment ~id:"TSTMET" ~scale:Harness.Quick ~version:1;
        let out = Harness.run_cells ~jobs:2 cell [ 1; 2; 3 ] in
        (out, Harness.experiment_metrics ())
      in
      let cold_out, cold = sweep () in
      let warm_out, warm = sweep () in
      let hits, _, _ = Harness.store_counters () in
      Alcotest.(check bool) "warm pass replayed" true (hits >= 3);
      Alcotest.(check (list int)) "results equal" cold_out warm_out;
      Alcotest.(check bool) "metrics survive the cache" true (cold = warm);
      match cold with
      | [ (id, snap) ] ->
        Alcotest.(check string) "experiment id" "TSTMET" id;
        Alcotest.(check (option int))
          "three engine runs aggregated" (Some 3)
          (List.assoc_opt "engine.runs" snap.Metrics.counters)
      | _ -> Alcotest.fail "expected exactly one experiment aggregate")

(* --- the phase profile: Metrics counters, per cell --- *)

let phase_labels = [ "wake"; "collect"; "adversary"; "deliver"; "resume" ]

(* The counters that count (entries and rounds): deterministic, unlike
   the [_ns] wall-clock beside them. *)
let phase_counts (snap : Metrics.snapshot) =
  List.map
    (fun name -> (name, Option.value ~default:0 (List.assoc_opt name snap.Metrics.counters)))
    (List.map (fun l -> "engine." ^ l ^ "_entries") phase_labels
    @ [ "engine.rounds_executed"; "engine.rounds_fast_forwarded" ])

(* Every phase that ran took time. *)
let check_phase_ns what (snap : Metrics.snapshot) =
  List.iter
    (fun l ->
      let c suffix =
        Option.value ~default:0 (List.assoc_opt ("engine." ^ l ^ suffix) snap.Metrics.counters)
      in
      if c "_entries" > 0 then
        Alcotest.(check bool) (Printf.sprintf "%s: %s ns > 0" what l) true (c "_ns" > 0))
    phase_labels

(* Three MIS cells under a Bernoulli adversary (so the adversary phase
   runs too): each cell's store payload carries its own phase split, the
   counts of the jobs:2 aggregate equal those of the same cells at
   jobs:1, and a warm replay reports the cold snapshot. *)
let test_per_cell_phase_split () =
  let dir = tmpdir () in
  let s = Store.open_ ~fsync:false dir in
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ();
      Harness.clear_store ();
      Harness.reset_store_counters ();
      Harness.reset_experiment_metrics ();
      Store.close s)
    (fun () ->
      let cell seed =
        let dual = Harness.geometric ~seed ~n:24 ~degree:8 () in
        let detector = Detector.static (Detector.perfect (Dual.g dual)) in
        let adversary = Rn_sim.Adversary.bernoulli 0.5 in
        (Core.Mis.run ~seed ~adversary ~detector dual).R.rounds
      in
      let sweep ~jobs =
        Harness.reset_experiment_metrics ();
        Harness.begin_experiment ~id:"TSTPHASE" ~scale:Harness.Quick ~version:1;
        ignore (Harness.run_cells ~jobs cell [ 1; 2; 3 ]);
        match Harness.experiment_metrics () with
        | [ (_, snap) ] -> snap
        | _ -> Alcotest.fail "expected exactly one experiment aggregate"
      in
      let sequential = sweep ~jobs:1 in
      Harness.set_store s;
      let cold = sweep ~jobs:2 in
      let warm = sweep ~jobs:2 in
      Alcotest.(check (list (pair string int)))
        "jobs:2 counts = jobs:1 counts" (phase_counts sequential) (phase_counts cold);
      Alcotest.(check bool)
        "every phase ran" true
        (List.for_all (fun (_, n) -> n > 0) (phase_counts cold));
      check_phase_ns "jobs:1" sequential;
      check_phase_ns "jobs:2" cold;
      Alcotest.(check bool) "cold = warm" true (cold = warm))

(* [Timing] is a view over the counters a run adds to [Metrics]. *)
let test_timing_view () =
  let dual = Harness.geometric ~seed:5 ~n:32 ~degree:8 () in
  let detector = Detector.static (Detector.perfect (Dual.g dual)) in
  let adversary = Rn_sim.Adversary.bernoulli 0.5 in
  Metrics.reset ();
  Metrics.set_enabled true;
  let r, snap = Metrics.scoped (fun () -> Core.Mis.run ~seed:5 ~adversary ~detector dual) in
  Metrics.set_enabled false;
  let t = Timing.snapshot () in
  let c name = Option.value ~default:0 (List.assoc_opt name snap.Metrics.counters) in
  Alcotest.(check (list (triple string int (float 0.0))))
    "sections"
    (List.map
       (fun l ->
         (l, c ("engine." ^ l ^ "_entries"), float_of_int (c ("engine." ^ l ^ "_ns")) /. 1e9))
       phase_labels)
    t.Timing.sections;
  Alcotest.(check int) "rounds executed" (c "engine.rounds_executed") t.Timing.rounds;
  Alcotest.(check int) "fast-forwarded" (c "engine.rounds_fast_forwarded") t.Timing.silent;
  Alcotest.(check int) "resumes" (c "engine.resumes") t.Timing.resumes;
  Alcotest.(check int) "every round executed or skipped" r.R.rounds
    (t.Timing.rounds + t.Timing.silent);
  Timing.reset ();
  Alcotest.(check int) "reset zeroes the view" 0 (Timing.snapshot ()).Timing.rounds;
  Metrics.reset ()

let () =
  Alcotest.run "metrics"
    [
      ( "registry",
        [
          Alcotest.test_case "ops" `Quick test_registry_ops;
          Alcotest.test_case "enabled flag" `Quick test_enabled_flag;
          Alcotest.test_case "pool totals" `Quick test_pool_totals;
          Alcotest.test_case "scoped isolation" `Quick test_scoped_isolation;
        ] );
      ( "algebra",
        [
          qtest qcheck_merge_commutative;
          qtest qcheck_merge_associative;
          qtest qcheck_hist_concat;
          Alcotest.test_case "diff" `Quick test_diff;
          Alcotest.test_case "bucket geometry" `Quick test_bucket_geometry;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          qtest qcheck_percentile_error;
          Alcotest.test_case "exposition exact" `Quick test_exposition_exact;
          qtest qcheck_exposition_merge_order;
        ] );
      ( "events",
        [
          Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
          Alcotest.test_case "sink filters" `Quick test_sink_filters;
          qtest qcheck_export_roundtrips;
        ] );
      ( "engine",
        [
          qtest qcheck_traced_untraced;
          Alcotest.test_case "metrics recorded" `Quick test_engine_metrics_recorded;
        ] );
      ( "harness",
        [
          Alcotest.test_case "cold = warm experiment metrics" `Quick
            test_experiment_metrics_cold_warm;
          Alcotest.test_case "per-cell phase split" `Quick test_per_cell_phase_split;
          Alcotest.test_case "timing folds into metrics" `Quick test_timing_view;
        ] );
    ]

(* rnbench: the measuring program behind perfbench/run.py.

   One process runs one workload on one seed.  It prints a report for
   people and then, as its last line, one JSON object: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1.  It
   drives the simulator only through the libraries' public interfaces;
   nothing in lib/ is instrumented for it.  README.md says why each
   workload and metric is there. *)

module Bitset = Rn_util.Bitset
module Pool = Rn_util.Pool
module Rng = Rn_util.Rng
module Store = Rn_util.Store
module Timing = Rn_util.Timing
module Metrics = Rn_util.Metrics
module Graph = Rn_graph.Graph
module Dual = Rn_graph.Dual
module Gen = Rn_graph.Gen
module Detector = Rn_detect.Detector
module Engine = Rn_sim.Engine
module Adversary = Rn_sim.Adversary
module Harness = Rn_harness.Harness

(* --- measuring --- *)

let now = Timing.now

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let us f = snd (time f) *. 1e6

(* Linearly interpolated quantile of a sample. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* A steady-state figure from many samples spread over a run: their
   lower decile.  The host shares its cores and memory with other
   machines whose load slows a stretch of samples by up to 2x for
   seconds at a time; a low quantile measures the program rather than
   that load. *)
let steady = quantile 0.1

(* Cores this process may run on, from the command line. *)
let nproc = ref 1

(* Peak resident set size (VmHWM) of this process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    let l = input_line ic in
    if String.starts_with ~prefix:"VmHWM:" l then
      Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    else find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* --- the report --- *)

let attempted = ref 0
let failed = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.printf "CHECK FAILED: %s\n%!" what
  end

let note fmt = Printf.printf ("  " ^^ fmt ^^ "\n%!")
let show name value unit = note "%-28s %.6g %s" name value unit

(* The last line of stdout: the metrics the benchmark records, each
   with every digit it was measured with. *)
let print_json metrics =
  List.iter
    (fun (name, v, _) -> if not (Float.is_finite v) then check (name ^ " is finite") false)
    metrics;
  show "ops_failed_frac" (float_of_int !failed /. float_of_int (max 1 !attempted)) "frac";
  note "(%d of %d operations failed: cells computed or replayed, runs, output checks)" !failed
    !attempted;
  let field (name, v, unit) =
    let v = if Float.is_finite v then v else 0.0 in
    Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} name v unit
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (!failed = 0) !attempted !failed
    (String.concat ", " (List.map field metrics));
  print_newline ()

let print_end_to_end ~setup_s ~cold_s ~warm_s ~rss =
  show "peak_rss_mb" rss "MB";
  print_json
    [
      ("setup_s", setup_s, "s");
      ("cold_s", cold_s, "s");
      ("warm_s", warm_s, "s");
      ("peak_rss_mb", rss, "MB");
    ]

(* --- the layers every workload has --- *)

let start_tracing () =
  Timing.reset ();
  Metrics.reset ();
  Timing.set_enabled true;
  Metrics.set_enabled true

let stop_tracing () =
  Timing.set_enabled false;
  Metrics.set_enabled false

(* Dispatch cost of one empty batch on [nproc] Pool domains, median. *)
let pool_run_n_us () =
  let p = Pool.create ~jobs:!nproc in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      let batch () = Pool.run_n p ignore !nproc in
      for _ = 1 to 200 do
        batch ()
      done;
      median (List.init 2000 (fun _ -> us batch)))

(* The engine layer per operation of the workload, as the traced part
   of the run left the library's own section profiler and metrics
   registry; then the Pool's dispatch cost and what tracing cost. *)
let print_per_layer ~ops ~untraced_s ~traced_s =
  let t = Timing.snapshot () and m = Metrics.snapshot () in
  let per x = x /. float_of_int ops in
  let count name =
    per (float_of_int (Option.value ~default:0 (List.assoc_opt name m.Metrics.counters)))
  in
  let deliveries = count "engine.deliveries" and collisions = count "engine.collisions" in
  let phases =
    List.map (fun (label, _, secs) -> ("engine." ^ label ^ "_s", per secs, "s")) t.Timing.sections
  in
  let metrics =
    phases
    @ [
        ("engine.rounds_executed", per (float_of_int t.Timing.rounds), "count");
        ("engine.rounds_skipped", per (float_of_int t.Timing.silent), "count");
        ("engine.sends", count "engine.sends", "count");
        ("engine.deliveries", deliveries, "count");
        ("engine.collisions", collisions, "count");
        ( "engine.delivery_ratio",
          (if deliveries +. collisions > 0.0 then deliveries /. (deliveries +. collisions)
           else 0.0),
          "ratio" );
        ("pool.run_n_us", pool_run_n_us (), "us");
        ("trace.overhead_frac", (traced_s /. untraced_s) -. 1.0, "frac");
      ]
  in
  List.iter (fun (name, v, unit) -> show name v unit) metrics;
  note "(per operation: untraced %.3f s, traced %.3f s)" untraced_s traced_s;
  print_json metrics

(* --- sweep-quick --- *)

(* The quick registry without the four experiments that take most of its
   time, so a run measures the cells everyday sweeps wait on. *)
let sweep_ids =
  List.filter (fun id -> not (List.mem id [ "E2"; "E3"; "A1"; "A6" ])) Rn_harness.All.ids

type pass = {
  tables : (string * string) list;  (** experiment id, rendered table *)
  hits : int;
  misses : int;
}

(* One pass of the sweep through [store], in [ids] order.  Failed cells
   count as failed operations. *)
let sweep_pass ?(on_exp = fun _ _ -> ()) ids store =
  Harness.set_store store;
  Harness.reset_store_counters ();
  let tables =
    List.filter_map
      (fun id ->
        let f = Option.get (Rn_harness.All.find id) in
        match time (fun () -> f Harness.Quick) with
        | r, dt ->
          on_exp id dt;
          Some (id, Harness.render r)
        | exception Harness.Cell_failed { exp; failed = k; total } ->
          note "%s: %d of %d cells failed" exp k total;
          None)
      ids
  in
  Harness.clear_store ();
  let hits, misses, failures = Harness.store_counters () in
  attempted := !attempted + hits + misses + failures;
  failed := !failed + failures;
  { tables; hits; misses }

let check_pass ~what ~cold ids p =
  List.iter
    (fun id ->
      match List.assoc_opt id p.tables with
      | None -> check (Printf.sprintf "%s pass rendered %s" what id) false
      | Some s ->
        let d = Digest.to_hex (Digest.string s) in
        let ok = List.assoc_opt id Pins.sweep_digests = Some d in
        if not ok then note "%s table digest: %s" id d;
        check (Printf.sprintf "%s pass: %s table matches its pinned digest" what id) ok)
    ids;
  let computed, replayed = if cold then (Pins.sweep_cells, 0) else (0, Pins.sweep_cells) in
  check
    (Printf.sprintf "%s pass computed %d and replayed %d cells (expected %d and %d)" what
       p.misses p.hits computed replayed)
    (p.misses = computed && p.hits = replayed)

let cell_ms () = List.map (fun (_, s) -> s *. 1e3) (Harness.slowest_cells ~k:max_int ())

let sweep ~seconds ~trace ~workdir =
  Harness.set_jobs !nproc;
  (* The sweep has one input whatever the seed: its tables are
     deterministic, and the experiments run in registry order.  The
     peak memory of a pass depends on which experiments' garbage meets,
     so another order per seed would move it by up to 2x. *)
  let ids = sweep_ids in
  note "experiments, in run order: %s" (String.concat " " ids);
  let store_dir name = Filename.concat workdir name in
  let cold_pass ?on_exp name =
    Harness.reset_cell_times ();
    let s = Store.open_ (store_dir name) in
    let p, dt = time (fun () -> sweep_pass ?on_exp ids s) in
    Store.close s;
    check_pass ~what:("cold " ^ name) ~cold:true ids p;
    (p, dt)
  in
  (* A warm run starts by replaying the journal into the store's index:
     that is the sweep's set-up. *)
  let open_warm name = time (fun () -> Store.open_ (store_dir name)) in
  let warm_pass ~cold store =
    let p, dt = time (fun () -> sweep_pass ids store) in
    check_pass ~what:"warm" ~cold:false ids p;
    check "warm tables equal cold tables byte for byte" (p.tables = cold.tables);
    (p, dt)
  in
  if trace = 0 then begin
    (* Two cold passes, each through a fresh store and each followed by
       warm runs from that store until its half of the measuring time is
       up; every warm run opens the store afresh.  The cold time sums each
       experiment's faster run. *)
    let t_start = now () and opens = ref [] and warm = ref [] in
    let fastest = Hashtbl.create 16 and first_rss = ref nan in
    let on_exp id dt =
      let best = Option.value ~default:infinity (Hashtbl.find_opt fastest id) in
      Hashtbl.replace fastest id (Float.min best dt)
    in
    let half (name, until) =
      let cold, _ = cold_pass ~on_exp name in
      (* The peak of a process that has run one cold sweep, as
         [rn_cli experiment] does.  Later passes grow the heap by a
         varying amount that says more about GC timing across the
         domains than about the sweep. *)
      if Float.is_nan !first_rss then first_rss := peak_rss_mb ();
      let cells = cell_ms () and runs = ref 0 in
      while !runs < 60 || now () -. t_start < until do
        (* Each warm run starts on a collected heap, as a warm
           [rn_cli experiment] in a fresh process does, rather than
           paying for the cold pass's garbage: the runs right after a
           cold pass were up to 40% slower than later ones. *)
        Gc.full_major ();
        let store, open_s = open_warm name in
        opens := open_s :: !opens;
        warm := snd (warm_pass ~cold store) :: !warm;
        Store.close store;
        incr runs
      done;
      cells
    in
    let cells =
      List.concat_map half
        [ ("cold", float_of_int seconds /. 2.0); ("cold2", float_of_int seconds) ]
    in
    let cold_s = Hashtbl.fold (fun _ dt acc -> acc +. dt) fastest 0.0 in
    let setup_s = median !opens and warm_s = steady !warm in
    show "setup_s" setup_s "s";
    show "sweep_cold_s" cold_s "s";
    show "sweep_warm_s" warm_s "s";
    show "cell_p90_ms" (quantile 0.9 cells) "ms";
    note "(%d cells computed over two cold passes; %d warm runs, median %.4f s)"
      (List.length cells) (List.length !warm) (median !warm);
    show "run_peak_rss_mb" (peak_rss_mb ()) "MB";
    print_end_to_end ~setup_s ~cold_s ~warm_s ~rss:!first_rss
  end
  else begin
    let _, untraced_s = cold_pass "untraced" in
    let exp_s = ref [] in
    start_tracing ();
    let cold, traced_s =
      cold_pass ~on_exp:(fun id dt -> exp_s := (id, dt) :: !exp_s) "traced"
    in
    stop_tracing ();
    let cells = cell_ms () in
    List.iter (fun (id, dt) -> show ("harness.exp_s." ^ id) dt "s") (List.rev !exp_s);
    show "harness.cells" (float_of_int (List.length cells)) "count";
    show "harness.cell_p50_ms" (median cells) "ms";
    show "harness.cell_p90_ms" (quantile 0.9 cells) "ms";
    (* The store layer, replayed on the traced pass's own journal. *)
    let journal_bytes =
      let ic = open_in_bin (Store.journal_path (store_dir "traced")) in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> in_channel_length ic)
    in
    let opens = List.init 50 (fun _ ->
        let s, dt = open_warm "traced" in
        Store.close s;
        dt) in
    let store, _ = open_warm "traced" in
    let open_s = median opens in
    let records = Store.records store in
    let found_all = ref true in
    let find_us =
      median
        (List.map
           (fun (r : Store.record_) ->
             let expect = if r.Store.status = Store.Done then Some r.Store.payload else None in
             let found, dt = time (fun () -> Store.find store r.Store.key) in
             if found <> expect then found_all := false;
             dt *. 1e6)
           records)
    in
    check "the store finds every journalled cell with its payload" !found_all;
    let warm, _ = warm_pass ~cold store in
    Store.close store;
    let replay = Store.open_ (store_dir "replay") in
    let put_us =
      median
        (List.map
           (fun (r : Store.record_) ->
             us (fun () -> Store.put replay r.Store.key r.Store.status r.Store.payload))
           records)
    in
    Store.close replay;
    show "store.open_s" open_s "s";
    show "store.find_us" find_us "us";
    show "store.put_us" put_us "us";
    show "store.journal_bytes" (float_of_int journal_bytes) "bytes";
    show "store.hit_ratio"
      (float_of_int warm.hits /. float_of_int (max 1 (warm.hits + warm.misses)))
      "ratio";
    print_per_layer ~ops:1 ~untraced_s ~traced_s
  end

(* --- beacon workloads --- *)

module Beacon_msg = struct
  type t = int

  let size_bits ~n:_ _ = 16
  let pp = Format.pp_print_int
end

module E = Engine.Make (Beacon_msg)

type beacon = {
  rounds : int;  (** rounds per run *)
  p : float;  (** per-round broadcast probability of every process *)
  adversary : Adversary.t;
  world : variant:int -> Dual.t;
  reduced : seed:int -> Dual.t;  (** small twin for the run_reference check *)
  pins : (int * int * int) array;  (** sends, deliveries, collisions of a run, by variant *)
  worlds : int;  (** fresh worlds an end-to-end run builds, each with its first run *)
  rows : bool;  (** also replay the bitset-row scatter (its cache takes n^2/8 bytes) *)
  speedup : bool;  (** also time a run on [nproc] domains against one *)
}

(* A seed picks one of this many inputs, whose counts are pinned. *)
let variants = 8

(* The circulant dual of bench/main.ml: reliable ring i+-1..rel_k, gray
   annulus i+-(rel_k+1)..(rel_k+gray_k). *)
let circulant_dual ~n ~rel_k ~gray_k =
  let band lo hi =
    let a = Array.make (n * (hi - lo + 1)) 0 in
    let idx = ref 0 in
    for u = 0 to n - 1 do
      for j = lo to hi do
        let v = (u + j) mod n in
        a.(!idx) <- (min u v * n) + max u v;
        incr idx
      done
    done;
    a
  in
  let g = Graph.of_packed_unsorted n (band 1 rel_k) in
  let gray_pk = band (rel_k + 1) (rel_k + gray_k) in
  Array.sort compare gray_pk;
  Dual.make_packed ~g ~gray_pk ()

let geometric ~seed ~n =
  Gen.geometric ~rng:(Rng.create seed)
    (Gen.default_spec ~n ~side:(Gen.side_for_degree ~n ~target_degree:16) ())

let sparse =
  {
    rounds = 32;
    p = 0.25;
    adversary = Adversary.bernoulli 0.5;
    world = (fun ~variant -> geometric ~seed:Pins.sparse_world_seeds.(variant) ~n:65536);
    reduced = (fun ~seed -> geometric ~seed ~n:1024);
    pins = Pins.sparse_counts;
    worlds = 4;
    rows = false;
    speedup = true;
  }

let dense =
  {
    rounds = 32;
    p = 0.5;
    adversary = Adversary.spiteful;
    world = (fun ~variant:_ -> circulant_dual ~n:4096 ~rel_k:768 ~gray_k:64);
    reduced = (fun ~seed:_ -> circulant_dual ~n:256 ~rel_k:48 ~gray_k:4);
    pins = Pins.dense_counts;
    worlds = 8;
    rows = true;
    speedup = false;
  }

let body b ctx =
  let me = E.me ctx in
  for _ = 1 to b.rounds do
    ignore (E.sync_p ctx b.p me)
  done

let config ?(shards = 1) ?observer b ~seed dual det =
  E.config ~seed ~stop:(Engine.At_round b.rounds) ~adversary:b.adversary ?observer ~shards
    ~resume_shards:shards ~detector:det dual

type run = {
  res : unit E.result;
  wall : float;
  round_ms : float list;
  sets : int array array;  (** broadcasters by round, when recorded *)
}

(* One run, timed per round through the public observer. *)
let timed_run ?(record = false) b ~seed dual det =
  let stamps = Array.make (b.rounds + 1) 0.0 in
  let sets = Array.make (if record then b.rounds + 1 else 0) [||] in
  let observer (v : E.view) =
    stamps.(v.E.view_round) <- now ();
    if record then sets.(v.E.view_round) <- v.E.view_broadcasters
  in
  let cfg = config ~observer b ~seed dual det in
  stamps.(0) <- now ();
  let res = E.run cfg (body b) in
  let wall = now () -. stamps.(0) in
  let round_ms = List.init b.rounds (fun i -> (stamps.(i + 1) -. stamps.(i)) *. 1e3) in
  { res; wall; round_ms; sets }

let counts (r : unit E.result) =
  let s = r.E.stats in
  (s.Engine.sends, s.Engine.deliveries, s.Engine.collisions)

let check_counts b ~variant r =
  let ((s, d, c) as got) = counts r.res in
  let ok = variant < Array.length b.pins && b.pins.(variant) = got in
  if not ok then note "variant %d counts: (%d, %d, %d)" variant s d c;
  check (Printf.sprintf "variant %d sends, deliveries and collisions match their pins" variant) ok

let check_reference b ~seed =
  let dual = b.reduced ~seed in
  let cfg = config b ~seed dual (Detector.static (Detector.perfect (Dual.g dual))) in
  check "run = run_reference on the reduced instance"
    (E.run cfg (body b) = E.run_reference cfg (body b))

let setup b ~variant =
  let dual, graph_s = time (fun () -> b.world ~variant) in
  let det, detect_s = time (fun () -> Detector.static (Detector.perfect (Dual.g dual))) in
  (dual, det, graph_s, detect_s)

(* Replays the adversary and the delivery substrate on the broadcaster
   sets one run recorded, with the per-round adversary stream derived
   as [Engine.run] derives it.  The replayed scatter must reproduce the
   run's delivery counts, and the row scatter, where it is replayed,
   the CSR scatter. *)
let replay b ~seed dual (r : run) =
  let n = Dual.n dual and ng = Dual.gray_count dual and g = Dual.g dual in
  let adv_root = Rng.derive (Rng.create seed) 0x5EED and adv_rng = Rng.create 0 in
  let scratch =
    if Adversary.has_kernel b.adversary then Some (Adversary.make_scratch dual) else None
  in
  let active = Bitset.create (max 1 ng) and bcast = Bitset.create n in
  let once = Bitset.create n and twice = Bitset.create n in
  let r_once = Bitset.create n and r_twice = Bitset.create n in
  let m_once = Bitset.create n and m_twice = Bitset.create n in
  let rows = if b.rows then Graph.adj_rows g else [||] in
  let gmask = if b.rows && ng > 0 then Dual.gray_masks dual else [||] in
  let choose_us = ref [] and active_edges = ref [] and csr_us = ref [] in
  let rows_us = ref [] and merge_us = ref [] in
  let deliveries = ref 0 and collisions = ref 0 and rows_agree = ref true in
  for round = 1 to b.rounds do
    let broadcasters = r.sets.(round) in
    if Array.length broadcasters > 0 then begin
      let choose () =
        Bitset.clear active;
        Rng.derive_into adv_rng ~parent:adv_root round;
        match scratch with
        | Some sc when Adversary.kernel_wins b.adversary ~broadcasters dual ->
          Adversary.choose_kernel b.adversary ~round ~broadcasters dual adv_rng sc active
        | _ -> Adversary.choose b.adversary ~round ~broadcasters dual adv_rng active
      in
      choose_us := us choose :: !choose_us;
      active_edges := float_of_int (Bitset.cardinal active) :: !active_edges;
      let scatter_csr () =
        Bitset.clear once;
        Bitset.clear twice;
        Array.iter
          (fun u ->
            Graph.iter_neighbors (fun v -> Bitset.acc2_add ~once ~twice v) g u;
            if Dual.gray_degree dual u > 0 then
              Dual.iter_gray_adj
                (fun v e -> if Bitset.mem active e then Bitset.acc2_add ~once ~twice v)
                dual u)
          broadcasters
      in
      csr_us := us scatter_csr :: !csr_us;
      if b.rows then begin
        let scatter_rows () =
          Bitset.clear r_once;
          Bitset.clear r_twice;
          Array.iter
            (fun u ->
              Bitset.acc2_or_into ~once:r_once ~twice:r_twice rows.(u);
              if ng > 0 && Dual.gray_degree dual u > 0 then
                Bitset.iter_inter
                  (fun e ->
                    Bitset.acc2_add ~once:r_once ~twice:r_twice (Dual.gray_other dual e u))
                  gmask.(u) active)
            broadcasters
        in
        rows_us := us scatter_rows :: !rows_us;
        if not (Bitset.equal once r_once && Bitset.equal twice r_twice) then
          rows_agree := false
      end;
      let merge () =
        Bitset.clear m_once;
        Bitset.clear m_twice;
        Bitset.acc2_merge_into ~once:m_once ~twice:m_twice ~src_once:once ~src_twice:twice
      in
      merge_us := us merge :: !merge_us;
      (* every beacon process listens in each round it does not broadcast *)
      Bitset.clear bcast;
      Array.iter (Bitset.add bcast) broadcasters;
      for w = 0 to Bitset.word_count once - 1 do
        let o = Bitset.get_word once w and t = Bitset.get_word twice w in
        let listen = lnot (Bitset.get_word bcast w) in
        deliveries := !deliveries + Bitset.popcount_word (o land lnot t land listen);
        collisions := !collisions + Bitset.popcount_word (t land listen)
      done
    end
  done;
  let _, d, c = counts r.res in
  check "replayed scatter reproduces the run's deliveries and collisions"
    (!deliveries = d && !collisions = c);
  show "adversary.choose_us" (median !choose_us) "us";
  show "adversary.active_edges" (median !active_edges) "count";
  show "deliver.scatter_csr_us" (median !csr_us) "us";
  if b.rows then begin
    check "row scatter equals CSR scatter on every recorded round" !rows_agree;
    show "deliver.scatter_rows_us" (median !rows_us) "us"
  end
  else note "%-28s not replayed: the row cache would take n^2/8 bytes" "deliver.scatter_rows_us";
  show "deliver.merge_us" (median !merge_us) "us"

(* Time of one run from the fastest pieces of [runs]: the sum over rounds
   of the fastest time each round took in any of them.  Every run of a
   workload input does the same work round by round, and the host's
   slow stretches come and go within a run, so each round's fastest
   copy is most likely one the host did not slow. *)
let fastest_s b runs =
  let best = Array.make b.rounds infinity in
  List.iter (fun r -> List.iteri (fun i ms -> best.(i) <- Float.min best.(i) ms) r.round_ms) runs;
  Array.fold_left ( +. ) 0.0 best /. 1e3

let beacon b ~seed ~seconds ~trace =
  let variant = ((seed mod variants) + variants) mod variants in
  let engine_seed = 0xBEAC0 + variant in
  note "input variant %d of %d; %d rounds per run" variant variants b.rounds;
  (* Each run starts on a collected heap, as a run in a fresh process
     does, rather than paying for the previous run's dead fibers. *)
  let runs ?record ~min span dual det =
    let t0 = now () and acc = ref [] in
    while List.length !acc < min || now () -. t0 < span do
      Gc.full_major ();
      let r = timed_run ?record b ~seed:engine_seed dual det in
      check_counts b ~variant r;
      acc := r :: !acc
    done;
    !acc
  in
  (* The end-to-end run sets up [b.worlds] fresh worlds, the traced
     run one.  On each, a first run pays for the lazily built caches; in
     the end-to-end run, later runs follow while that world's share of
     the measuring time lasts, and at least one on the last world.  Each
     world is dropped before the next is built, so peak memory holds
     one. *)
  let worlds = if trace = 0 then b.worlds else 1 in
  let t_start = now () and world = ref None in
  let setups = ref [] and colds = ref [] and warm = ref [] in
  for w = 1 to worlds do
    world := None;
    Gc.compact ();
    let dual, det, graph_s, detect_s = setup b ~variant in
    setups := (graph_s, detect_s) :: !setups;
    colds := List.hd (runs ~min:1 0.0 dual det) :: !colds;
    if trace = 0 then begin
      let until = float_of_int (seconds * w) /. float_of_int worlds in
      let min = if w = worlds then 1 else 0 in
      warm := runs ~min (until -. (now () -. t_start)) dual det @ !warm
    end;
    world := Some (dual, det)
  done;
  let dual, det = Option.get !world in
  if trace = 0 then begin
    check_reference b ~seed;
    let setup_s = median (List.map (fun (g, d) -> g +. d) !setups) in
    let cold_s = fastest_s b !colds and warm_s = fastest_s b !warm in
    let round_ms = List.concat_map (fun r -> r.round_ms) !warm in
    show "setup_s" setup_s "s";
    show "rounds_per_s" (float_of_int b.rounds /. warm_s) "1/s";
    show "round_p90_ms" (quantile 0.9 round_ms) "ms";
    note "(%d first runs: median %.3f s; %d later runs: median %.3f s; %d later rounds: median %.2f ms)"
      (List.length !colds)
      (median (List.map (fun r -> r.wall) !colds))
      (List.length !warm)
      (median (List.map (fun r -> r.wall) !warm))
      (List.length round_ms) (median round_ms);
    print_end_to_end ~setup_s ~cold_s ~warm_s ~rss:(peak_rss_mb ())
  end
  else begin
    let graph_s, detect_s = List.hd !setups in
    show "graph.build_s" graph_s "s";
    show "detect.build_s" detect_s "s";
    let half = float_of_int seconds /. 2.0 in
    let plain = runs ~min:2 half dual det in
    start_tracing ();
    let traced = runs ~record:true ~min:2 half dual det in
    stop_tracing ();
    replay b ~seed:engine_seed dual (List.hd traced);
    if b.speedup then begin
      if !nproc < 2 then note "%-28s unmeasured: %d core" "pool.domains_speedup" !nproc
      else begin
        let one, t1 = time (fun () -> E.run (config b ~seed:engine_seed dual det) (body b)) in
        let many, tk =
          time (fun () -> E.run (config ~shards:!nproc b ~seed:engine_seed dual det) (body b))
        in
        check "runs on one and on nproc domains give equal results" (one = many);
        show "pool.domains_speedup" (t1 /. tk) "x";
        note "(one run: %.3f s on 1 domain, %.3f s on %d)" t1 tk !nproc
      end
    end;
    check_reference b ~seed;
    print_per_layer ~ops:(List.length traced) ~untraced_s:(fastest_s b plain)
      ~traced_s:(fastest_s b traced)
  end

(* --- command line --- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let commit = ref "unknown" and workdir = ref ".perfbench-work" in
  let usage = "rnbench --workload NAME --seed N --seconds S --trace 0|1 [options]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--nproc", Arg.Set_int nproc, "N cores this process may run on");
      ("--commit", Arg.Set_string commit, "ID source version, for the stamp");
      ("--workdir", Arg.Set_string workdir, "DIR scratch directory for result stores");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let domains, go =
    match !workload with
    | "sweep-quick" ->
      (!nproc, fun () -> sweep ~seconds:!seconds ~trace:!trace ~workdir:!workdir)
    | "beacon-sparse-n64k" ->
      (1, fun () -> beacon sparse ~seed:!seed ~seconds:!seconds ~trace:!trace)
    | "beacon-dense-n4k" -> (1, fun () -> beacon dense ~seed:!seed ~seconds:!seconds ~trace:!trace)
    | w ->
      Printf.eprintf "rnbench: unknown workload %S\n%s\n" w usage;
      exit 2
  in
  Printf.printf
    "# rnbench workload=%s seed=%d seconds=%d trace=%d nproc=%d domains=%d ocaml=%s commit=%s\n%!"
    !workload !seed !seconds !trace !nproc domains Sys.ocaml_version !commit;
  go ()

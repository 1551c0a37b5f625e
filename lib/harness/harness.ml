(* Shared experiment plumbing: instance construction, repetition over
   seeds, aggregation, and a uniform result format rendered by the CLI
   and the benchmark. *)

module Rng = Rn_util.Rng
module Table = Rn_util.Table
module Stats = Rn_util.Stats
module Fit = Rn_util.Fit
module Metrics = Rn_util.Metrics
module Timing = Rn_util.Timing
module Gen = Rn_graph.Gen
module Dual = Rn_graph.Dual
module Detector = Rn_detect.Detector

type scale = Quick | Full

let reps = function Quick -> 3 | Full -> 5
let scale_name = function Quick -> "quick" | Full -> "full"

(* --- parallel execution ---

   Every experiment cell derives its randomness from the cell itself
   (seed, n, degree, ...), so cells are independent and a parallel sweep
   must produce the same table as a sequential one.  [run_cells] is the
   single entry point both seed repetition and grid iteration go through;
   the worker count defaults to a harness-wide setting so the registry's
   [scale -> result] experiment signature stays unchanged. *)

let default_jobs = ref 1
let set_jobs j = default_jobs := max 1 j
let jobs () = !default_jobs

(* --- the result store (crash-safe caching and resume) ---

   The same determinism invariant makes cells perfectly cacheable: a
   cell result is a pure function of (experiment id, scale, position in
   the sweep, the experiment's declared code_version, and the engine
   semantics digest).  When a store is configured, [run_cells] looks
   every cell up before computing it, and appends each fresh result to
   the journal the moment it is computed — so a killed sweep resumes
   from the finished cells, and a warm re-run replays entirely from
   disk.  Cell payloads are [Marshal]ed, which round-trips the plain
   int/float/bool/list/tuple data cells return exactly; anyone changing
   a cell's semantics or result type MUST bump that experiment's
   [code_version] (see EXPERIMENTS.md).

   A cell that raises (or overruns the per-cell time budget) is recorded
   as [Failed] — which [Store.find] treats as a miss, so it is resumable
   — and the rest of the sweep still runs and caches; [run_cells] raises
   {!Cell_failed} only after the whole batch has been driven. *)

module Store = Rn_util.Store

type store_cfg = {
  store : Store.t;
  retry : int;  (* extra attempts after a cell raises *)
  timeout : float option;  (* per-cell wall-clock budget, seconds *)
}

let store_cfg : store_cfg option ref = ref None

let set_store ?(retry = 0) ?timeout store =
  store_cfg := Some { store; retry = max 0 retry; timeout }

let clear_store () = store_cfg := None

(* Cumulative cache statistics for the current process, expressed as
   registry counters so they flow through the same snapshot/merge/export
   pipeline as everything else.  Metrics cells are atomic, so recording
   from Pool worker domains is safe; recording is unconditional (these
   counters predate the registry and the CLI always reports them). *)
let m_store_hits = Metrics.counter "store.hits"
let m_store_misses = Metrics.counter "store.misses"
let m_store_failures = Metrics.counter "store.failures"

let reset_store_counters () =
  Metrics.reset_counter m_store_hits;
  Metrics.reset_counter m_store_misses;
  Metrics.reset_counter m_store_failures

let store_counters () =
  (Metrics.value m_store_hits, Metrics.value m_store_misses, Metrics.value m_store_failures)

(* Store cache-key environment: the engine semantics digest plus a
   payload-format tag.  Since the observability PR a cell payload is a
   Marshal'ed (result, metrics snapshot) pair, not a bare result; the
   "+obs1" tag keeps cells cached under the old format from being
   replayed into the new decoder.  [rn_cli store gc] must use the same
   value. *)
let cell_env = Rn_sim.Engine.semantics_digest ^ "+obs1"

(* Wall time of freshly computed (non-cached) cells, for the nightly
   "trace the slowest cells" report. *)
let cell_times : (string * float) list ref = ref []
let cell_times_lock = Mutex.create ()

let note_cell_time label secs =
  Mutex.protect cell_times_lock (fun () -> cell_times := (label, secs) :: !cell_times)

let slowest_cells ?(k = 10) () =
  Mutex.protect cell_times_lock (fun () ->
      List.filteri
        (fun i _ -> i < k)
        (List.sort (fun (_, a) (_, b) -> compare (b : float) a) !cell_times))

let reset_cell_times () = Mutex.protect cell_times_lock (fun () -> cell_times := [])

(* Per-experiment key context, set by the registry wrapper in [All]
   before the experiment function runs.  [batch] numbers the successive
   [run_cells] calls inside one experiment so every cell gets a stable
   coordinate; the sweep structure is deterministic, so coordinates are
   reproducible run to run (changing the structure is a code_version
   bump). *)
let exp_ctx : (string * string * int) option ref = ref None
let batch = ref 0

let begin_experiment ~id ~scale ~version =
  exp_ctx := Some (id, scale_name scale, version);
  batch := 0

(* Per-experiment metrics: each cell's scoped snapshot is merged into
   its experiment's aggregate, both on compute and on cache replay (the
   snapshot rides in the store payload, so a warm sweep reports the same
   metrics as the cold one that populated it). *)
let exp_metrics : (string, Metrics.snapshot) Hashtbl.t = Hashtbl.create 16
let exp_metrics_lock = Mutex.create ()

(* Takes the experiment id explicitly rather than reading [exp_ctx]:
   this runs on Pool worker domains, where only values captured before
   the map started are safe to read. *)
let record_exp_metrics ~exp snap =
  Mutex.protect exp_metrics_lock (fun () ->
      let cur =
        match Hashtbl.find_opt exp_metrics exp with
        | Some s -> s
        | None -> Metrics.of_counters []
      in
      Hashtbl.replace exp_metrics exp (Metrics.merge cur snap))

(* Aggregated per-experiment metrics, sorted by experiment id. *)
let experiment_metrics () =
  Mutex.protect exp_metrics_lock (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) exp_metrics []
      |> List.sort (fun (a, _) (b, _) -> compare a b))

let reset_experiment_metrics () =
  Mutex.protect exp_metrics_lock (fun () -> Hashtbl.reset exp_metrics)

exception Cell_failed of { exp : string; failed : int; total : int }
exception Cell_timeout of float

let with_timeout timeout f =
  match timeout with
  | None -> f ()
  | Some limit ->
    let t0 = Unix.gettimeofday () in
    let v = f () in
    if Unix.gettimeofday () -. t0 >= limit then raise (Cell_timeout limit) else v

(* Compute one uncached cell, retrying raises up to [retry] times (the
   cell is deterministic, so a retry rederives nothing: same key, same
   result — retries exist for the timeout path and for genuinely flaky
   environments). *)
let compute_cell cfg f c =
  let rec attempt a =
    match with_timeout cfg.timeout (fun () -> f c) with
    | v -> Ok v
    | exception _ when a < cfg.retry -> attempt (a + 1)
    | exception e -> Error (Printexc.to_string e)
  in
  attempt 0

(* Each cell's gauge for its own wall time; captured into the cell's
   scoped snapshot, so per-experiment aggregates carry a max cell time. *)
let m_cell_us = Metrics.gauge "cell.us"

(* --- trace-on-demand (one cell re-run under an ambient Events sink) ---

   [set_trace_target ~exp ~coord] marks one cell of the next sweep: when
   [run_cells_cached] reaches it, the cell is recomputed (cache
   bypassed, store/metrics counters untouched, nothing written back)
   with an ambient {!Rn_sim.Events} sink installed, and the captured
   events are parked for [take_trace_events].  Determinism makes the
   re-run byte-faithful: the traced computation takes the certified
   scalar engine path and produces the same result the cached record
   holds.  Callers must run with [jobs = 1] so the ambient sink sees
   only the target cell. *)

module Events = Rn_sim.Events

let trace_target : (string * string) option Atomic.t = Atomic.make None
let trace_capacity = ref 65536
let traced_events : Events.event list option ref = ref None

let set_trace_target ?(capacity = 65536) ~exp ~coord () =
  trace_capacity := capacity;
  traced_events := None;
  Atomic.set trace_target (Some (exp, coord))

let clear_trace_target () = Atomic.set trace_target None
let take_trace_events () = !traced_events

let run_cells_cached cfg (exp, scale, version) ~jobs:j f cells =
  let b = !batch in
  incr batch;
  let env = cell_env in
  let key i =
    {
      Store.exp;
      scale;
      coord = Printf.sprintf "b%d.c%d" b i;
      code_version = version;
      env;
    }
  in
  let run_one (i, c) =
    let k = key i in
    let replay payload =
      Metrics.incr m_store_hits;
      let v, (snap : Metrics.snapshot) = Marshal.from_string payload 0 in
      record_exp_metrics ~exp snap;
      Ok v
    in
    let compute () =
      (* Scoped: the snapshot holds exactly what this cell recorded on
         this domain, independent of what other cells do concurrently —
         so the payload is deterministic at any [--jobs]. *)
      let (result, dt), snap =
        Metrics.scoped (fun () ->
            let t0 = Timing.now () in
            let r = compute_cell cfg f c in
            let dt = Timing.now () -. t0 in
            Metrics.set m_cell_us (int_of_float (dt *. 1e6));
            (r, dt))
      in
      match result with
      | Ok v ->
        Metrics.incr m_store_misses;
        note_cell_time (Printf.sprintf "%s/%s/%s" exp scale k.Store.coord) dt;
        record_exp_metrics ~exp snap;
        Store.put cfg.store k Store.Done (Marshal.to_string (v, snap) []);
        Ok v
      | Error msg ->
        Metrics.incr m_store_failures;
        Store.put cfg.store k Store.Failed msg;
        Error msg
    in
    let traced () =
      (* Cache bypassed in both directions: recompute even when a record
         exists, and write nothing back — the trace is a side-channel,
         not a sweep step, so hit/miss counters stay untouched. *)
      let sink = Events.create ~capacity:!trace_capacity () in
      Events.set_ambient (Some sink);
      let r =
        Fun.protect
          ~finally:(fun () -> Events.set_ambient None)
          (fun () -> compute_cell cfg f c)
      in
      traced_events := Some (Events.events sink);
      r
    in
    let is_trace_target =
      match Atomic.get trace_target with
      | Some (texp, tcoord) -> texp = exp && tcoord = k.Store.coord
      | None -> false
    in
    if is_trace_target then traced ()
    else
      match Store.find cfg.store k with Some p -> replay p | None -> compute ()
  in
  let out = Rn_util.Pool.map ~jobs:j run_one (List.mapi (fun i c -> (i, c)) cells) in
  let failed = List.length (List.filter Result.is_error out) in
  if failed > 0 then raise (Cell_failed { exp; failed; total = List.length out });
  List.map (function Ok v -> v | Error _ -> assert false) out

(* [run_cells f cells] maps [f] over the cells, in parallel when the jobs
   setting (or [?jobs]) exceeds 1, preserving input order.  [~jobs:1] is
   exactly [List.map].  With a store configured (and an experiment
   context set), cached cells are replayed instead of recomputed. *)
let run_cells ?jobs f cells =
  let j = match jobs with Some j -> j | None -> !default_jobs in
  match (!store_cfg, !exp_ctx) with
  | Some cfg, Some ctx -> run_cells_cached cfg ctx ~jobs:j f cells
  | _ -> (
    (* No store: still feed per-experiment metrics when the registry is
       on and we know which experiment is running ([--metrics] without
       [--no-cache] goes through the cached path above). *)
    match !exp_ctx with
    | Some (exp, _, _) when Metrics.enabled () ->
      Rn_util.Pool.map ~jobs:j
        (fun c ->
          let v, snap = Metrics.scoped (fun () -> f c) in
          record_exp_metrics ~exp snap;
          v)
        cells
    | _ -> Rn_util.Pool.map ~jobs:j f cells)

(* [run_reps scale f] runs [f rep] for [rep = 1 .. reps scale] and returns
   the results in rep order. *)
let run_reps ?jobs scale f = run_cells ?jobs f (List.init (reps scale) (fun i -> i + 1))

(* [sweep keys ~reps f] flattens a parameter grid x seed repetition into
   one cell list, runs it through [run_cells], and regroups the results:
   the returned list pairs each key (in input order) with its [reps]
   results (in rep order).  This keeps grids and repetitions on a single
   flat queue, so the pool load-balances across the whole sweep instead
   of barrier-synchronising at each grid point. *)
let sweep ?jobs keys ~reps:r f =
  let cells = List.concat_map (fun k -> List.init r (fun i -> (k, i + 1))) keys in
  let out = run_cells ?jobs (fun (k, rep) -> f k rep) cells in
  let rec regroup keys out =
    match keys with
    | [] -> []
    | k :: keys ->
      let rec split n acc rest =
        if n = 0 then (List.rev acc, rest)
        else match rest with x :: rest -> split (n - 1) (x :: acc) rest | [] -> assert false
      in
      let mine, rest = split r [] out in
      (k, mine) :: regroup keys rest
  in
  regroup keys out

(* The last of a cell's repetitions, matching the historical "keep the
   final rep's value" convention of the tables. *)
let last_rep = function [] -> invalid_arg "last_rep" | l -> List.nth l (List.length l - 1)

type result = {
  id : string;
  title : string;
  body : string; (* rendered tables *)
  notes : string list; (* fit summaries, paper-vs-measured one-liners *)
}

let render r =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "=== %s: %s ===\n" r.id r.title);
  Buffer.add_string b r.body;
  List.iter (fun n -> Buffer.add_string b (Printf.sprintf "  . %s\n" n)) r.notes;
  Buffer.add_string b "\n";
  Buffer.contents b

let print r =
  print_string (render r);
  flush stdout

(* A connected random geometric dual graph with expected reliable degree
   [degree]; deterministic in [seed]. *)
let geometric ?(d = 2.0) ?(gray_p = 0.5) ~seed ~n ~degree () =
  let rng = Rng.create (0x9E0 + seed) in
  let side = Gen.side_for_degree ~n ~target_degree:degree in
  Gen.geometric ~rng (Gen.default_spec ~d ~gray_p ~n ~side ())

(* Perfect (0-complete) static detector for an instance. *)
let perfect_detector dual = Detector.static (Detector.perfect (Dual.g dual))

let tau_detector ~seed ~tau dual =
  let rng = Rng.create (0x7A0 + seed) in
  Detector.static (Detector.tau_complete ~rng ~tau dual)

let success_rate oks =
  let total = List.length oks in
  if total = 0 then 0.0
  else
    float_of_int (List.length (List.filter Fun.id oks)) /. float_of_int total

(* Mean of int samples as float. *)
let mean_int xs = Stats.mean (Stats.of_ints (Array.of_list xs))

(* Fit note helpers. *)
let note_polylog ~what xs ys =
  let p, r2 = Fit.polylog_exponent (Array.of_list xs) (Array.of_list ys) in
  Printf.sprintf "%s ~ (log n)^%.2f (r2=%.3f)" what p r2

let note_power ~what xs ys =
  let p, r2 = Fit.power_law (Array.of_list xs) (Array.of_list ys) in
  Printf.sprintf "%s ~ x^%.2f (r2=%.3f)" what p r2

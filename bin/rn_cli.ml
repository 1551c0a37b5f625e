(* Command-line driver: run any algorithm or experiment from the shell.

     rn_cli experiment E1 E4c --full
     rn_cli mis --n 128 --degree 12 --adversary bernoulli:0.5
     rn_cli ccds --n 128 --algo banned --b 96
     rn_cli bridge --beta 16
*)

open Cmdliner
module R = Core.Radio
module Dual = Rn_graph.Dual
module Detector = Rn_detect.Detector
module Verify = Rn_verify.Verify
module Stats = Rn_util.Stats

let adversary_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "silent" ] -> Ok Rn_sim.Adversary.silent
    | [ "all" ] -> Ok Rn_sim.Adversary.all_gray
    | [ "spiteful" ] -> Ok Rn_sim.Adversary.spiteful
    | [ "jamming" ] -> Ok Rn_sim.Adversary.jamming
    | [ "bernoulli"; p ] -> begin
      match float_of_string_opt p with
      | Some p when p >= 0.0 && p <= 1.0 -> Ok (Rn_sim.Adversary.bernoulli p)
      | _ -> Error (`Msg "bernoulli probability must be in [0,1]")
    end
    | [ "harassing"; p ] -> begin
      match float_of_string_opt p with
      | Some p when p >= 0.0 && p <= 1.0 -> Ok (Rn_sim.Adversary.harassing p)
      | _ -> Error (`Msg "harassing probability must be in [0,1]")
    end
    | _ -> Error (`Msg "expected silent|all|spiteful|jamming|bernoulli:P|harassing:P")
  in
  Arg.conv (parse, fun ppf a -> Fmt.string ppf (Rn_sim.Adversary.name a))

let n_arg = Arg.(value & opt int 128 & info [ "n"; "nodes" ] ~doc:"Network size.")
let degree_arg = Arg.(value & opt int 12 & info [ "degree" ] ~doc:"Target reliable degree.")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Experiment seed.")
let tau_arg = Arg.(value & opt int 0 & info [ "tau" ] ~doc:"Detector completeness parameter.")

let b_arg =
  Arg.(value & opt (some int) None & info [ "b" ] ~doc:"Message size bound in bits.")

let adversary_arg =
  Arg.(
    value
    & opt adversary_conv (Rn_sim.Adversary.bernoulli 0.5)
    & info [ "adversary" ]
        ~doc:"Gray-edge policy: silent|all|spiteful|jamming|bernoulli:P|harassing:P.")

let build_instance ~seed ~n ~degree ~tau =
  let dual = Rn_harness.Harness.geometric ~seed ~n ~degree () in
  let det =
    if tau = 0 then Detector.perfect (Dual.g dual)
    else
      Detector.tau_complete ~rng:(Rn_util.Rng.create (seed + 77)) ~tau dual
  in
  (dual, det)

let summarize_engine name (rounds, stats, timed_out) =
  Printf.printf "%s: rounds=%d sends=%d deliveries=%d collisions=%d bits=%d silent=%d%s\n" name
    rounds stats.Rn_sim.Engine.sends stats.Rn_sim.Engine.deliveries
    stats.Rn_sim.Engine.collisions stats.Rn_sim.Engine.bits_sent
    stats.Rn_sim.Engine.silent_rounds
    (if timed_out then " TIMEOUT" else "")

let print_mis_report dual det outputs =
  let rep = Verify.Mis_check.check ~g:(Dual.g dual) ~h:(Detector.h_graph det) outputs in
  Printf.printf "MIS check: termination=%b independence=%b maximality=%b\n" rep.termination
    rep.independence rep.maximality;
  List.iter (fun v -> Printf.printf "  violation: %s\n" v) rep.violations;
  let size = Array.fold_left (fun c o -> if o = Some 1 then c + 1 else c) 0 outputs in
  Printf.printf "MIS size: %d / %d\n" size (Array.length outputs)

let print_ccds_report dual det outputs =
  let rep = Verify.Ccds_check.check ~h:(Detector.h_graph det) ~g':(Dual.g' dual) outputs in
  Printf.printf
    "CCDS check: termination=%b connectivity=%b domination=%b max-G'-neighbours=%d size=%d\n"
    rep.termination rep.connectivity rep.domination rep.max_neighbors_g' rep.size;
  List.iter (fun v -> Printf.printf "  violation: %s\n" v) rep.violations

(* --- mis command --- *)

(* One line for [mis --trace]: the run's length and sends, a sparkline
   of broadcasters per round over 60 windows, and when the processes
   first decided. *)
let print_activity (res : _ R.result) counts =
  let decided =
    Array.to_list res.R.decided_round |> List.filter_map Fun.id |> List.sort compare
  in
  Format.printf "trace: %d rounds, %d sends, activity [%s]" res.R.rounds
    (Array.fold_left ( + ) 0 counts)
    (Stats.sparkline ~buckets:60 (Stats.of_ints counts));
  if decided <> [] then
    Format.printf ", decisions %a" Stats.pp_summary
      (Stats.summarize (Array.of_list (List.map float_of_int decided)));
  Format.printf "@."

let run_mis n degree seed tau adversary trace =
  let dual, det = build_instance ~seed ~n ~degree ~tau in
  Printf.printf "instance: %s, Delta=%d\n" (Format.asprintf "%a" Dual.pp dual)
    (Dual.max_degree_g dual);
  (* An observer disables silent-round fast-forward, so only a traced
     run installs one: it counts each round's broadcasters, newest
     first. *)
  let counts = ref [] in
  let observer =
    if trace then
      Some (fun (v : R.view) -> counts := Array.length v.R.view_broadcasters :: !counts)
    else None
  in
  let cfg = R.config ~adversary ~seed ?observer ~detector:(Detector.static det) dual in
  let res =
    R.run cfg (fun ctx ->
        Core.Mis.body ~on_decide:(fun v -> R.output ctx v) Core.Params.default ctx)
  in
  summarize_engine "mis" (res.R.rounds, res.R.stats, res.R.timed_out);
  if trace then print_activity res (Array.of_list (List.rev !counts));
  print_mis_report dual det res.R.outputs

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print an activity sparkline of the run.")

let mis_cmd =
  Cmd.v
    (Cmd.info "mis" ~doc:"Run the Section 4 MIS algorithm on a random geometric network.")
    Term.(const run_mis $ n_arg $ degree_arg $ seed_arg $ tau_arg $ adversary_arg $ trace_arg)

(* --- ccds command --- *)

let run_ccds n degree seed tau b algo adversary =
  let dual, det = build_instance ~seed ~n ~degree ~tau in
  Printf.printf "instance: %s, Delta=%d\n" (Format.asprintf "%a" Dual.pp dual)
    (Dual.max_degree_g dual);
  let rounds, stats, timed_out, outputs =
    match algo with
    | `Banned ->
      if tau > 0 then
        failwith "the banned-list algorithm requires a 0-complete detector (--tau 0)";
      let res = Core.Ccds.run ~seed ?b_bits:b ~adversary ~detector:(Detector.static det) dual in
      (res.R.rounds, res.R.stats, res.R.timed_out, res.R.outputs)
    | `Explore ->
      let res =
        Core.Explore_ccds.run ~seed ?b_bits:b ~tau ~adversary ~detector:(Detector.static det)
          dual
      in
      (res.R.rounds, res.R.stats, res.R.timed_out, res.R.outputs)
  in
  summarize_engine "ccds" (rounds, stats, timed_out);
  print_ccds_report dual det outputs

let algo_arg =
  Arg.(
    value
    & opt (enum [ ("banned", `Banned); ("explore", `Explore) ]) `Banned
    & info [ "algo" ] ~doc:"CCDS algorithm: banned (Sec 5) or explore (Sec 6).")

let ccds_cmd =
  Cmd.v
    (Cmd.info "ccds" ~doc:"Run a CCDS algorithm on a random geometric network.")
    Term.(const run_ccds $ n_arg $ degree_arg $ seed_arg $ tau_arg $ b_arg $ algo_arg $ adversary_arg)

(* --- bridge command --- *)

let run_bridge beta seed =
  let r = Rn_games.Reduction.bridge_run ~beta ~seed () in
  Printf.printf "bridge beta=%d: rounds=%d solved=%b\n" beta r.rounds r.solved;
  List.iter (fun v -> Printf.printf "  violation: %s\n" v) r.report.violations

let beta_arg = Arg.(value & opt int 16 & info [ "beta" ] ~doc:"Clique size (Delta = beta).")

let bridge_cmd =
  Cmd.v
    (Cmd.info "bridge"
       ~doc:"Run the tau=1 CCDS on the Section 7 two-clique bridge network.")
    Term.(const run_bridge $ beta_arg $ seed_arg)

(* --- trace command --- *)

module Events = Rn_sim.Events

let rounds_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b when a <= b -> Ok (a, b)
      | _ -> Error (`Msg "expected LO:HI round range with LO <= HI"))
    | _ -> Error (`Msg "expected LO:HI round range")
  in
  Arg.conv (parse, fun ppf (a, b) -> Fmt.pf ppf "%d:%d" a b)

let trace_format_arg =
  Arg.(
    value
    & opt
        (enum [ ("chrome", Events.Chrome); ("jsonl", Events.Jsonl); ("sexp", Events.Sexp_format) ])
        Events.Chrome
    & info [ "format" ]
        ~doc:"Trace format: chrome (Perfetto-loadable JSON), jsonl, or sexp.")

let trace_out_arg =
  Arg.(value & opt string "trace.json" & info [ "out" ] ~docv:"FILE" ~doc:"Trace output file.")

(* The sink needs at least one slot and a sampling period of at least
   one round; anything else is a usage error, reported before any work. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some k when k >= 1 -> Ok k
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Fmt.int)

let capacity_arg =
  Arg.(
    value & opt positive_int 65536
    & info [ "capacity" ]
        ~doc:"Ring-buffer size: the newest N events are kept, older ones evicted.")

let rounds_filter_arg =
  Arg.(
    value
    & opt (some rounds_conv) None
    & info [ "rounds" ] ~docv:"LO:HI" ~doc:"Record only rounds in the inclusive range.")

let procs_filter_arg =
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "procs" ] ~docv:"IDS"
        ~doc:"Record process events only for these ids (round-scoped events always pass).")

let sample_arg =
  Arg.(
    value & opt positive_int 1
    & info [ "sample" ] ~docv:"K" ~doc:"Record only rounds where round mod K = 0.")

let trace_algo_arg =
  Arg.(
    value
    & pos 0 (enum [ ("mis", `Mis); ("ccds", `Ccds); ("tdma", `Tdma) ]) `Mis
    & info [] ~docv:"ALGO" ~doc:"Algorithm to trace: mis, ccds, or tdma.")

let run_trace algo n degree seed tau b adversary out format capacity rounds procs sample =
  let dual, det = build_instance ~seed ~n ~degree ~tau in
  Printf.printf "instance: %s, Delta=%d\n" (Format.asprintf "%a" Dual.pp dual)
    (Dual.max_degree_g dual);
  let sink = Events.create ~capacity ?rounds ?procs ~sample () in
  let detector = Detector.static det in
  let name, summary =
    match algo with
    | `Mis ->
      let r = Core.Mis.run ~seed ?b_bits:b ~adversary ~sink ~detector dual in
      ("mis", (r.R.rounds, r.R.stats, r.R.timed_out))
    | `Ccds ->
      if tau > 0 then
        failwith "the banned-list CCDS requires a 0-complete detector (--tau 0)";
      let r = Core.Ccds.run ~seed ?b_bits:b ~adversary ~sink ~detector dual in
      ("ccds", (r.R.rounds, r.R.stats, r.R.timed_out))
    | `Tdma ->
      let r = Core.Tdma_ccds.run ~seed ?b_bits:b ~adversary ~sink ~detector dual in
      ("tdma", (r.R.rounds, r.R.stats, r.R.timed_out))
  in
  summarize_engine name summary;
  let evs = Events.events sink in
  let oc = open_out out in
  output_string oc (Events.export format evs);
  close_out oc;
  Printf.printf "trace: wrote %d events to %s (%s; emitted=%d evicted=%d filtered=%d)\n"
    (List.length evs) out
    (Events.format_name format)
    (Events.emitted sink) (Events.evicted sink) (Events.filtered sink)

let trace_run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a built-in algorithm with structured event tracing and write the trace to a \
          file (Chrome format loads in Perfetto / chrome://tracing).")
    Term.(
      const run_trace $ trace_algo_arg $ n_arg $ degree_arg $ seed_arg $ tau_arg $ b_arg
      $ adversary_arg $ trace_out_arg $ trace_format_arg $ capacity_arg $ rounds_filter_arg
      $ procs_filter_arg $ sample_arg)

let kind_order =
  [
    ("wake", 0); ("broadcast", 1); ("deliver", 2); ("collide", 3); ("gray", 4); ("decide", 5);
    ("skip", 6);
  ]

let run_trace_inspect file rounds proc top =
  let content = In_channel.with_open_text file In_channel.input_all in
  let evs = Events.of_string content in
  let evs =
    match rounds with
    | None -> evs
    | Some (a, b) -> List.filter (fun e -> e.Events.round >= a && e.Events.round <= b) evs
  in
  let evs =
    match proc with
    | None -> evs
    | Some p -> List.filter (fun e -> e.Events.proc = p) evs
  in
  let lo, hi =
    List.fold_left
      (fun (lo, hi) e -> (min lo e.Events.round, max hi e.Events.round))
      (max_int, min_int) evs
  in
  if evs = [] then print_endline "0 events match"
  else begin
    Printf.printf "%d events, rounds %d..%d\n" (List.length evs) lo hi;
    (* Event counts per kind, in engine order. *)
    let counts = Hashtbl.create 8 in
    List.iter
      (fun e ->
        let k = Events.kind_name e.Events.kind in
        Hashtbl.replace counts k (1 + Option.value (Hashtbl.find_opt counts k) ~default:0))
      evs;
    List.iter
      (fun (k, _) ->
        match Hashtbl.find_opt counts k with
        | Some c -> Printf.printf "  %-10s %d\n" k c
        | None -> ())
      kind_order;
    match proc with
    | Some p ->
      (* Per-process timeline. *)
      Printf.printf "timeline for proc %d:\n" p;
      List.iter (fun e -> Format.printf "  %a@." Events.pp_event e) evs
    | None ->
      (* Busiest rounds by broadcasters, then collision hotspots. *)
      let per_round = Hashtbl.create 64 in
      let bump r i =
        let b, d, c = Option.value (Hashtbl.find_opt per_round r) ~default:(0, 0, 0) in
        Hashtbl.replace per_round r
          (match i with
          | `B -> (b + 1, d, c)
          | `D -> (b, d + 1, c)
          | `C -> (b, d, c + 1))
      in
      let per_proc_coll = Hashtbl.create 64 in
      List.iter
        (fun e ->
          match e.Events.kind with
          | Events.Broadcast _ -> bump e.Events.round `B
          | Events.Deliver _ -> bump e.Events.round `D
          | Events.Collide _ ->
            bump e.Events.round `C;
            Hashtbl.replace per_proc_coll e.Events.proc
              (1 + Option.value (Hashtbl.find_opt per_proc_coll e.Events.proc) ~default:0)
          | _ -> ())
        evs;
      let top_by f tbl =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
        |> List.sort (fun (ka, a) (kb, b) ->
               let c = compare (f b) (f a) in
               if c <> 0 then c else compare ka kb)
        |> List.filteri (fun i _ -> i < top)
      in
      let busiest = top_by (fun (b, _, _) -> b) per_round in
      if busiest <> [] then begin
        Printf.printf "busiest rounds (by broadcasters):\n";
        List.iter
          (fun (r, (b, d, c)) ->
            Printf.printf "  r%-6d %d broadcasts, %d deliveries, %d collisions\n" r b d c)
          busiest
      end;
      let hot = top_by Fun.id per_proc_coll in
      if hot <> [] then begin
        Printf.printf "collision hotspots (by receiver):\n";
        List.iter (fun (p, c) -> Printf.printf "  p%-6d %d collisions\n" p c) hot
      end
  end

let trace_file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Trace file to inspect.")

let proc_filter_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "proc" ] ~docv:"ID" ~doc:"Show the timeline of this process only.")

let top_arg =
  Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc:"Rows in the top-K tables.")

let trace_inspect_cmd =
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Query a trace file written by 'trace run' (any format): kind counts, busiest \
          rounds, collision hotspots, per-process timelines.")
    Term.(const run_trace_inspect $ trace_file_arg $ rounds_filter_arg $ proc_filter_arg $ top_arg)

(* The `trace` group is assembled after the experiment section: the
   `trace cell` subcommand re-runs one sweep cell and needs the store
   arguments defined there. *)

(* --- experiment command --- *)

module Store = Rn_util.Store

(* Minimal JSON string escaping for metrics.json and `store stats --json`
   (keys here are identifiers; only journal problem messages could be
   exotic). *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Store diagnostics go to stderr: the rendered tables on stdout must be
   byte-identical whether cells were computed or replayed from the
   cache (and identical to --no-cache).  Per-experiment metrics
   (--metrics) keep that property because each cell's snapshot rides in
   its store payload: a warm sweep reports the metrics recorded when the
   cell was computed. *)
let run_experiments ids full jobs profile metrics store_dir no_cache retry cell_timeout =
  (* Ids are checked before any cell runs: a mistyped id must fail the
     whole command, or a gate that names it would pass without a table. *)
  (match List.filter (fun id -> Rn_harness.All.find id = None) ids with
  | [] -> ()
  | unknown ->
    Printf.eprintf "rn_cli experiment: unknown experiment %s (known: %s)\n"
      (String.concat ", " unknown) (String.concat ", " Rn_harness.All.ids);
    exit 2);
  Rn_harness.Harness.set_jobs jobs;
  (* The profile is a view over the engine's metrics counters. *)
  if profile || metrics then Rn_util.Metrics.set_enabled true;
  if metrics then Rn_harness.Harness.reset_experiment_metrics ();
  let scale = if full then Rn_harness.Harness.Full else Rn_harness.Harness.Quick in
  let ids = if ids = [] then Rn_harness.All.ids else ids in
  let store =
    if no_cache then None
    else begin
      let s = Store.open_ store_dir in
      if Store.recovered_bytes s > 0 then
        Printf.eprintf "[store] dropped %d corrupt trailing bytes (interrupted run?)\n%!"
          (Store.recovered_bytes s);
      Rn_harness.Harness.set_store ~retry ?timeout:cell_timeout s;
      Some s
    end
  in
  let any_failed = ref false in
  List.iter
    (fun id ->
      let f = Option.get (Rn_harness.All.find id) in
      match f scale with
      | r -> Rn_harness.Harness.print r
      | exception Rn_harness.Harness.Cell_failed { exp; failed; total } ->
        any_failed := true;
        Printf.eprintf
          "[store] %s: %d/%d cells failed; finished cells are cached, re-run to retry\n%!" exp
          failed total)
    ids;
  (match store with
  | Some s ->
    let hits, misses, failures = Rn_harness.Harness.store_counters () in
    Printf.eprintf "[store] hits=%d misses=%d failed=%d dir=%s\n%!" hits misses failures
      store_dir;
    Store.write_last_run ~dir:store_dir ~hits ~misses ~failures;
    (* Slowest freshly-computed cells, for the nightly trace-the-slow-
       cells job (and for humans hunting sweep bottlenecks). *)
    (match Rn_harness.Harness.slowest_cells ~k:10 () with
    | [] -> ()
    | slow ->
      let path = Filename.concat store_dir "slowest.txt" in
      let oc = open_out path in
      List.iter (fun (label, t) -> Printf.fprintf oc "%.3f %s\n" t label) slow;
      close_out oc;
      Printf.eprintf "[store] slowest cells -> %s\n%!" path);
    (* The per-experiment metrics (each the merge of its cells'
       snapshots) as one JSON object keyed by experiment id. *)
    if metrics then begin
      let path = Filename.concat store_dir "metrics.json" in
      let fields =
        List.map
          (fun (id, snap) ->
            Printf.sprintf "\"%s\":%s" (json_escape id) (Rn_util.Metrics.to_json snap))
          (Rn_harness.Harness.experiment_metrics ())
      in
      Out_channel.with_open_bin path (fun oc ->
          Printf.fprintf oc "{%s}\n" (String.concat "," fields));
      Printf.eprintf "[store] metrics -> %s\n%!" path
    end;
    Rn_harness.Harness.clear_store ();
    Store.close s
  | None -> ());
  if metrics then begin
    List.iter
      (fun (id, snap) ->
        Format.printf "=== metrics: %s ===@\n%a@\n" id Rn_util.Metrics.pp_snapshot snap)
      (Rn_harness.Harness.experiment_metrics ())
  end;
  if profile then Rn_util.Timing.print_report ();
  if !any_failed then exit 1

let ids_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (default: all).")

let full_arg = Arg.(value & flag & info [ "full" ] ~doc:"Full scale (slower, more sizes/reps).")

let jobs_arg =
  Arg.(
    value
    & opt int (Rn_util.Pool.recommended_jobs ())
    & info [ "j"; "jobs" ]
        ~doc:
          "Worker domains for experiment cells (default: cores - 1, capped). Tables are \
           identical for every value; 1 runs strictly sequentially.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Print engine round-loop section timings (wake/collect/adversary/deliver/resume) \
           aggregated over all runs; see EXPERIMENTS.md for how to read the report.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Enable the metrics registry and print per-experiment aggregated counters and \
           histograms (engine.*, store.*, cell.*) after the tables.")

let store_arg =
  Arg.(
    value & opt string ".rn-store"
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Result store directory: finished cells are journalled there as they complete, \
           a re-run replays them, and a killed sweep resumes from the journal.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Disable the result store entirely: every cell is recomputed, nothing is written.")

let retry_arg =
  Arg.(
    value & opt int 0
    & info [ "retry" ] ~docv:"N"
        ~doc:
          "Re-run a cell that raises up to N extra times before recording it as failed \
           (cells are deterministic, so this rederives nothing: same key, same result).")

let cell_timeout_arg =
  Arg.(
    value & opt (some float) None
    & info [ "cell-timeout" ] ~docv:"SEC"
        ~doc:
          "Per-cell wall-clock budget: a cell that reaches it is recorded as \
           failed-but-resumable and the rest of the sweep still runs (and caches).")

let experiment_cmd =
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate the paper's experiment tables (see DESIGN.md).")
    Term.(
      const run_experiments $ ids_arg $ full_arg $ jobs_arg $ profile_arg $ metrics_arg
      $ store_arg $ no_cache_arg $ retry_arg $ cell_timeout_arg)

(* --- store command --- *)

let store_dir_pos =
  Arg.(value & opt string ".rn-store" & info [ "store" ] ~docv:"DIR" ~doc:"Store directory.")

let per_group records =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (r : Store.record_) ->
      let g = (r.key.exp, r.key.code_version, r.key.scale, r.key.env) in
      let ok, fl = Option.value (Hashtbl.find_opt tbl g) ~default:(0, 0) in
      Hashtbl.replace tbl g
        (match r.status with Store.Done -> (ok + 1, fl) | Store.Failed -> (ok, fl + 1)))
    records;
  Hashtbl.fold (fun g c acc -> (g, c) :: acc) tbl [] |> List.sort compare

let run_store_stats dir json =
  let scan = Store.scan_file (Store.journal_path dir) in
  if json then begin
    let groups =
      List.map
        (fun ((exp, v, scale, env), (ok, fl)) ->
          Printf.sprintf
            {|{"exp":"%s","version":%d,"scale":"%s","env":"%s","ok":%d,"failed":%d}|}
            (json_escape exp) v (json_escape scale) (json_escape env) ok fl)
        (per_group scan.Store.good)
    in
    let problems = List.map (fun m -> "\"" ^ json_escape m ^ "\"") scan.Store.problems in
    let last_run =
      match Store.read_last_run ~dir with
      | Some (h, m, f) -> Printf.sprintf {|{"hits":%d,"misses":%d,"failures":%d}|} h m f
      | None -> "null"
    in
    Printf.printf
      {|{"dir":"%s","records":%d,"journal_bytes":%d,"intact_bytes":%d,"problems":[%s],"groups":[%s],"last_run":%s}|}
      (json_escape dir)
      (List.length scan.Store.good)
      scan.Store.total_bytes scan.Store.good_bytes (String.concat "," problems)
      (String.concat "," groups) last_run;
    print_newline ()
  end
  else begin
    Printf.printf "store %s: %d records, journal %d bytes (%d intact)\n" dir
      (List.length scan.Store.good) scan.Store.total_bytes scan.Store.good_bytes;
    List.iter
      (fun m -> Printf.printf "  journal: %s\n" m)
      scan.Store.problems;
    List.iter
      (fun ((exp, v, scale, env), (ok, fl)) ->
        Printf.printf "  %-4s v%d %-5s %-6s %d ok%s\n" exp v scale env ok
          (if fl > 0 then Printf.sprintf ", %d failed" fl else ""))
      (per_group scan.Store.good);
    match Store.read_last_run ~dir with
    | Some (h, m, f) ->
      let total = h + m in
      let pct = if total = 0 then 0.0 else 100.0 *. float_of_int h /. float_of_int total in
      Printf.printf "last run: hits=%d misses=%d failed=%d (%.1f%% hits)\n" h m f pct
    | None -> ()
  end

let run_store_gc dir =
  let s = Store.open_ dir in
  let live = Rn_harness.All.versions in
  (* Must match the env the harness keys cells under (payload-format
     tag included), or gc would prune every live record. *)
  let env = Rn_harness.Harness.cell_env in
  let keep (r : Store.record_) =
    r.key.env = env
    && List.exists (fun (id, v) -> id = r.key.exp && v = r.key.code_version) live
  in
  let dropped = Store.gc s ~keep in
  Printf.printf "store %s: pruned %d stale records, kept %d\n" dir dropped (Store.count s);
  Store.close s

let run_store_verify dir =
  let path = Store.journal_path dir in
  let scan = Store.scan_file path in
  Printf.printf "store %s: %d records intact (%d/%d bytes)\n" dir
    (List.length scan.Store.good) scan.Store.good_bytes scan.Store.total_bytes;
  if scan.Store.problems <> [] then begin
    List.iter (fun m -> Printf.printf "  INTEGRITY: %s\n" m) scan.Store.problems;
    exit 1
  end

let store_json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON instead of text.")

let store_cmd =
  let sub name doc f =
    Cmd.v (Cmd.info name ~doc) Term.(const f $ store_dir_pos)
  in
  Cmd.group
    (Cmd.info "store" ~doc:"Inspect and maintain the experiment result store.")
    [
      Cmd.v
        (Cmd.info "stats"
           ~doc:"Record counts per experiment/version and last-run hit rates.")
        Term.(const run_store_stats $ store_dir_pos $ store_json_arg);
      sub "gc" "Prune records with a stale code_version or engine digest." run_store_gc;
      sub "verify" "Re-hash every journal record and check integrity." run_store_verify;
    ]

let list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List experiment ids.")
    Term.(
      const (fun () -> List.iter print_endline Rn_harness.All.ids) $ const ())

(* --- scenario command --- *)

let run_scenario_files files =
  List.iter
    (fun path ->
      Printf.printf "== %s ==\n" path;
      match Rn_harness.Scenario.run_file path with
      | report -> print_string (Rn_harness.Scenario.render report)
      | exception Rn_harness.Scenario.Scenario_error m ->
        Printf.eprintf "scenario error: %s\n" m;
        exit 1
      | exception Rn_util.Sexp.Parse_error { pos; message } ->
        Printf.eprintf "parse error at %d: %s\n" pos message;
        exit 1)
    files

let files_arg =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"Scenario files (.sexp).")

let scenario_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run declarative scenario files (see scenarios/*.sexp).")
    Term.(const run_scenario_files $ files_arg)

(* --- figures command --- *)

let run_figures out =
  let paths = Rn_harness.Figures.write_all out in
  List.iter (fun p -> Printf.printf "wrote %s\n" p) paths

let out_arg =
  Arg.(value & opt string "plots" & info [ "out" ] ~doc:"Output directory for SVG figures.")

let figures_cmd =
  Cmd.v
    (Cmd.info "figures" ~doc:"Render the scaling figures (F1-F4) as SVG files.")
    Term.(const run_figures $ out_arg)

(* --- scale command --- *)

let run_scale full out sizes resume_shards adversary check =
  let scale = if full then Rn_harness.Harness.Full else Rn_harness.Harness.Quick in
  if resume_shards < 1 then begin
    Printf.eprintf "rn_cli scale: --resume-shards must be >= 1\n";
    exit 2
  end;
  let sizes =
    match sizes with
    | None -> None
    | Some csv -> (
      match
        List.map
          (fun s ->
            let v = int_of_string (String.trim s) in
            if v < 2 then failwith "too small";
            v)
          (String.split_on_char ',' csv)
      with
      | l -> Some l
      | exception _ ->
        Printf.eprintf "rn_cli scale: bad --sizes %S (want a CSV of ints >= 2)\n" csv;
        exit 2)
  in
  Rn_harness.Harness.print
    (Rn_harness.Exp_scale.run ?out ?sizes ~resume_shards ~adversary ~check scale)

let scale_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR" ~doc:"Also write the S1 log-log figure (SVG) into DIR.")

let scale_sizes_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "sizes" ] ~docv:"CSV"
        ~doc:"Override the size grid with a comma-separated list of n values.")

let scale_resume_shards_arg =
  Arg.(
    value & opt int 1
    & info [ "resume-shards" ] ~docv:"N"
        ~doc:
          "Step each round's fiber resume in N slices on N domains (rounds with at \
           least 1024 fibers to step). Results are byte-identical at any shard count.")

let scale_adversary_arg =
  Arg.(
    value
    & opt adversary_conv (Rn_sim.Adversary.bernoulli 0.5)
    & info [ "adversary" ]
        ~doc:
          "Gray-edge policy for the beacon workload: \
           silent|all|spiteful|jamming|bernoulli:P|harassing:P.")

let scale_check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Print only the deterministic columns (counts, no timings), suitable for \
           byte-comparison across --resume-shards settings.")

let scale_cmd =
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Wall-clock scaling sweep (S1): world-generation time and beacon-workload \
          round throughput vs n, with fitted exponents. Quick stops at n=8192; --full \
          goes to n=1048576. Timings are machine-dependent, so this never touches the \
          result store.")
    Term.(
      const run_scale $ full_arg $ scale_out_arg $ scale_sizes_arg
      $ scale_resume_shards_arg $ scale_adversary_arg $ scale_check_arg)

(* --- graph command --- *)

let run_graph_stats file =
  let t0 = Unix.gettimeofday () in
  let scenario =
    match Rn_harness.Scenario.parse (Rn_util.Sexp.parse_file file) with
    | s -> s
    | exception Rn_harness.Scenario.Scenario_error m ->
      Printf.eprintf "scenario error: %s\n" m;
      exit 1
    | exception Rn_util.Sexp.Parse_error { pos; message } ->
      Printf.eprintf "parse error at %d: %s\n" pos message;
      exit 1
  in
  let dual = Rn_harness.Scenario.build_network scenario in
  let build_s = Unix.gettimeofday () -. t0 in
  let n = Dual.n dual in
  let g = Dual.g dual and g' = Dual.g' dual in
  let m = Rn_graph.Graph.edge_count g and m' = Rn_graph.Graph.edge_count g' in
  let gray = Dual.gray_count dual in
  Printf.printf "%s: n=%d |E|=%d |E'|=%d gray=%d (%.1f%% of E')\n" file n m m' gray
    (if m' = 0 then 0.0 else 100.0 *. float_of_int gray /. float_of_int m');
  Printf.printf "degree: G max=%d mean=%.1f, G' max=%d mean=%.1f\n" (Dual.max_degree_g dual)
    (if n = 0 then 0.0 else 2.0 *. float_of_int m /. float_of_int n)
    (Dual.max_degree_g' dual)
    (if n = 0 then 0.0 else 2.0 *. float_of_int m' /. float_of_int n);
  (* Degree histogram over G in the metrics registry's bucket geometry,
     so the shapes are comparable across tools. *)
  let hist =
    Rn_util.Metrics.hist_of_values
      (List.init n (fun v -> Rn_graph.Graph.degree g v))
  in
  Printf.printf "G degree histogram (bucket upper bound: count):\n";
  List.iter (fun (ub, c) -> Printf.printf "  <=%-6d %d\n" ub c) hist.Rn_util.Metrics.buckets;
  (match Dual.positions dual with
  | Some _ -> Printf.printf "embedding: geometric, d=%.2f\n" (Dual.d dual)
  | None -> Printf.printf "embedding: none\n");
  Printf.printf "build time: %.3fs\n" build_s

let scenario_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Scenario file (.sexp) naming the network to build.")

let graph_cmd =
  Cmd.group (Cmd.info "graph" ~doc:"Inspect network instances without running anything.")
    [
      Cmd.v
        (Cmd.info "stats"
           ~doc:
             "Build the network of a scenario file and print its size, degree \
              distribution, gray fraction, and build time.")
        Term.(const run_graph_stats $ scenario_file_arg);
    ]

(* --- broadcast command --- *)

let run_broadcast n degree seed adversary protocol =
  let dual, det = build_instance ~seed ~n ~degree ~tau:0 in
  let proto, rounds =
    match protocol with
    | `Flood -> (Rn_broadcast.Broadcast.Flood 0.1, 12 * n)
    | `Decay -> (Rn_broadcast.Broadcast.Decay (2 * Rn_util.Ilog.log2_up n), 12 * n)
    | `Round_robin ->
      (Rn_broadcast.Broadcast.Round_robin, Rn_broadcast.Broadcast.round_robin_budget dual ~source:0)
    | `Backbone ->
      let ccds = Core.Ccds.run ~seed ~adversary ~detector:(Detector.static det) dual in
      let bb = Array.map (fun o -> o = Some 1) ccds.R.outputs in
      (Rn_broadcast.Broadcast.Backbone { relay = (fun v -> bb.(v)); p = 0.1 }, 12 * n)
  in
  let r = Rn_broadcast.Broadcast.run ~adversary ~seed ~protocol:proto ~source:0 ~rounds dual in
  Printf.printf "coverage=%d/%d transmissions=%d bits=%d rounds=%d\n" r.coverage n r.sends
    r.bits_sent r.rounds

let protocol_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("flood", `Flood);
             ("decay", `Decay);
             ("round-robin", `Round_robin);
             ("backbone", `Backbone);
           ])
        `Flood
    & info [ "protocol" ] ~doc:"flood | decay | round-robin | backbone.")

let broadcast_cmd =
  Cmd.v
    (Cmd.info "broadcast" ~doc:"Disseminate a token from node 0 and report coverage/cost.")
    Term.(const run_broadcast $ n_arg $ degree_arg $ seed_arg $ adversary_arg $ protocol_arg)

(* --- repair command --- *)

let run_repair n degree seed adversary orphans =
  let dual, det0 = build_instance ~seed ~n ~degree ~tau:0 in
  let build = Core.Ccds.run ~seed ~adversary ~detector:(Detector.static det0) dual in
  let old_outputs = build.R.outputs in
  let old_masters =
    Array.map
      (function Some (o : Core.Ccds.outcome) -> o.mis_neighbors | None -> [])
      build.R.returns
  in
  let old_dominators =
    Array.map (function Some (o : Core.Ccds.outcome) -> o.in_mis | None -> false) build.R.returns
  in
  (* orphan up to [orphans] covered processes *)
  let current = ref dual and count = ref 0 in
  Array.iteri
    (fun v o ->
      if !count < orphans && o = Some 0 && old_masters.(v) <> [] then begin
        let candidate =
          Dual.demote_edges !current (List.map (fun m -> (v, m)) old_masters.(v))
        in
        if Rn_graph.Algo.is_connected (Dual.g candidate) then begin
          current := candidate;
          incr count
        end
      end)
    old_outputs;
  let dual1 = !current in
  Printf.printf "demoted the master links of %d processes\n" !count;
  let det1 = Detector.perfect (Dual.g dual1) in
  let rep =
    Core.Repair.run ~seed:(seed + 1) ~adversary ~detector:(Detector.static det1) ~old_outputs
      ~old_dominators ~old_masters dual1
  in
  summarize_engine "repair" (rep.R.rounds, rep.R.stats, rep.R.timed_out);
  Printf.printf "churn: %.1f%%\n"
    (100.0 *. Core.Repair.churn ~before:old_outputs ~after:rep.R.outputs);
  print_ccds_report dual1 det1 rep.R.outputs

let orphans_arg =
  Arg.(value & opt int 3 & info [ "orphans" ] ~doc:"Covered processes to orphan.")

let repair_cmd =
  Cmd.v
    (Cmd.info "repair"
       ~doc:"Build a CCDS, degrade some links, and run the localized repair protocol.")
    Term.(const run_repair $ n_arg $ degree_arg $ seed_arg $ adversary_arg $ orphans_arg)

(* --- trace cell: re-run one sweep cell under an Events sink --- *)

(* The rest of the sweep replays warm from the store while the target
   cell is recomputed under an ambient sink (Harness.set_trace_target);
   determinism makes that re-run faithful to the original compute, so
   two runs against one store print byte-identical Chrome traces. *)
let run_trace_cell exp coord full store_dir out =
  if Rn_harness.All.find exp = None then begin
    Printf.eprintf "rn_cli: unknown experiment %s (known: %s)\n" exp
      (String.concat ", " Rn_harness.All.ids);
    exit 1
  end;
  let scale = if full then Rn_harness.Harness.Full else Rn_harness.Harness.Quick in
  let store = Store.open_ store_dir in
  let data =
    Fun.protect
      ~finally:(fun () ->
        Rn_harness.Harness.clear_trace_target ();
        Rn_harness.Harness.clear_store ();
        Store.close store)
      (fun () ->
        Rn_harness.Harness.set_store store;
        Rn_harness.Harness.set_jobs 1;
        Rn_harness.Harness.set_trace_target ~exp ~coord ();
        (match Rn_harness.All.find exp with
        | Some f -> (
          match f scale with
          | _ -> ()
          | exception Rn_harness.Harness.Cell_failed _ -> ())
        | None -> ());
        match Rn_harness.Harness.take_trace_events () with
        | Some evs -> Rn_sim.Events.to_chrome evs
        | None ->
          Printf.eprintf "rn_cli: no cell %s in %s @%s\n" coord exp
            (if full then "full" else "quick");
          exit 1)
  in
  match out with
  | None ->
    print_string data;
    flush stdout
  | Some path ->
    Out_channel.with_open_bin path (fun oc -> output_string oc data);
    Printf.eprintf "trace: wrote %d bytes to %s\n" (String.length data) path

let trace_exp_pos =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"EXP" ~doc:"Experiment id (see 'rn_cli list').")

let trace_coord_pos =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"COORD"
        ~doc:
          "Cell coordinate as printed in slowest.txt, e.g. \"n=256,seed=1\" — the label's \
           last /-separated component.")

let trace_out_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Write the Chrome trace here (default: stdout).")

let trace_cell_cmd =
  Cmd.v
    (Cmd.info "cell"
       ~doc:
         "Re-run one experiment sweep cell with event tracing and emit its Chrome trace \
          (loads in Perfetto). The rest of the sweep replays warm from the store; the \
          target cell is recomputed under the sink, byte-faithful to the original run.")
    Term.(
      const run_trace_cell $ trace_exp_pos $ trace_coord_pos $ full_arg $ store_arg
      $ trace_out_file_arg)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace" ~doc:"Structured event tracing: record and query engine event traces.")
    [ trace_run_cmd; trace_inspect_cmd; trace_cell_cmd ]

let main =
  Cmd.group
    (Cmd.info "rn_cli" ~version:"1.0.0"
       ~doc:"Dual graph radio network algorithms (Censor-Hillel et al., PODC 2011).")
    [
      mis_cmd; ccds_cmd; bridge_cmd; experiment_cmd; list_cmd; figures_cmd; broadcast_cmd;
      repair_cmd; scenario_cmd; store_cmd; trace_cmd; scale_cmd; graph_cmd;
    ]

let () = exit (Cmd.eval main)

(* Tests for the experiment harness plumbing. *)

module Harness = Rn_harness.Harness
module All = Rn_harness.All

let test_ids_unique () =
  let ids = All.ids in
  Alcotest.check Alcotest.int "no duplicates"
    (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_find () =
  Alcotest.(check bool) "finds E1" true (All.find "E1" <> None);
  Alcotest.(check bool) "case-insensitive" true (All.find "e4A" <> None);
  Alcotest.(check bool) "unknown" true (All.find "nope" = None)

let test_geometric_deterministic () =
  let a = Harness.geometric ~seed:3 ~n:30 ~degree:6 () in
  let b = Harness.geometric ~seed:3 ~n:30 ~degree:6 () in
  Alcotest.(check bool) "same instance" true
    (Rn_graph.Graph.edges (Rn_graph.Dual.g a) = Rn_graph.Graph.edges (Rn_graph.Dual.g b))

let test_success_rate () =
  Alcotest.check (Alcotest.float 1e-9) "empty" 0.0 (Harness.success_rate []);
  Alcotest.check (Alcotest.float 1e-9) "half" 0.5 (Harness.success_rate [ true; false ]);
  Alcotest.check (Alcotest.float 1e-9) "all" 1.0 (Harness.success_rate [ true; true ])

let test_render () =
  let r =
    {
      Harness.id = "X";
      title = "t";
      body = "body\n";
      notes = [ "note1"; "note2" ];
    }
  in
  let s = Harness.render r in
  Alcotest.(check bool) "has id" true (String.length s > 0);
  Alcotest.(check bool) "has notes" true
    (List.exists (fun l -> l = "  . note1") (String.split_on_char '\n' s))

(* Smoke-run two cheap experiments end to end (the full sweep is the
   bench's job). *)
let test_experiment_smoke () =
  List.iter
    (fun id ->
      match All.find id with
      | Some f ->
        let r = f Harness.Quick in
        Alcotest.(check bool) (id ^ " rendered") true (String.length r.body > 0)
      | None -> Alcotest.fail ("missing " ^ id))
    [ "E4a"; "E8b" ]

(* `rn_cli trace cell`: against a warm store, the target cell is
   recomputed under an ambient sink while the rest of the sweep replays.
   The capture must be non-empty and repeatable, the table must equal the
   cold one, and the journal must gain no record. *)
let test_trace_cell () =
  let module Store = Rn_util.Store in
  let dir = Filename.temp_file "rn_trace_cell_test" "" in
  Sys.remove dir;
  let store = Store.open_ ~fsync:false dir in
  let e5 () =
    match All.find "E5" with
    | Some f -> Harness.render (f Harness.Quick)
    | None -> Alcotest.fail "E5 not registered"
  in
  let records () = List.length (Store.scan_file (Store.journal_path dir)).Store.good in
  Fun.protect
    ~finally:(fun () ->
      Harness.clear_trace_target ();
      Harness.clear_store ();
      Harness.reset_store_counters ();
      Harness.set_jobs 1;
      Store.close store)
    (fun () ->
      Harness.set_store store;
      Harness.set_jobs 1;
      let cold = e5 () in
      let before = records () in
      Alcotest.(check bool) "cold sweep journalled cells" true (before > 0);
      let coord =
        match (Store.scan_file (Store.journal_path dir)).Store.good with
        | r :: _ -> r.Store.key.Store.coord
        | [] -> Alcotest.fail "store is empty"
      in
      let traced () =
        Harness.set_trace_target ~exp:"E5" ~coord ();
        let table = e5 () in
        Harness.clear_trace_target ();
        match Harness.take_trace_events () with
        | Some evs -> (table, evs)
        | None -> Alcotest.fail "target cell was not traced"
      in
      let table1, evs1 = traced () in
      let table2, evs2 = traced () in
      Alcotest.(check bool) "captured events are non-empty" true (evs1 <> []);
      Alcotest.(check string)
        "two runs capture identical events" (Rn_sim.Events.to_chrome evs1)
        (Rn_sim.Events.to_chrome evs2);
      Alcotest.(check string) "traced table = cold table" cold table1;
      Alcotest.(check string) "second traced table = cold table" cold table2;
      Alcotest.(check int) "journal gains no record" before (records ()))

(* One size is a valid grid: the table renders and the exponent notes,
   which need two points to fit, are left out. *)
let test_scale_single_size () =
  let r = Rn_harness.Exp_scale.run ~sizes:[ 256 ] Harness.Quick in
  Alcotest.(check string) "id" "S1" r.Harness.id;
  Alcotest.(check bool) "rendered" true (String.length r.Harness.body > 0);
  let fitted n =
    String.starts_with ~prefix:"world-gen seconds" n
    || String.starts_with ~prefix:"per-round seconds" n
  in
  Alcotest.(check bool) "no exponent notes" false (List.exists fitted r.Harness.notes);
  (* the memory columns show in the timed table only: check mode's
     table is pinned byte for byte by scale_smoke.sh *)
  let contains s sub =
    let k = String.length sub in
    let rec go i = i + k <= String.length s && (String.sub s i k = sub || go (i + 1)) in
    go 0
  in
  let check_mode = Rn_harness.Exp_scale.run ~sizes:[ 256 ] ~check:true Harness.Quick in
  List.iter
    (fun col ->
      Alcotest.(check bool) (col ^ " column") true (contains r.Harness.body col);
      Alcotest.(check bool) (col ^ " not in check mode") false
        (contains check_mode.Harness.body col))
    [ "world MB"; "minor GCs"; "promoted Mw"; "VmHWM MB" ]

let () =
  Alcotest.run "harness"
    [
      ( "harness",
        [
          Alcotest.test_case "ids unique" `Quick test_ids_unique;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "geometric deterministic" `Quick test_geometric_deterministic;
          Alcotest.test_case "success rate" `Quick test_success_rate;
          Alcotest.test_case "render" `Quick test_render;
          Alcotest.test_case "experiment smoke" `Slow test_experiment_smoke;
          Alcotest.test_case "trace cell" `Quick test_trace_cell;
          Alcotest.test_case "scale with one size" `Quick test_scale_single_size;
        ] );
    ]

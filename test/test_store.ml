(* Tests for the crash-safe result store and the harness checkpointing
   layer built on it: record codec round-trips, journal truncation at
   every byte offset, cached-vs-fresh sweep equality at jobs 1 and 4,
   the retry/timeout failure paths, and gc/verify behaviour. Two handles
   sharing one journal are covered in test_store_multiproc.ml. *)

module Store = Rn_util.Store
module Harness = Rn_harness.Harness
module All = Rn_harness.All

let qtest = QCheck_alcotest.to_alcotest

(* --- scratch directories --- *)

let tmpdir () =
  let d = Filename.temp_file "rn_store_test" "" in
  Sys.remove d;
  d

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Every store/harness test resets the global store configuration on the
   way out, so suites stay independent. *)
let with_store ?retry ?timeout f =
  let dir = tmpdir () in
  let s = Store.open_ ~fsync:false dir in
  Harness.set_store ?retry ?timeout s;
  Fun.protect
    ~finally:(fun () ->
      Harness.clear_store ();
      Harness.reset_store_counters ();
      Store.close s)
    (fun () -> f dir s)

(* --- record codec --- *)

let key ?(exp = "EX") ?(scale = "quick") ?(ver = 1) ?(env = "eng") coord =
  { Store.exp; scale; coord; code_version = ver; env }

let qcheck_codec_roundtrip =
  let gen =
    QCheck.Gen.(
      let word = string_size ~gen:printable (int_range 1 12) in
      tup5 word word (int_range 0 99) word (string_size (int_range 0 64)))
  in
  QCheck.Test.make ~name:"record codec round-trips (incl. binary payloads)" ~count:200
    (QCheck.make gen) (fun (exp, scale, ver, coord, payload) ->
      let k = { Store.exp; scale; coord; code_version = ver; env = "eng3" } in
      let status = if String.length payload mod 2 = 0 then Store.Done else Store.Failed in
      let r = { Store.key = k; status; payload } in
      match Store.decode_record (Store.encode_record r) with
      | Some r' ->
        r'.Store.payload = payload && r'.Store.status = status
        && Store.key_id r'.Store.key = Store.key_id k
      | None -> false)

let test_codec_rejects_corruption () =
  let r = { Store.key = key "b0.c0"; status = Store.Done; payload = "hello\nworld()" } in
  let line = Store.encode_record r in
  Alcotest.(check bool) "intact decodes" true (Store.decode_record line <> None);
  (* Flip one character at every position: a flipped record either fails
     to decode or — when the flip only mangles framing whitespace into a
     junk atom the codec ignores — decodes to the exact same data.  No
     flip may ever silently yield *different* data. *)
  let lied = ref 0 in
  String.iteri
    (fun i c ->
      if c <> '\n' then begin
        let b = Bytes.of_string line in
        Bytes.set b i (if c = 'z' then 'y' else 'z');
        match Store.decode_record (Bytes.to_string b) with
        | None -> ()
        | Some r' ->
          if
            r'.Store.payload <> r.Store.payload
            || r'.Store.status <> r.Store.status
            || Store.key_id r'.Store.key <> Store.key_id r.Store.key
          then incr lied
      end)
    line;
  Alcotest.(check int) "no flip yields different data" 0 !lied

(* --- journal crash-safety: truncate at every byte offset --- *)

let test_truncation_every_offset () =
  let dir = tmpdir () in
  let s = Store.open_ ~fsync:false dir in
  let payloads = List.init 6 (fun i -> Printf.sprintf "payload-%d-\x00\xff" i) in
  List.iteri
    (fun i p -> Store.put s (key (Printf.sprintf "b0.c%d" i)) Store.Done p)
    payloads;
  Store.close s;
  let path = Store.journal_path dir in
  let full = read_file path in
  let n = String.length full in
  (* record end offsets, from the line structure of the journal *)
  let ends = ref [] in
  String.iteri (fun i c -> if c = '\n' then ends := (i + 1) :: !ends) full;
  let ends = List.rev !ends in
  let header_end = List.hd ends in
  let record_ends = List.tl ends in
  Alcotest.(check int) "six records" 6 (List.length record_ends);
  for cut = 0 to n do
    write_file path (String.sub full 0 cut);
    let scan = Store.scan_file path in
    let expected =
      if cut < header_end then 0
      else List.length (List.filter (fun e -> e <= cut) record_ends)
    in
    Alcotest.(check int) (Printf.sprintf "records after cut at %d" cut) expected
      (List.length scan.Store.good);
    (* every surviving record is bit-for-bit intact *)
    List.iteri
      (fun i r ->
        Alcotest.(check string)
          (Printf.sprintf "payload %d intact (cut %d)" i cut)
          (List.nth payloads i) r.Store.payload)
      scan.Store.good;
    (* reopening repairs the tail and keeps exactly the intact prefix *)
    let s = Store.open_ ~fsync:false dir in
    Alcotest.(check int) "reopen count" expected (Store.count s);
    Store.close s
  done

(* A write that failed part-way (ENOSPC, EIO) or a writer that died
   mid-line leaves a partial line at the journal's end, under a handle
   that stays open.  The next [put] must cut it off before appending:
   otherwise its record merges into the partial line, and a reopen drops
   that record and every one after it.  The cell whose write failed is
   absent, so a later run recomputes it. *)
let test_put_after_torn_tail () =
  let dir = tmpdir () in
  let s = Store.open_ ~fsync:false dir in
  Store.put s (key "b0.before") Store.Done "kept";
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 (Store.journal_path dir)
  in
  output_string oc "(rec (torn";
  close_out oc;
  Store.put s (key "b0.first") Store.Done "one";
  Store.put s (key "b0.second") Store.Done "two";
  Store.close s;
  let s = Store.open_ ~fsync:false dir in
  List.iter
    (fun (coord, payload) ->
      Alcotest.(check (option string)) coord (Some payload) (Store.find s (key coord)))
    [ ("b0.before", "kept"); ("b0.first", "one"); ("b0.second", "two") ];
  Alcotest.(check int) "no tail to repair" 0 (Store.recovered_bytes s);
  Store.close s

(* --- cached-vs-fresh sweeps on a real experiment --- *)

let run_e5 () =
  match All.find "E5" with Some f -> f Harness.Quick | None -> assert false

let test_cached_sweep jobs () =
  Harness.set_jobs jobs;
  Fun.protect
    ~finally:(fun () -> Harness.set_jobs 1)
    (fun () ->
      Harness.clear_store ();
      let fresh = Harness.render (run_e5 ()) in
      with_store (fun _dir _s ->
          Harness.reset_store_counters ();
          let cold = Harness.render (run_e5 ()) in
          let _, cold_misses, _ = Harness.store_counters () in
          Harness.reset_store_counters ();
          let warm = Harness.render (run_e5 ()) in
          let warm_hits, warm_misses, _ = Harness.store_counters () in
          Alcotest.(check string) "cold = fresh" fresh cold;
          Alcotest.(check string) "warm = fresh" fresh warm;
          Alcotest.(check bool) "cold run computed cells" true (cold_misses > 0);
          Alcotest.(check int) "warm run replays everything" cold_misses warm_hits;
          Alcotest.(check int) "warm run computes nothing" 0 warm_misses))

let test_kill_and_resume () =
  Harness.set_jobs 1;
  Harness.clear_store ();
  let fresh = Harness.render (run_e5 ()) in
  with_store (fun dir s ->
      let cold = Harness.render (run_e5 ()) in
      Alcotest.(check string) "cold = fresh" fresh cold;
      (* simulate a SIGKILL mid-sweep: chop the journal mid-record *)
      Harness.clear_store ();
      Store.close s;
      let path = Store.journal_path dir in
      let full = read_file path in
      write_file path (String.sub full 0 (String.length full * 3 / 5));
      let s2 = Store.open_ ~fsync:false dir in
      Alcotest.(check bool) "tail was dropped" true (Store.recovered_bytes s2 > 0);
      Harness.set_store s2;
      Fun.protect
        ~finally:(fun () -> Store.close s2)
        (fun () ->
          Harness.reset_store_counters ();
          let resumed = Harness.render (run_e5 ()) in
          let hits, misses, _ = Harness.store_counters () in
          Alcotest.(check string) "resumed = fresh" fresh resumed;
          Alcotest.(check bool) "some cells replayed" true (hits > 0);
          Alcotest.(check bool) "some cells recomputed" true (misses > 0)))

(* --- retry, failure, and timeout paths --- *)

let test_retry_recovers () =
  with_store ~retry:1 (fun _dir _s ->
      Harness.begin_experiment ~id:"TSTRETRY" ~scale:Harness.Quick ~version:1;
      let attempts = Atomic.make 0 in
      let out =
        Harness.run_cells ~jobs:1
          (fun i ->
            if i = 2 && Atomic.fetch_and_add attempts 1 = 0 then failwith "flaky";
            i * 10)
          [ 0; 1; 2; 3 ]
      in
      Alcotest.(check (list int)) "values" [ 0; 10; 20; 30 ] out;
      let _, misses, failures = Harness.store_counters () in
      Alcotest.(check int) "all cells stored" 4 misses;
      Alcotest.(check int) "no failures recorded" 0 failures)

let test_failure_is_resumable () =
  with_store (fun _dir s ->
      Harness.begin_experiment ~id:"TSTFAIL" ~scale:Harness.Quick ~version:1;
      (match
         Harness.run_cells ~jobs:1 (fun i -> if i = 1 then failwith "boom" else i) [ 0; 1; 2 ]
       with
      | _ -> Alcotest.fail "expected Cell_failed"
      | exception Harness.Cell_failed { exp; failed; total } ->
        Alcotest.(check string) "exp" "TSTFAIL" exp;
        Alcotest.(check int) "failed" 1 failed;
        Alcotest.(check int) "total" 3 total);
      (* the failed cell is recorded but not replayable *)
      let k = { Store.exp = "TSTFAIL"; scale = "quick"; coord = "b0.c1";
                code_version = 1; env = Harness.cell_env } in
      Alcotest.(check bool) "failure recorded" true (Store.find_failed s k <> None);
      Alcotest.(check bool) "failure is a cache miss" true (Store.find s k = None);
      (* a later run retries only the failed cell *)
      Harness.reset_store_counters ();
      Harness.begin_experiment ~id:"TSTFAIL" ~scale:Harness.Quick ~version:1;
      let out = Harness.run_cells ~jobs:1 (fun i -> i) [ 0; 1; 2 ] in
      Alcotest.(check (list int)) "resumed values" [ 0; 1; 2 ] out;
      let hits, misses, _ = Harness.store_counters () in
      Alcotest.(check int) "two cells replayed" 2 hits;
      Alcotest.(check int) "one cell recomputed" 1 misses)

let test_timeout_records_failure () =
  with_store ~timeout:0.0 (fun _dir _s ->
      Harness.begin_experiment ~id:"TSTTIME" ~scale:Harness.Quick ~version:1;
      match Harness.run_cells ~jobs:1 (fun i -> i) [ 0; 1 ] with
      | _ -> Alcotest.fail "expected Cell_failed"
      | exception Harness.Cell_failed { failed; total; _ } ->
        Alcotest.(check int) "every cell over budget" total failed);
  (* without the budget, the same cells compute and cache normally *)
  with_store (fun _dir _s ->
      Harness.begin_experiment ~id:"TSTTIME" ~scale:Harness.Quick ~version:1;
      let out = Harness.run_cells ~jobs:1 (fun i -> i) [ 0; 1 ] in
      Alcotest.(check (list int)) "values" [ 0; 1 ] out)

(* --- gc and verify --- *)

let test_gc_prunes_stale () =
  let dir = tmpdir () in
  let s = Store.open_ ~fsync:false dir in
  Store.put s (key ~ver:1 "b0.c0") Store.Done "old";
  Store.put s (key ~ver:1 "b0.c1") Store.Done "old";
  Store.put s (key ~ver:2 "b0.c0") Store.Done "new";
  Store.put s (key ~ver:2 ~exp:"EY" "b0.c0") Store.Failed "err";
  let dropped = Store.gc s ~keep:(fun r -> r.Store.key.Store.code_version = 2) in
  Alcotest.(check int) "dropped" 2 dropped;
  Alcotest.(check int) "kept" 2 (Store.count s);
  Alcotest.(check bool) "stale gone" true (Store.find s (key ~ver:1 "b0.c0") = None);
  Alcotest.(check (option string)) "live kept" (Some "new") (Store.find s (key ~ver:2 "b0.c0"));
  (* the rewritten journal is intact and survives a reopen *)
  Store.close s;
  let scan = Store.scan_file (Store.journal_path dir) in
  Alcotest.(check (list string)) "no problems" [] scan.Store.problems;
  Alcotest.(check int) "reload" 2 (List.length scan.Store.good)

let test_verify_detects_corruption () =
  let dir = tmpdir () in
  let s = Store.open_ ~fsync:false dir in
  for i = 0 to 4 do
    Store.put s (key (Printf.sprintf "b0.c%d" i)) Store.Done (string_of_int i)
  done;
  Store.close s;
  let path = Store.journal_path dir in
  let scan = Store.scan_file path in
  Alcotest.(check (list string)) "clean journal verifies" [] scan.Store.problems;
  (* corrupt one byte in the middle: the scan must stop there *)
  let full = read_file path in
  let b = Bytes.of_string full in
  let mid = String.length full / 2 in
  Bytes.set b mid (if Bytes.get b mid = 'a' then 'b' else 'a');
  write_file path (Bytes.to_string b);
  let scan = Store.scan_file path in
  Alcotest.(check bool) "corruption reported" true (scan.Store.problems <> []);
  Alcotest.(check bool) "prefix survives" true
    (List.length scan.Store.good < 5 && scan.Store.good_bytes < String.length full)

let test_last_run_sidecar () =
  let dir = tmpdir () in
  Store.write_last_run ~dir ~hits:12 ~misses:3 ~failures:1;
  Alcotest.(check bool) "round-trips" true (Store.read_last_run ~dir = Some (12, 3, 1));
  Store.write_last_run ~dir ~hits:0 ~misses:0 ~failures:0;
  Alcotest.(check bool) "overwrites" true (Store.read_last_run ~dir = Some (0, 0, 0))

let () =
  Alcotest.run "store"
    [
      ( "codec",
        [
          qtest qcheck_codec_roundtrip;
          Alcotest.test_case "rejects corruption" `Quick test_codec_rejects_corruption;
        ] );
      ( "crash-safety",
        [
          Alcotest.test_case "truncation at every byte offset" `Quick
            test_truncation_every_offset;
          Alcotest.test_case "kill mid-sweep and resume" `Slow test_kill_and_resume;
          Alcotest.test_case "put after a torn tail" `Quick test_put_after_torn_tail;
        ] );
      ( "cached-sweeps",
        [
          Alcotest.test_case "cached = fresh (jobs 1)" `Slow (test_cached_sweep 1);
          Alcotest.test_case "cached = fresh (jobs 4)" `Slow (test_cached_sweep 4);
        ] );
      ( "failure-paths",
        [
          Alcotest.test_case "retry recovers a flaky cell" `Quick test_retry_recovers;
          Alcotest.test_case "failed cells are resumable" `Quick test_failure_is_resumable;
          Alcotest.test_case "timeout records failure" `Quick test_timeout_records_failure;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "gc prunes stale versions" `Quick test_gc_prunes_stale;
          Alcotest.test_case "verify detects corruption" `Quick test_verify_detects_corruption;
          Alcotest.test_case "last-run sidecar" `Quick test_last_run_sidecar;
        ] );
    ]

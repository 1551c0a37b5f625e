(* Tests for several [Store] handles on one store directory, as when two
   `rn_cli experiment` processes share a store: appends from either
   handle land in one intact journal, [refresh] picks up a peer's
   appends, and a peer's gc rewrite is detected on the next append.

   Kept apart from test_store.ml so the group name does not widen that
   suite's output columns. *)

module Store = Rn_util.Store

let tmpdir () =
  let d = Filename.temp_file "rn_store_test" "" in
  Sys.remove d;
  d

let key ?(exp = "EX") ?(scale = "quick") ?(ver = 1) ?(env = "eng") coord =
  { Store.exp; scale; coord; code_version = ver; env }

let test_store_refresh_sees_peer_appends () =
  let dir = tmpdir () in
  let a = Store.open_ ~fsync:false dir in
  let b = Store.open_ ~fsync:false dir in
  Store.put a (key "b0.c0") Store.Done "payload-a";
  Alcotest.(check (option string)) "b does not see it yet" None (Store.find b (key "b0.c0"));
  Alcotest.(check int) "refresh picks up one record" 1 (Store.refresh b);
  Alcotest.(check (option string))
    "b sees a's append" (Some "payload-a")
    (Store.find b (key "b0.c0"));
  Alcotest.(check int) "refresh is then a no-op" 0 (Store.refresh b);
  (* interleaved appends from both handles all land *)
  Store.put b (key "b0.c1") Store.Done "payload-b";
  Store.put a (key "b0.c2") Store.Done "payload-a2";
  ignore (Store.refresh a);
  ignore (Store.refresh b);
  Alcotest.(check int) "a indexes all three" 3 (Store.count a);
  Alcotest.(check int) "b indexes all three" 3 (Store.count b);
  let scan = Store.scan_file (Store.journal_path dir) in
  Alcotest.(check (list string)) "journal intact" [] scan.Store.problems;
  Store.close a;
  Store.close b

let test_store_survives_peer_gc () =
  let dir = tmpdir () in
  let a = Store.open_ ~fsync:false dir in
  let b = Store.open_ ~fsync:false dir in
  Store.put a (key "b0.c0") Store.Done "keep";
  Store.put a (key "b0.c1") Store.Failed "boom";
  ignore (Store.refresh b);
  (* a rewrites the journal (rename): b's fd now points at a dead inode *)
  let dropped = Store.gc a ~keep:(fun r -> r.Store.status = Store.Done) in
  Alcotest.(check int) "gc dropped the failure" 1 dropped;
  (* b's next append must detect the rotation and land in the new file *)
  Store.put b (key "b0.c2") Store.Done "post-gc";
  ignore (Store.refresh a);
  Alcotest.(check (option string))
    "a sees b's post-gc append" (Some "post-gc")
    (Store.find a (key "b0.c2"));
  ignore (Store.refresh b);
  Alcotest.(check (option string))
    "b rescans the rewritten journal" (Some "keep")
    (Store.find b (key "b0.c0"));
  Alcotest.(check (option string)) "gc'd record is gone" None (Store.find_failed b (key "b0.c1"));
  let scan = Store.scan_file (Store.journal_path dir) in
  Alcotest.(check (list string)) "journal intact" [] scan.Store.problems;
  Alcotest.(check int) "two live records" 2 (List.length scan.Store.good);
  Store.close a;
  Store.close b

let () =
  Alcotest.run "store-multiproc"
    [
      ( "store-multiproc",
        [
          Alcotest.test_case "refresh sees peer appends" `Quick test_store_refresh_sees_peer_appends;
          Alcotest.test_case "appends survive peer gc" `Quick test_store_survives_peer_gc;
        ] );
    ]

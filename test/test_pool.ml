(* Tests for the domain pool and the harness's parallel-sweep guarantee:
   order preservation, exception propagation, jobs:1 = List.map, and the
   qcheck property that a parallel experiment cell sweep equals the
   sequential one table-for-table. *)

module Pool = Rn_util.Pool
module Rng = Rn_util.Rng
module Harness = Rn_harness.Harness

let test_order_preserved () =
  let xs = List.init 100 Fun.id in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        (List.map (fun x -> (x * x) + 1) xs)
        (Pool.map ~jobs (fun x -> (x * x) + 1) xs))
    [ 1; 2; 3; 4; 8; 200 ]

let test_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.map ~jobs:4 (fun x -> x + 1) [ 6 ])

let test_jobs1_is_list_map () =
  (* jobs:1 must evaluate sequentially in the calling domain, in input
     order — observable through side effects. *)
  let seen = ref [] in
  let out = Pool.map ~jobs:1 (fun x -> seen := x :: !seen; x) [ 1; 2; 3; 4 ] in
  Alcotest.(check (list int)) "results" [ 1; 2; 3; 4 ] out;
  Alcotest.(check (list int)) "evaluation order" [ 4; 3; 2; 1 ] !seen

exception Boom of int

let test_exception_propagation () =
  List.iter
    (fun jobs ->
      let raised =
        try
          ignore (Pool.map ~jobs (fun x -> if x = 37 then raise (Boom x) else x) (List.init 64 Fun.id));
          None
        with Boom x -> Some x
      in
      Alcotest.(check (option int)) (Printf.sprintf "jobs=%d" jobs) (Some 37) raised)
    [ 1; 2; 4 ]

let test_exception_pool_reusable_after_map () =
  (* a failed transient map must not leave domains stuck *)
  (try ignore (Pool.map ~jobs:3 (fun _ -> failwith "die") [ 1; 2; 3; 4; 5 ]) with _ -> ());
  Alcotest.(check (list int)) "next map fine" [ 2; 4; 6 ]
    (Pool.map ~jobs:3 (fun x -> 2 * x) [ 1; 2; 3 ])

let test_persistent_pool () =
  let p = Pool.create ~jobs:3 in
  Alcotest.(check int) "size" 3 (Pool.size p);
  Alcotest.(check (list int)) "batch 1" [ 1; 4; 9 ] (Pool.run p (fun x -> x * x) [ 1; 2; 3 ]);
  Alcotest.(check (list string))
    "batch 2" [ "0"; "1"; "2" ]
    (Pool.run p string_of_int [ 0; 1; 2 ]);
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Pool.run: pool is shut down") (fun () ->
      ignore (Pool.run p Fun.id [ 1 ]))

(* Index 1 raises first in time, index 0 only after it (an Atomic
   handshake, spun on with a bound so a one-core host cannot hang); both
   [run_n] and [run] must still raise index 0's failure, as [List.map]
   does. *)
let test_lowest_index_exception_wins () =
  let spin_until ready =
    let t0 = Rn_util.Timing.now () in
    while (not (ready ())) && Rn_util.Timing.now () -. t0 < 5.0 do
      Domain.cpu_relax ()
    done
  in
  let f raised i =
    if i = 1 then begin
      Atomic.set raised true;
      raise (Boom 1)
    end
    else begin
      spin_until (fun () -> Atomic.get raised);
      (* and a little longer, so index 1's failure is recorded first *)
      let t0 = Rn_util.Timing.now () in
      spin_until (fun () -> Rn_util.Timing.now () -. t0 > 0.02);
      raise (Boom 0)
    end
  in
  let p = Pool.create ~jobs:2 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      let raised_by g = try g (); None with Boom i -> Some i in
      Alcotest.(check (option int))
        "run_n" (Some 0)
        (raised_by (fun () -> Pool.run_n p (f (Atomic.make false)) 2));
      Alcotest.(check (option int))
        "run" (Some 0)
        (raised_by (fun () -> ignore (Pool.run p (f (Atomic.make false)) [ 0; 1 ])));
      Alcotest.(check (option int))
        "List.map" (Some 0)
        (raised_by (fun () -> ignore (List.map (f (Atomic.make true)) [ 0; 1 ]))))

(* A miniature experiment cell: deterministic in (seed, n), heavy enough
   to overlap across workers. *)
let cell (seed, n) =
  let rng = Rng.create (seed + (100 * n)) in
  let acc = ref 0 in
  for _ = 1 to 1000 do
    acc := !acc + Rng.int rng n
  done;
  !acc

let qcheck_parallel_equals_sequential =
  QCheck.Test.make ~name:"Pool.map jobs>1 = List.map on rng cells" ~count:30
    QCheck.(pair (int_range 2 8) (small_list (pair small_int (int_range 1 64))))
    (fun (jobs, cells) -> Pool.map ~jobs cell cells = List.map cell cells)

(* The tentpole guarantee, end to end: a real harness experiment renders
   the identical table no matter the jobs setting. *)
let test_experiment_tables_identical () =
  let render id scale jobs =
    Harness.set_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Harness.set_jobs 1)
      (fun () ->
        match Rn_harness.All.find id with
        | Some f -> Harness.render (f scale)
        | None -> Alcotest.fail ("missing " ^ id))
  in
  List.iter
    (fun id ->
      let seq = render id Harness.Quick 1 in
      let par = render id Harness.Quick 3 in
      Alcotest.(check string) (id ^ " table identical across jobs") seq par)
    [ "E4a"; "E8b" ]

let qcheck_sweep_equals_sequential =
  QCheck.Test.make ~name:"Harness.sweep parallel = sequential (grid x reps)" ~count:20
    QCheck.(pair (int_range 2 6) (small_list (int_range 1 32)))
    (fun (jobs, keys) ->
      let f k rep = cell (rep, k + 1) in
      Harness.sweep ~jobs keys ~reps:3 f = Harness.sweep ~jobs:1 keys ~reps:3 f)

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "order preserved" `Quick test_order_preserved;
          Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "jobs:1 is List.map" `Quick test_jobs1_is_list_map;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "reusable after failure" `Quick test_exception_pool_reusable_after_map;
          Alcotest.test_case "lowest-index exception wins" `Quick
            test_lowest_index_exception_wins;
          Alcotest.test_case "persistent pool" `Quick test_persistent_pool;
          QCheck_alcotest.to_alcotest qcheck_parallel_equals_sequential;
          QCheck_alcotest.to_alcotest qcheck_sweep_equals_sequential;
        ] );
      ( "harness-determinism",
        [ Alcotest.test_case "experiment tables identical" `Slow test_experiment_tables_identical ] );
    ]

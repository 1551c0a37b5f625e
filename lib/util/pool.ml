(* A fixed-size worker pool over OCaml 5 domains.

   Work items are closures in a queue guarded by a mutex; workers block on
   a condition variable when the queue is empty and exit once the pool is
   closed and drained.  Batches ([run]) track their own completion with a
   second mutex/condition pair, so several batches could share one pool.

   The design constraint that matters here is determinism: the harness
   promises that parallel and sequential sweeps produce identical tables,
   so the pool must not introduce any ordering dependence.  [map]/[run]
   write each cell's result into its input slot and only the *scheduling*
   is racy; a failed batch re-raises its lowest-index failure, as
   [List.map] would; and [~jobs:1] short-circuits to [List.map] before
   any domain machinery is touched. *)

let recommended_jobs ?(cap = 16) () =
  max 1 (min cap (Domain.recommended_domain_count () - 1))

type t = {
  size : int;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  has_work : Condition.t;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
}

let size t = t.size

let rec worker t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.closed do
    Condition.wait t.has_work t.mutex
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.mutex (* closed and drained *)
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    (* batch tasks catch their own exceptions; a raise here would mean a
       bug in the pool itself, and taking the domain down is the loudest
       available failure. *)
    task ();
    worker t
  end

let create ~jobs =
  let t =
    {
      size = max 1 jobs;
      queue = Queue.create ();
      mutex = Mutex.create ();
      has_work = Condition.create ();
      closed = false;
      domains = [];
    }
  in
  t.domains <- List.init t.size (fun _ -> Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  if t.closed then Mutex.unlock t.mutex
  else begin
    t.closed <- true;
    Condition.broadcast t.has_work;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.domains;
    t.domains <- []
  end

(* Per-batch completion state.  [b_error] is the failure with the lowest
   index seen so far: that is the one [List.map] (and the engine's scalar
   resume) would raise, so it is the one the batch re-raises whatever
   order the workers fail in. *)
type batch = {
  b_mutex : Mutex.t;
  b_done : Condition.t;
  mutable b_pending : int;
  mutable b_error : (int * exn * Printexc.raw_backtrace) option;
}

(* Apply [f] to every index 0..n-1 (n >= 1) on [t]'s workers and block to
   completion.  An index above a recorded failure is abandoned if it has
   not started; an index below it still runs, since it may fail too and
   then takes precedence. *)
let run_batch t ~what f n =
  let b =
    { b_mutex = Mutex.create (); b_done = Condition.create (); b_pending = n; b_error = None }
  in
  let failed_below i = match b.b_error with Some (j, _, _) -> j < i | None -> false in
  let task i () =
    let abandoned = Mutex.protect b.b_mutex (fun () -> failed_below i) in
    (if not abandoned then
       match f i with
       | () -> ()
       | exception e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.protect b.b_mutex (fun () ->
             if not (failed_below i) then b.b_error <- Some (i, e, bt)));
    Mutex.protect b.b_mutex (fun () ->
        b.b_pending <- b.b_pending - 1;
        if b.b_pending = 0 then Condition.broadcast b.b_done)
  in
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg (what ^ ": pool is shut down")
  end;
  for i = 0 to n - 1 do
    Queue.add (task i) t.queue
  done;
  Condition.broadcast t.has_work;
  Mutex.unlock t.mutex;
  Mutex.lock b.b_mutex;
  while b.b_pending > 0 do
    Condition.wait b.b_done b.b_mutex
  done;
  Mutex.unlock b.b_mutex;
  match b.b_error with
  | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let run t f xs =
  match xs with
  | [] -> []
  | _ ->
    let input = Array.of_list xs in
    let n = Array.length input in
    let results = Array.make n None in
    run_batch t ~what:"Pool.run" (fun i -> results.(i) <- Some (f input.(i))) n;
    Array.to_list (Array.map (function Some v -> v | None -> assert false) results)

(* [run_n t f n]: [run] specialised to the engine's pinned contiguous
   slices — apply [f] to each index 0..n-1 on the workers and block to
   completion, without building an id list or collecting results.  Same
   lowest-index exception contract as [run]. *)
let run_n t f n = if n = 1 then f 0 else if n > 1 then run_batch t ~what:"Pool.run_n" f n

let map ~jobs f xs =
  if jobs <= 1 then List.map f xs
  else
    match xs with
    | [] -> []
    | [ x ] -> [ f x ]
    | _ ->
      let t = create ~jobs:(min jobs (List.length xs)) in
      Fun.protect ~finally:(fun () -> shutdown t) (fun () -> run t f xs)

(* Lightweight section profiling for the engine hot path.

   Counters are global and atomic so that experiment cells running on
   [Pool] worker domains can record concurrently.  Profiling is off by
   default; the engine reads [enabled] once per [run], so a disabled
   profiler costs one atomic read per simulation, not per round. *)

type section = Wake | Collect | Adversary | Deliver | Resume

let n_sections = 5
let index = function Wake -> 0 | Collect -> 1 | Adversary -> 2 | Deliver -> 3 | Resume -> 4

let section_labels = [ "wake"; "collect"; "adversary"; "deliver"; "resume" ]
let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* Boxed-float atomics; fine, these are touched only when profiling. *)
let seconds = Array.init n_sections (fun _ -> Atomic.make 0.0)
let entries = Array.init n_sections (fun _ -> Atomic.make 0)
let rounds_total = Atomic.make 0
let silent_skipped = Atomic.make 0
let resumes_total = Atomic.make 0

let add_float a x =
  let rec go () =
    let old = Atomic.get a in
    if not (Atomic.compare_and_set a old (old +. x)) then go ()
  in
  go ()

(* Monotonic clock (CLOCK_MONOTONIC via the C stub): immune to the NTP
   slews and wall-clock jumps that gettimeofday is subject to, and the
   same clock family bench has used since PR 2. *)
external monotonic_ns : unit -> int64 = "rn_monotonic_ns"

let now () = Int64.to_float (monotonic_ns ()) /. 1e9

let record sec dt =
  let i = index sec in
  add_float seconds.(i) dt;
  Atomic.incr entries.(i)

let add_rounds n = ignore (Atomic.fetch_and_add rounds_total n)
let add_silent_skipped n = ignore (Atomic.fetch_and_add silent_skipped n)
let add_resumes n = ignore (Atomic.fetch_and_add resumes_total n)

let reset () =
  Array.iter (fun a -> Atomic.set a 0.0) seconds;
  Array.iter (fun a -> Atomic.set a 0) entries;
  Atomic.set rounds_total 0;
  Atomic.set silent_skipped 0;
  Atomic.set resumes_total 0

type snapshot = {
  sections : (string * int * float) list;
  rounds : int;
  silent : int;
  resumes : int;
}

let snapshot () =
  {
    sections =
      List.mapi (fun i l -> (l, Atomic.get entries.(i), Atomic.get seconds.(i))) section_labels;
    rounds = Atomic.get rounds_total;
    silent = Atomic.get silent_skipped;
    resumes = Atomic.get resumes_total;
  }

(* Fold the section profile into the metrics snapshot format, so one
   aggregation path (merge/sexp/tables) serves both layers.  Seconds
   become integer nanoseconds: metrics values are exact ints. *)
let metrics_snapshot () =
  let s = snapshot () in
  let ns t = int_of_float (t *. 1e9) in
  Metrics.of_counters
    (List.concat_map
       (fun (l, n, t) -> [ ("timing." ^ l ^ ".entries", n); ("timing." ^ l ^ ".ns", ns t) ])
       s.sections
    @ [
        ("timing.rounds", s.rounds);
        ("timing.silent_skipped", s.silent);
        ("timing.resumes", s.resumes);
      ])

let pp_report ppf s =
  let open Format in
  fprintf ppf "--- engine profile (aggregated over all runs) ---@\n";
  let total = List.fold_left (fun acc (_, _, t) -> acc +. t) 0.0 s.sections in
  List.iter
    (fun (l, n, t) ->
      let share = if total > 0.0 then 100.0 *. t /. total else 0.0 in
      fprintf ppf "  %-10s %10.3f ms  %5.1f%%  (%d entries)@\n" l (t *. 1e3) share n)
    s.sections;
  fprintf ppf "  rounds executed: %d, silent rounds fast-forwarded: %d, " s.rounds s.silent;
  fprintf ppf "resumes per executed round: %.1f@\n"
    (if s.rounds > 0 then float_of_int s.resumes /. float_of_int s.rounds else 0.0);
  if s.rounds + s.silent > 0 then
    fprintf ppf "  avg cost per executed round: %.0f ns@\n"
      (if s.rounds > 0 then total /. float_of_int s.rounds *. 1e9 else 0.0)

let print_report () = Format.printf "%a@." pp_report (snapshot ())

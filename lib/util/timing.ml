(* The engine round loop's profile, as a view over Metrics counters.

   [Engine.run] sums each phase's nanoseconds and entries, and its
   executed and fast-forwarded rounds, in run-local ints, and adds them
   to the counters declared here at the end of the run when
   [Metrics.enabled] is on.  So the profile has no registry, flag or
   atomics of its own: a cell's [Metrics.scoped] snapshot carries that
   cell's phase split, [snapshot] reads the global registry and
   [of_metrics] a snapshot. *)

type section = Wake | Collect | Adversary | Deliver | Resume

let sections = [ Wake; Collect; Adversary; Deliver; Resume ]
let n_sections = List.length sections
let index = function Wake -> 0 | Collect -> 1 | Adversary -> 2 | Deliver -> 3 | Resume -> 4

let label = function
  | Wake -> "wake"
  | Collect -> "collect"
  | Adversary -> "adversary"
  | Deliver -> "deliver"
  | Resume -> "resume"

let counters suffix =
  Array.of_list (List.map (fun s -> Metrics.counter ("engine." ^ label s ^ suffix)) sections)

let ns_counters = counters "_ns"
let entry_counters = counters "_entries"

let phase_ns s = ns_counters.(index s)
let phase_entries s = entry_counters.(index s)
let rounds_executed = Metrics.counter "engine.rounds_executed"
let rounds_fast_forwarded = Metrics.counter "engine.rounds_fast_forwarded"
let resumes = Metrics.counter "engine.resumes"
let listen_heard = Metrics.counter "engine.listen_heard"
let enabled = Metrics.enabled
let set_enabled = Metrics.set_enabled

(* Monotonic clock (CLOCK_MONOTONIC via the C stub): immune to the NTP
   slews and wall-clock jumps that gettimeofday is subject to. *)
external now_ns : unit -> int = "rn_monotonic_ns" [@@noalloc]

let now () = float_of_int (now_ns ()) /. 1e9

let reset () =
  Array.iter Metrics.reset_counter ns_counters;
  Array.iter Metrics.reset_counter entry_counters;
  List.iter Metrics.reset_counter
    [ rounds_executed; rounds_fast_forwarded; resumes; listen_heard ]

type snapshot = {
  sections : (string * int * float) list;
  rounds : int;
  silent : int;
  resumes : int;
  heard : int;
}

(* The view through [value], which reads a counter's total. *)
let view value =
  {
    sections =
      List.map
        (fun s -> (label s, value (phase_entries s), float_of_int (value (phase_ns s)) /. 1e9))
        sections;
    rounds = value rounds_executed;
    silent = value rounds_fast_forwarded;
    resumes = value resumes;
    heard = value listen_heard;
  }

let snapshot () = view Metrics.value

let of_metrics (m : Metrics.snapshot) =
  view (fun c -> Option.value ~default:0 (List.assoc_opt (Metrics.name c) m.Metrics.counters))

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
  let per_round k = if s.rounds > 0 then float_of_int k /. float_of_int s.rounds else 0.0 in
  fprintf ppf "resumes per executed round: %.1f, heard without a wake: %.1f@\n"
    (per_round s.resumes) (per_round s.heard);
  if s.rounds + s.silent > 0 then
    fprintf ppf "  avg cost per executed round: %.0f ns@\n"
      (if s.rounds > 0 then total /. float_of_int s.rounds *. 1e9 else 0.0)

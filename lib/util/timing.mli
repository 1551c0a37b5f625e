(** Section counters for the engine round loop ([--profile]).

    Global, atomic, and therefore safe to record from [Pool] worker
    domains.  Disabled by default: the engine samples [enabled] once per
    [run], so the instrumentation is free unless switched on.

    The clock is [CLOCK_MONOTONIC] (nanosecond resolution, immune to
    NTP slews and wall-clock jumps — the same clock family bench uses),
    which is plenty to tell which phase of the round loop dominates. *)

(** The round loop's phases.  [Adversary] times only the derivation of
    a [Chosen] round's stream: the adversary's draws run inside
    delivery's walk and are timed under [Deliver], so [Adversary]
    reads about 0. *)
type section = Wake | Collect | Adversary | Deliver | Resume

val enabled : unit -> bool
val set_enabled : bool -> unit

(** Clear all counters. *)
val reset : unit -> unit

(** Current time in seconds on the monotonic clock (arbitrary epoch:
    only differences are meaningful). *)
val now : unit -> float

(** [record sec dt] adds [dt] seconds and one entry to [sec]. *)
val record : section -> float -> unit

(** Total rounds actually executed (not fast-forwarded). *)
val add_rounds : int -> unit

(** Rounds skipped or short-circuited as silent. *)
val add_silent_skipped : int -> unit

(** Fiber continuations resumed (synced fibers, woken listeners and
    expired parks). *)
val add_resumes : int -> unit

type snapshot = {
  sections : (string * int * float) list;  (** label, entries, seconds *)
  rounds : int;
  silent : int;
  resumes : int;
}

val snapshot : unit -> snapshot

(** The section profile folded into the {!Metrics} snapshot format
    ([timing.<section>.entries], [timing.<section>.ns],
    [timing.rounds], [timing.silent_skipped], [timing.resumes]), so profiler output can
    be merged and exported through the one metrics pipeline. *)
val metrics_snapshot : unit -> Metrics.snapshot

val print_report : unit -> unit

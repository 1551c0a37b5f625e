(** The engine round loop's profile ([--profile]), as a read-only view
    over {!Metrics} counters.

    [Engine.run] sums each phase's nanoseconds and entries, and its
    executed and fast-forwarded rounds, in run-local ints.  At the end
    of a run it adds them to the counters declared here, when
    {!Metrics.enabled} is on.  The profile therefore has no registry or
    flag of its own: a cell's {!Metrics.scoped} snapshot (and so its
    store payload) carries that cell's phase split, {!snapshot} reads
    the global registry and {!of_metrics} a snapshot.

    The clock is [CLOCK_MONOTONIC] (nanosecond resolution, immune to
    NTP slews and wall-clock jumps), which is plenty to tell which
    phase of the round loop dominates. *)

(** The round loop's phases.  [Adversary] times only the derivation of
    a [Chosen] round's stream: the adversary's draws run inside
    delivery's walk and are timed under [Deliver], so [Adversary]
    reads about 0. *)
type section = Wake | Collect | Adversary | Deliver | Resume

(** The phases in round order. *)
val sections : section list

val n_sections : int

(** [index s] is [s]'s position in {!sections}. *)
val index : section -> int

(** {2 The counters} *)

(** [engine.<phase>_ns], e.g. [engine.wake_ns]: wall-clock nanoseconds
    spent in the phase. *)
val phase_ns : section -> Metrics.counter

(** [engine.<phase>_entries]: times the phase ran. *)
val phase_entries : section -> Metrics.counter

(** [engine.rounds_executed]: rounds the loop executed. *)
val rounds_executed : Metrics.counter

(** [engine.rounds_fast_forwarded]: silent rounds skipped in one step. *)
val rounds_fast_forwarded : Metrics.counter

(** [engine.resumes]: fiber continuations resumed (synced fibers, woken
    listeners and expired parks). *)
val resumes : Metrics.counter

(** [engine.listen_heard]: receives a parked listener's callback took
    without waking its fiber (see [Engine.Make.listen_for]); the
    callbacks run, and are timed, in the resume phase. *)
val listen_heard : Metrics.counter

(** {2 The view} *)

(** {!Metrics.enabled}. *)
val enabled : unit -> bool

(** {!Metrics.set_enabled}. *)
val set_enabled : bool -> unit

(** Zero the counters above in the global registry. *)
val reset : unit -> unit

(** Current time in nanoseconds on the monotonic clock (arbitrary
    epoch: only differences are meaningful).  Allocates nothing. *)
val now_ns : unit -> int

(** {!now_ns} in seconds. *)
val now : unit -> float

type snapshot = {
  sections : (string * int * float) list;  (** label, entries, seconds *)
  rounds : int;  (** [engine.rounds_executed] *)
  silent : int;  (** [engine.rounds_fast_forwarded] *)
  resumes : int;  (** [engine.resumes] *)
  heard : int;  (** [engine.listen_heard] *)
}

(** The counters above, read from the global registry. *)
val snapshot : unit -> snapshot

(** The counters above, read from a metrics snapshot (absent counters
    read 0): for instance the merge of per-cell snapshots, which a
    cell replayed from the result store carries as it was computed. *)
val of_metrics : Metrics.snapshot -> snapshot

(** The [--profile] report. *)
val pp_report : Format.formatter -> snapshot -> unit

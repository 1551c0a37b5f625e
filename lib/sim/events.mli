(** Structured per-round event tracing.

    The engine emits one {!event} per observable micro-step of a round
    into a bounded ring-buffer {!sink} attached via [Engine.config
    ~sink].  Emission is side-effect-free with respect to the
    simulation: a traced run produces byte-identical results and stats
    to an untraced one.

    Events export to three formats — JSONL (one object per line),
    Chrome trace-event JSON (loadable in Perfetto or chrome://tracing,
    one track per process), and sexp — and each format parses back, so
    [rn_cli trace inspect] can query any trace file it wrote. *)

type kind =
  | Wake  (** process started executing its protocol *)
  | Broadcast of { bits : int }  (** process sent; [bits] on the channel *)
  | Deliver of { src : int }  (** message from [src] received *)
  | Collide of { senders : int }  (** >1 reliable sender; receiver heard noise *)
  | Gray of { active : int; total : int }
      (** adversary resolved the gray edges: [active] of [total]
          gray edges made reliable this round (round-scoped) *)
  | Decide of { value : int }  (** process produced its first output *)
  | Skip of { rounds : int }
      (** the engine fast-forwarded [rounds] provably silent rounds
          (round-scoped; [round] is the round execution resumed at) *)

type event = {
  round : int;  (** 1-based simulation round *)
  proc : int;  (** process id, or [-1] for round-scoped events *)
  kind : kind;
}

val kind_name : kind -> string

(** {1 Sink} *)

type sink

(** [create ()] makes a bounded ring-buffer sink.

    @param capacity ring size; the newest [capacity] events are kept
      and older ones are counted as evicted (default [65536]).
    @param rounds inclusive [(lo, hi)] round range filter.
    @param procs keep process-scoped events only for these ids
      (round-scoped events always pass).
    @param sample keep only rounds where [round mod sample = 0]
      (default [1] = every round). *)
val create :
  ?capacity:int -> ?rounds:int * int -> ?procs:int list -> ?sample:int -> unit -> sink

val emit : sink -> event -> unit

(** Buffered events, oldest first. *)
val events : sink -> event list

val length : sink -> int

(** Events accepted into the ring (including since-evicted ones). *)
val emitted : sink -> int

(** Events overwritten because the ring was full. *)
val evicted : sink -> int

(** Events rejected by the round/proc/sampling filters. *)
val filtered : sink -> int

val clear : sink -> unit

(** {1 Ambient sink}

    A process-wide default sink consulted by [Engine.config] when no
    explicit [?sink] is passed.  Lets a caller trace engine runs buried
    inside code that never heard of sinks (harness cells, on-demand
    trace re-runs) by bracketing the computation with
    [set_ambient (Some s) … set_ambient None].  Like an explicit sink
    it forces the scalar engine path; results are byte-identical either
    way (see test_engine_paths). *)

val set_ambient : sink option -> unit
val ambient : unit -> sink option

(** {1 Export / import}

    Each [to_*] has an inverse that accepts exactly what it wrote. *)

type format = Jsonl | Chrome | Sexp_format

val format_name : format -> string
val export : format -> event list -> string

val to_jsonl : event list -> string
val of_jsonl : string -> event list

(** Chrome trace-event JSON: broadcasts are 8 us duration slices, other
    events instants; one [tid] per process under [pid] 0, round-scoped
    events under [pid] 1; [ts = (round - 1) * 10] us. *)
val to_chrome : event list -> string

val of_chrome : string -> event list
val to_sexp : event list -> string
val of_sexp : string -> event list

(** Parse a trace in any of the three formats (sniffed from the
    content: leading ['('] is sexp, a [traceEvents] wrapper is Chrome,
    otherwise JSONL). *)
val of_string : string -> event list

val pp_event : Format.formatter -> event -> unit

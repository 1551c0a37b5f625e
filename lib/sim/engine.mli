(** The dual graph round engine.

    Processes are effect-based fibers written in direct style: they call
    {!Make.sync} once per round with an optional message; the engine applies
    the Section 2 semantics (adversarial reach set over gray edges, receive
    iff exactly one reachable broadcaster and not broadcasting yourself, no
    collision detection) and resumes every fiber with its receive. *)

module type MESSAGE = sig
  type t

  (** Encoded size in bits given network size (an id costs ⌈log₂ n⌉). *)
  val size_bits : n:int -> t -> int

  val pp : Format.formatter -> t -> unit
end

type stop_condition =
  | All_done  (** stop when every fiber has returned *)
  | All_decided  (** stop when every process has produced an output *)
  | At_round of int  (** run exactly this many rounds *)

type stats = {
  rounds : int;
  sends : int;
  deliveries : int;
  collisions : int;
  bits_sent : int;
  silent_rounds : int;
      (** rounds in which nothing broadcast; the engine fast-forwards
          stretches of them when no fiber is live *)
}

(** Cheap digest of the engine configuration space, folded into
    {!Rn_util.Store} cache keys so that stored cell results computed
    under different engine semantics never collide. *)
val semantics_digest : string

module Make (M : MESSAGE) : sig
  (** What a process sees at the end of a round: its own broadcast, silence
      (zero or ≥ 2 reachable broadcasters — indistinguishable), or a
      message. *)
  type receive = Own | Silence | Recv of M.t

  (** Read-only snapshot passed to the per-round observer. *)
  type view = {
    view_round : int;
    view_broadcasters : int array;
    view_outputs : int option array;
    view_decided : int option array;
  }

  type config = {
    dual : Rn_graph.Dual.t;
    detector : Rn_detect.Detector.dynamic;
    adversary : Adversary.t;
    seed : int;
    b_bits : int option;  (** enforced bound on message size, if given *)
    delta_bound : int;  (** global Δ bound known to processes *)
    wake : int array option;  (** global wake round per node (≥ 1) *)
    stop : stop_condition;
    max_rounds : int;
    observer : (view -> unit) option;
    sink : Events.sink option;
        (** structured event trace destination; emission has no
            observable effect on the run ({!run_reference} ignores it) *)
  }

  (** Build a config with sensible defaults: silent adversary, seed 0,
      [delta_bound] defaulting to the true max degree of [G], synchronous
      wake-up, stop at [All_done], 2M-round safety cap, no tracing.

      [?shards] and [?resume_shards] (each ≥ 1, else [Invalid_argument])
      are accepted for source compatibility and select nothing: delivery,
      the adversary's gray-edge choice and the resume always run on the
      calling domain. *)
  val config :
    ?adversary:Adversary.t ->
    ?seed:int ->
    ?b_bits:int ->
    ?delta_bound:int ->
    ?wake:int array ->
    ?stop:stop_condition ->
    ?max_rounds:int ->
    ?observer:(view -> unit) ->
    ?sink:Events.sink ->
    ?shards:int ->
    ?resume_shards:int ->
    detector:Rn_detect.Detector.dynamic ->
    Rn_graph.Dual.t ->
    config

  (** Per-process handle available inside the fiber. *)
  type ctx

  val me : ctx -> int
  val n : ctx -> int

  (** The Δ bound shared by all processes (phase alignment). *)
  val delta_bound : ctx -> int

  val b_bits : ctx -> int option

  (** This process's private deterministic random stream. *)
  val rng : ctx -> Rn_util.Rng.t

  (** Completed rounds since this process woke (local round number). *)
  val round : ctx -> int

  (** Current round's link detector set [L_me]. *)
  val detector : ctx -> Rn_util.Bitset.t

  val detector_mem : ctx -> int -> bool

  (** Record the process's problem output (0 or 1).  Idempotent for equal
      values; raises on conflicting re-output. *)
  val output : ctx -> int -> unit

  (** Execute one round, optionally broadcasting. *)
  val sync : ctx -> M.t option -> receive

  (** [idle ctx k]: listen for [k] rounds, discarding receives.
      Semantically identical to [k] silent syncs, but performed as one
      park: the engine resumes the fiber once, when the stretch expires,
      and fast-forwards rounds in which every fiber is parked or asleep.
      A [k] of [max_int] parks for the rest of the run. *)
  val idle : ctx -> int -> unit

  (** [listen ctx k]: listen for up to [k] rounds, stopping at the first
      message.  [Some (i, m)] when [m] arrived in the stretch's [i]-th
      round ([round] advances by [i]); [None] after [k] silent rounds
      ([round] advances by [k]).  Semantically identical to a loop of
      silent syncs that stops at the first [Recv], but performed as one
      park that only a delivery or the stretch's expiry resumes — so
      silent rounds cost the listener nothing and can be fast-forwarded.
      [k <= 0] returns [None] at once. *)
  val listen : ctx -> int -> (int * M.t) option

  (** [listen_for ctx k ~on_recv]: listen for [k] rounds, handing every
      message heard to [on_recv] in round order.  Semantically identical
      to [k] silent syncs whose [Recv m] go to [on_recv m]; [round]
      advances by [k], and [k <= 0] returns at once.  It is one park, as
      {!listen} is: the engine calls [on_recv] itself, in the resume
      phase of the round the message arrived in, and resumes the fiber
      only when the stretch ends.  {!listen} is the same park with a
      callback that wakes the fiber at the first message.

      Inside [on_recv], [round ctx] reads the receive round (the rounds
      completed when that round ends, as after the equivalent sync), and
      [output] records that round as the decided round.  An exception
      [on_recv] raises wakes the fiber in that round and is re-raised
      from [listen_for], with [round] at the receive round.

      [on_recv] runs outside the fiber, on the domain that runs the
      round loop, so it must not perform an engine effect ({!sync},
      {!sync_p}, {!idle}, {!listen} or [listen_for]): the perform finds
      no handler, and the run raises [Invalid_argument].  It may use
      [ctx]'s other accessors and the process's own state. *)
  val listen_for : ctx -> int -> on_recv:(M.t -> unit) -> unit

  (** Broadcast with probability [p], else listen. *)
  val sync_p : ctx -> float -> M.t -> receive

  type 'a result = {
    outputs : int option array;
    returns : 'a option array;  (** fiber return values (None on timeout) *)
    rounds : int;
    decided_round : int option array;
    stats : stats;
    timed_out : bool;
  }

  (** Run all processes in lock step until the stop condition (or
      [max_rounds], setting [timed_out]).

      The round loop costs O(activity) per round: live fibers sit in a
      worklist, wake rounds are pre-bucketed, [idle], [listen] and
      [listen_for] fibers park in a heap (a delivery hands a listener's
      callback the message, and takes the listener out early only when
      the callback wakes it), and
      stretches of silent rounds are skipped outright.  The adversary's
      RNG is derived per round from the seed, which is what makes the skip
      sound.  If the detector declares [stabilizes_at], queries after the
      stabilisation round are served from a cache — detectors whose [at]
      violates the declared stabilisation get the cached value.

      Each round runs five phases in turn: wake, collect, adversary,
      deliver and resume.  A round whose reach the adversary declares
      ({!Adversary.reach}) skips the adversary phase and delivers along
      the declared reach, on the word-parallel kernel when the
      broadcasters' reach outweighs its word sweeps (a broadcaster's
      gray degree counts only on a round that reaches every gray edge),
      else edge by edge.  Any other round delivers edge by edge inside
      {!Adversary.visit}, which walks the gray edges the adversary
      activates.  The resume first runs the callbacks of the listeners
      a delivery reached ({!listen_for}), then steps one work list — the
      synced fibers in worklist order, the listeners a callback woke,
      then the parks expiring this round in heap-pop order.  Every phase
      runs on the calling domain, and every choice is pure evaluation
      strategy.  The counters [engine.declared_reach_rounds] and
      [engine.kernel_rounds] record how often each fast path ran.

      When [config.sink] is set, one {!Events.event} is emitted per wake,
      broadcast, delivery, collision, gray-edge resolution, first
      decision, and fast-forward jump.  Emission reads no RNG and mutates
      no engine state, so the result is byte-identical to an untraced
      run; every round then goes through {!Adversary.visit} with no
      [live] predicate, so its gray events count the edges
      {!Adversary.choose} activates, and delivery takes its scalar path.
      When {!Rn_util.Metrics.enabled} (sampled once per run),
      engine-level [engine.*] counters and histograms are recorded.
      Among them, [engine.minor_words] and [engine.promoted_words] are
      the words the run allocated in, and promoted from, the minor heap
      of the calling domain.

      A run of n fibers raises the calling domain's minor heap to 32n
      words when that exceeds its size, so that a round's short-lived
      continuations and messages die young, and puts the size back when
      the run ends, also when it raises.  OCaml 5's minor heap is per
      domain, so other domains keep theirs.  {!run_reference} leaves the
      heap alone.

      A run that stops while fibers are still suspended (at [At_round],
      at [All_decided] before every body returned, on a timeout, or
      because a fiber raised) unwinds each of them with an exception
      private to the engine, so their stacks are freed and a body's
      [Fun.protect ~finally] runs; whatever the unwinding raises is
      swallowed.  [engine.discontinued] counts those fibers. *)
  val run : config -> (ctx -> 'a) -> 'a result

  (** Straightforward O(n)-scans-per-round implementation of exactly the
      same semantics (including the per-round adversary derivation).  Slow;
      exists as the differential-testing oracle for [run] — for any config
      and body the two must agree on [outputs], [returns], [decided_round],
      [rounds], [stats], and [timed_out], provided the detector honours its
      declared [stabilizes_at].  The reference queries the detector every
      round, so one whose [at] changes after that round reads differently
      here than under [run], which caches the first value it queried at
      or after it.  Fibers still suspended at the end are unwound as in
      [run]. *)
  val run_reference : config -> (ctx -> 'a) -> 'a result
end

(* The dual graph round engine (Section 2 semantics).

   Each process runs as an OCaml-5 effect fiber: algorithm code is written
   in direct style and performs [Listen] or [Send m] once per round.  The engine
   gathers all send intents, lets the adversary pick the round's reach set
   (all of E plus an arbitrary subset of gray edges), computes receives
   under the collision rule — a node receives a message iff it did not
   broadcast and exactly one reachable neighbour broadcast; otherwise it
   gets silence, with no collision detection — and resumes every fiber with
   its receive.

   The round loop is organised so per-round cost scales with *activity*,
   not with n:

   - a live-fiber worklist holds exactly the fibers awaiting this round's
     receive, so send collection, receive computation and resumption touch
     only live ids;
   - wake rounds are pre-sorted into a round-ordered queue, so the wake
     phase is O(#wakers this round);
   - fibers that listen for k rounds ([idle], [listen], [listen_for])
     perform one park effect and wait in a min-heap keyed by expiry round
     instead of being resumed k times; a delivery to a [listen_for]
     listener is handed to its callback without resuming it, and only a
     callback that asks to wake (every [listen]er's does) takes the fiber
     out of the heap early, so silent rounds resume nobody;
   - the adversary RNG is re-derived per round from a root stream
     ([Rng.derive_into adv_root round]), so rounds with no broadcasters can
     skip the adversary/delivery phases — and stretches of rounds in which
     every fiber is asleep, finished or parked are fast-forwarded in one
     jump — without perturbing any later round's randomness;
   - delivery scratch (`recv_count`/`recv_from`/`touched`) and the
     broadcaster buffer are preallocated and reset via the touched list,
     and every per-broadcaster walk indexes the CSR rows directly, so
     collect and delivery allocate nothing but the sorted broadcaster
     snapshot handed to the adversary and observer and one [Recv m] per
     sender that reached a receiver, shared by its receivers;
   - a fiber-round allocates only the runtime's continuation (and a
     broadcaster's [Send m]): the effects a listener performs are
     constants, a fiber's state is one continuation slot plus one state
     byte, and the one shared continuation function is the identity
     (DESIGN.md, "Allocation budget of a fiber round").

   [run]'s round loop is the fast-forward, then five phase functions —
   [wake], [collect], [adversary], [deliver], [resume] — that share one
   [round_state], then the observer.  Each round the adversary first
   declares its reach from the broadcasters ([Adversary.reach]): no gray
   edge of a broadcaster, all of them, or a set only its [visit] walks.
   A declared round skips the adversary phase, and delivery walks no
   gray row, or every gray row without a membership test (on the
   kernel, it ORs [Graph.adj_rows] or [Dual.reach_rows]).  A [Chosen]
   round only derives its stream in the adversary phase, and delivery
   runs inside [Adversary.visit]: each visited edge touches its
   receiver, so no set of active gray edges is ever built.  The visit
   is handed a [live] predicate, the receivers a visited edge can still
   change ([live_scalar], [live_acc], [live_assign]), and
   [bernoulli]/[harassing] skip the draws of every other edge with
   [Rng.skip], which leaves the stream where the full walk would.
   Delivery picks its evaluation by cost: the word-parallel once/twice
   kernel when the edge touches it saves outweigh its word sweeps.  It
   saves the broadcasters' G degrees, and their gray degrees only on an
   [All_incident] round: on a [Chosen] round it visits the adversary's
   edges as the scalar path does, and its second sweep re-derives the
   stream and visits them again, which counts against it.  The resume
   has one path: it fixes the round's work list and steps it in
   [resume_shards] slices on Pool domains when [resume_shards > 1] and
   at least [resume_shard_threshold] fibers await their receive, else
   in one slice on the calling domain.  Every choice is pure evaluation
   strategy; an attached sink treats every round as [Chosen], forces
   the scalar delivery, which can emit per-receiver records, passes no
   [live] predicate, so its [Gray] event counts every active edge, and
   keeps the resume in one slice.

   [run_reference] keeps the original straightforward O(n)-scans-per-round
   loop (modulo the per-round adversary derivation, which is part of the
   semantics now) as a differential-testing oracle: it fills a bitset
   with [Adversary.choose], which takes the full walk, and tests
   membership while it delivers.  For
   any config and body whose detector honours its declared
   [stabilizes_at], [run] and [run_reference] must produce identical
   results.  The two share only their setup, output recording, send
   check and result assembly.

   The functor is parameterised by the message type so each algorithm gets
   a typed payload; [size_bits] lets the engine enforce the model's bound b
   on message size in bits. *)

module Bitset = Rn_util.Bitset
module Pool = Rn_util.Pool
module Rng = Rn_util.Rng
module Timing = Rn_util.Timing
module Int_sort = Rn_util.Int_sort
module Metrics = Rn_util.Metrics
module Graph = Rn_graph.Graph
module Dual = Rn_graph.Dual
module Detector = Rn_detect.Detector

(* Engine-level metrics, recorded at the end of each [run] when the
   registry is enabled ([Metrics.enabled] is sampled once per run, so a
   disabled registry costs one atomic read per simulation).
   Registration is idempotent, so these module-level handles are shared
   by every [Make] instantiation.  The phase profile's counters, and
   [engine.resumes] which its report reads, are declared in [Timing]. *)
let m_runs = Metrics.counter "engine.runs"
let m_rounds = Metrics.counter "engine.rounds"
let m_sends = Metrics.counter "engine.sends"
let m_deliveries = Metrics.counter "engine.deliveries"
let m_collisions = Metrics.counter "engine.collisions"
let m_bits_sent = Metrics.counter "engine.bits_sent"
let m_silent_rounds = Metrics.counter "engine.silent_rounds"
let m_kernel_rounds = Metrics.counter "engine.kernel_rounds"

(* Rounds whose reach the adversary declared ([Adversary.reach]), so the
   adversary phase was skipped. *)
let m_declared_reach_rounds = Metrics.counter "engine.declared_reach_rounds"

(* Rounds whose resume was cut in more than one slice, and the fibers
   they stepped.  Recorded on the *calling* domain: [Metrics.scoped]
   snapshots see only the calling domain's records, so counting on the
   worker domains would leak the events out of per-cell snapshots even
   though the global atomics themselves merge commutatively. *)
let m_resume_shard_rounds = Metrics.counter "engine.resume_shard_rounds"
let m_resume_shard_steps = Metrics.counter "engine.resume_shard_steps"
let m_timeouts = Metrics.counter "engine.timeouts"

(* Listeners woken early by a delivery.  The receives a listener's
   callback took without waking it are [Timing.listen_heard]. *)
let m_listen_wakes = Metrics.counter "engine.listen_wakes"
(* Words allocated in the minor heap, and words promoted to the major
   heap, while a [run] executes.  They are read from [Gc.counters] after
   the run has sized its minor heap and before it puts the old size
   back, since a resize counts the words of the heap it empties as
   allocated.  They count the calling domain only:
   the resume's Pool workers step fibers on their own domains,
   and what those steps allocate is not included.  ([Gc.quick_stat]
   would sum every domain, which blends concurrent cells under
   [--jobs N].) *)
let m_minor_words = Metrics.counter "engine.minor_words"
let m_promoted_words = Metrics.counter "engine.promoted_words"

(* Fibers still suspended when a run stopped (at [At_round], at
   [All_decided] before every body returned, or on a timeout), which
   the run then unwound. *)
let m_discontinued = Metrics.counter "engine.discontinued"
let m_round_bcast = Metrics.histogram "engine.round_broadcasters"
let m_run_rounds = Metrics.histogram "engine.run_rounds"

module type MESSAGE = sig
  type t

  (* Size of the encoded message in bits, given the network size (ids cost
     ceil(log2 n) bits). *)
  val size_bits : n:int -> t -> int

  val pp : Format.formatter -> t -> unit
end

type stop_condition =
  | All_done (* every fiber returned *)
  | All_decided (* every process produced an output *)
  | At_round of int (* run exactly this many rounds *)

type stats = {
  rounds : int;
  sends : int;
  deliveries : int;
  collisions : int; (* receiver-side: >= 2 reachable broadcasters *)
  bits_sent : int;
  silent_rounds : int; (* rounds with zero broadcasters (fast-forwardable) *)
}

(* Bump whenever the observable round semantics change (delivery rule,
   adversary derivation, RNG streams, ...): cached experiment cells are
   keyed on [semantics_digest], so a bump invalidates every stored
   result computed under the old semantics.  Version 3 is the PR 2
   activity-scaled loop with per-round adversary RNG derivation. *)
let semantics_version = 3
let semantics_digest = Printf.sprintf "eng%d" semantics_version

(* Heap key of a park of [dur] rounds whose first round is [base]: the
   round at whose end it expires, saturated at [max_int] ("never") so
   that [listen ctx max_int] cannot wrap to a negative key. *)
let park_expiry base dur = if dur > max_int - base then max_int else base + dur - 1

(* A round's resume is cut into [resume_shards] slices only when at
   least this many fibers await their receive: below it, the Pool
   dispatch and merge cost more than stepping the fibers on one domain. *)
let resume_shard_threshold = 1024

(* Minor-heap words a run asks for per fiber on the calling domain.  A
   fiber-round allocates about 4.4 words (DESIGN.md "Allocation budget
   of a fiber round") that die within a round or two: its continuation,
   a broadcaster's [Send m], a sender's [Recv m].  At 65,536 fibers a
   round allocates about 288k words, more than the default minor heap
   of 256k words, so every round collects and promotes the round's
   live continuations.  [run] raises the calling domain's minor heap
   to [minor_heap_words_per_fiber * n] words when that exceeds its
   current size, which at the default fires above 8,192 fibers, and
   puts the saved size back when the run ends.  A 32-round sparse
   beacon at n = 65,536 (Bernoulli 0.5, [sync_p 0.25], 2-core x86-64
   VM, OCaml 5.1.1) at 0, 16, 32 and 64 words per fiber ran 93, 14, 7
   and 5 minor collections (two of them the resizes) and promoted
   8.8M, 4.6M, 3.7M and 3.4M words; peak RSS over three runs was 161,
   133, 134 and 150 MB: at 64 words the heap's own 32 MB gives the
   saving back. *)
let minor_heap_words_per_fiber = 32

(* Raise the calling domain's minor heap to [words] if it is smaller,
   and say whether it did. *)
let grow_minor_heap words =
  let gc = Gc.get () in
  words > gc.Gc.minor_heap_size
  && begin
       Gc.set { gc with Gc.minor_heap_size = words };
       true
     end

(* Where the fibers one resume slice stepped stopped: the synced ones
   from the front of [buf] in step order, the parked ones from its back.
   A stepped fiber lands in at most one of the two, so a buffer as long
   as the slice never overflows. *)
type slice = { buf : int array; mutable joins : int; mutable parks : int }

(* What one round of [run] decided, shared by its phase functions: the
   round, its broadcasters (ascending), the reach the adversary
   declared, whether delivery took the word-parallel kernel, and how
   many slices the resume stepped.  One per run, rewritten each round. *)
type round_state = {
  mutable r : int;
  mutable broadcasters : int array;
  mutable reach : Adversary.reach;
  mutable kernel : bool;
  mutable slices : int;
}

module Make (M : MESSAGE) = struct
  type receive = Own | Silence | Recv of M.t

  (* One round: [Listen] silently, or [Send m].  [Idle] and [Wait] park
     the fiber for the duration it wrote in its park slot: [Idle]
     discards every receive, [Wait] hands each to the callback in the
     fiber's hear slot and ends at the first one the callback wakes it
     for.  Every effect answers a [receive], and the ones a listener
     performs are constants, so performing them allocates nothing. *)
  type _ Effect.t +=
    | Listen : receive Effect.t
    | Send : M.t -> receive Effect.t
    | Idle : receive Effect.t
    | Wait : receive Effect.t

  type view = {
    view_round : int;
    view_broadcasters : int array; (* who sent this round (read-only) *)
    view_outputs : int option array; (* read-only *)
    view_decided : int option array; (* read-only *)
  }

  type config = {
    dual : Dual.t;
    detector : Detector.dynamic;
    adversary : Adversary.t;
    seed : int;
    b_bits : int option;
    delta_bound : int;
    wake : int array option; (* global wake round per node; default all 1 *)
    stop : stop_condition;
    max_rounds : int;
    observer : (view -> unit) option;
    sink : Events.sink option; (* structured event trace destination *)
    resume_shards : int;
        (* Slices of the resume's work list stepped on Pool domains when
           at least [resume_shard_threshold] fibers await and no sink is
           attached; see [run]'s [resume].  Pure evaluation strategy —
           results are byte-identical at any count (test_engine_paths). *)
  }

  let config ?(adversary = Adversary.silent) ?(seed = 0) ?b_bits ?(delta_bound = 0)
      ?wake ?(stop = All_done) ?(max_rounds = 2_000_000) ?observer ?sink
      ?(shards = 1) ?(resume_shards = 1) ~detector dual =
    (* [shards] selects nothing: delivery and the adversary run on the
       calling domain, because sharding them lost on every measured
       workload.  It is still accepted (and checked) for callers that
       pass it. *)
    if shards < 1 then invalid_arg "Engine.config: shards < 1";
    if resume_shards < 1 then invalid_arg "Engine.config: resume_shards < 1";
    (* No explicit sink: fall back to the process-wide ambient sink (the
       trace-on-demand hook).  Resolved here, once per config, so every
       consumer of [cfg.sink] sees the same decision. *)
    let sink = match sink with Some _ -> sink | None -> Events.ambient () in
    let delta_bound =
      if delta_bound > 0 then delta_bound else Dual.max_degree_g dual
    in
    {
      dual;
      detector;
      adversary;
      seed;
      b_bits;
      delta_bound;
      wake;
      stop;
      max_rounds;
      observer;
      sink;
      resume_shards;
    }

  type ctx = {
    me : int;
    n : int;
    delta_bound : int;
    b_bits : int option;
    rng : Rng.t;
    mutable local_round : int; (* completed syncs *)
    current_detector : unit -> Detector.t;
    do_output : int -> int -> unit; (* [do_output me value], one per run *)
    park : int array;
        (* the run's per-fiber park slots, indexed by [me]: the fiber
           writes a park's duration before performing [Idle] or [Wait],
           the engine writes a woken [Wait]'s stretch index before
           resuming it *)
    hear : (int -> M.t -> bool) array;
        (* the run's per-fiber hear slots: the callback a [Wait] park
           hands each receive to, with its stretch index; [true] wakes
           the fiber *)
    mutable raised : (exn * Printexc.raw_backtrace) option;
        (* what a [listen_for] callback raised, until the woken fiber
           re-raises it *)
  }

  let me ctx = ctx.me
  let n ctx = ctx.n
  let delta_bound ctx = ctx.delta_bound
  let b_bits ctx = ctx.b_bits
  let rng ctx = ctx.rng
  let round ctx = ctx.local_round
  let detector ctx = Detector.set (ctx.current_detector ()) ctx.me
  let detector_mem ctx v = Bitset.mem (detector ctx) v
  let output ctx v = ctx.do_output ctx.me v

  let sync ctx send =
    let r = match send with None -> Effect.perform Listen | Some m -> Effect.perform (Send m) in
    ctx.local_round <- ctx.local_round + 1;
    r

  (* Listen for [k] rounds, discarding receives.  A single [Idle] perform
     lets the engine park the fiber for the whole stretch instead of
     resuming it k times; semantically identical to k silent syncs. *)
  let idle ctx k =
    if k > 0 then begin
      ctx.park.(ctx.me) <- k;
      ignore (Effect.perform Idle);
      ctx.local_round <- ctx.local_round + k
    end

  (* [listen]'s callback: every receive wakes the fiber. *)
  let wake_on_recv (_ : int) (_ : M.t) = true

  (* Listen for up to [k] rounds, stopping at the first message: identical
     to silent syncs until the first [Recv m] (in the stretch's i-th round,
     giving [Some (i, m)]), but resumed once instead of once per round.
     The engine leaves i in the park slot before resuming a woken
     fiber. *)
  let listen ctx k =
    if k <= 0 then None
    else begin
      ctx.park.(ctx.me) <- k;
      ctx.hear.(ctx.me) <- wake_on_recv;
      match Effect.perform Wait with
      | Recv m ->
        let i = ctx.park.(ctx.me) in
        ctx.local_round <- ctx.local_round + i;
        Some (i, m)
      | Own | Silence ->
        ctx.local_round <- ctx.local_round + k;
        None
    end

  (* Listen for [k] rounds, handing every message heard to [on_recv] in
     round order: identical to [k] silent syncs whose [Recv m] go to
     [on_recv m].  One [Wait] park whose callback runs [on_recv] on the
     engine's side of the round, with [local_round] set to the receive
     round, and returns [false], so the fiber resumes only when the
     stretch ends.  An exception from [on_recv] wakes the fiber in that
     round instead, and is re-raised here.  [on_recv] runs outside the
     fiber, so an engine effect it performs finds no handler: that is
     reported as [Invalid_argument], which ends the run. *)
  let listen_for ctx k ~on_recv =
    if k > 0 then begin
      let base = ctx.local_round in
      ctx.park.(ctx.me) <- k;
      ctx.hear.(ctx.me) <-
        (fun i m ->
          ctx.local_round <- base + i;
          match on_recv m with
          | () -> false
          | exception Effect.Unhandled _ ->
            invalid_arg "Engine.listen_for: on_recv performed an engine effect"
          | exception e ->
            ctx.raised <- Some (e, Printexc.get_raw_backtrace ());
            true);
      match Effect.perform Wait with
      | Recv _ -> (
        ctx.local_round <- base + ctx.park.(ctx.me);
        match ctx.raised with
        | Some (e, bt) ->
          ctx.raised <- None;
          Printexc.raise_with_backtrace e bt
        | None -> assert false)
      | Own | Silence -> ctx.local_round <- base + k
    end

  (* Broadcast with probability [p], otherwise listen. *)
  let sync_p ctx p send =
    let r = if Rng.bool ctx.rng p then Effect.perform (Send send) else Effect.perform Listen in
    ctx.local_round <- ctx.local_round + 1;
    r

  type 'a result = {
    outputs : int option array;
    returns : 'a option array;
    rounds : int;
    decided_round : int option array;
    stats : stats;
    timed_out : bool;
  }

  type fiber_status = Asleep | Running | Finished

  (* Where a fiber stands between resumptions, one byte per fiber: no
     fiber (asleep or finished), synced for this round (listening or
     sending), parked by [idle], or parked by [listen].  The synced
     states sort below the parked ones. *)
  let st_none = '\000'
  let st_listen = '\001'
  let st_send = '\002'
  let st_idle = '\003'
  let st_wait = '\004'

  (* Starting or resuming a fiber evaluates to where it stopped: the
     handler's [effc] records the state byte (and a [Send]) in the
     fiber's slots and returns the continuation itself.  [Stopped] is
     unboxed, so the one continuation function shared by every fiber of
     every run, [fun k -> Stopped k], allocates nothing. *)
  type stopped = Stopped of (receive, stopped) Effect.Deep.continuation [@@unboxed]

  let stop : ((receive, stopped) Effect.Deep.continuation -> stopped) option =
    Some (fun k -> Stopped k)

  (* The continuation held by empty slots, and returned for a fiber whose
     body returned: a fiber that performed [Listen] once, captured here
     once and never resumed. *)
  let sentinel =
    let (Stopped k) =
      Effect.Deep.match_with
        (fun () -> ignore (Effect.perform Listen))
        ()
        {
          retc = (fun () -> assert false);
          exnc = raise;
          effc =
            (fun (type a) (eff : a Effect.t) :
                 ((a, stopped) Effect.Deep.continuation -> stopped) option ->
              match eff with Listen -> stop | _ -> None);
        }
    in
    k

  let stop_return () = Stopped sentinel

  (* Fiber [v]'s handler, one per fiber, built when it starts: [effc]
     writes the state byte and, for [Send], the effect itself into
     [sends.(v)], which is read only while the state is [st_send]. *)
  let handler state (sends : receive Effect.t array) v : (unit, stopped) Effect.Deep.handler =
    {
      retc = stop_return;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, stopped) Effect.Deep.continuation -> stopped) option ->
          match eff with
          | Listen ->
            Bytes.unsafe_set state v st_listen;
            stop
          | Send _ ->
            sends.(v) <- eff;
            Bytes.unsafe_set state v st_send;
            stop
          | Idle ->
            Bytes.unsafe_set state v st_idle;
            stop
          | Wait ->
            Bytes.unsafe_set state v st_wait;
            stop
          | _ -> None);
    }

  let[@inline] payload = function Send m -> m | _ -> assert false

  (* Raised into every fiber still suspended when a run ends. *)
  exception Run_ended

  (* Unwind every fiber still suspended, so its stack is freed and its
     [Fun.protect ~finally] runs, and count them.  What an unwinding
     raises (normally [Run_ended] itself, re-raised by the handler) is
     swallowed, and a fiber that suspends again while unwinding is left
     as it stands. *)
  let discontinue_all state conts =
    let cut = ref 0 in
    for v = 0 to Bytes.length state - 1 do
      if Bytes.get state v <> st_none then begin
        Bytes.set state v st_none;
        incr cut;
        try ignore (Effect.Deep.discontinue conts.(v) Run_ended) with _ -> ()
      end
    done;
    !cut

  let no_broadcasters : int array = [||]

  (* What both round loops keep per run: the per-process arrays and
     slots (fiber [v] stands at [state.(v)], one of the [st_*] bytes,
     with continuation [conts.(v)]; [sends.(v)] is its [Send m] while it
     broadcasts; [park.(v)] and [hear.(v)] are its park and hear slots,
     see [ctx]), the round
     counter, and the counts that make up [stats]. *)
  type 'a common = {
    nn : int;
    root_rng : Rng.t;
    adv_root : Rng.t; (* the adversary's streams derive from it per round *)
    wake : int array;
    outputs : int option array;
    decided : int option array;
    returns : 'a option array;
    state : Bytes.t;
    conts : (receive, stopped) Effect.Deep.continuation array;
    sends : receive Effect.t array;
    park : int array;
    park_start : int array; (* first round of a parked fiber's stretch *)
    hear : (int -> M.t -> bool) array;
    mutable round : int;
    mutable sent : int;
    mutable bits : int;
    mutable delivered : int;
    mutable collided : int;
    mutable silent : int;
    mutable timed_out : bool;
  }

  let common cfg =
    let nn = Dual.n cfg.dual in
    let root_rng = Rng.create cfg.seed in
    let wake = match cfg.wake with Some w -> Array.copy w | None -> Array.make nn 1 in
    Array.iteri
      (fun v w -> if w < 1 then invalid_arg (Printf.sprintf "Engine.run: wake.(%d) < 1" v))
      wake;
    {
      nn;
      root_rng;
      adv_root = Rng.derive root_rng 0x5EED;
      wake;
      outputs = Array.make nn None;
      decided = Array.make nn None;
      returns = Array.make nn None;
      state = Bytes.make nn st_none;
      conts = Array.make nn sentinel;
      sends = Array.make nn Listen;
      park = Array.make nn 0;
      park_start = Array.make nn 0;
      hear = Array.make nn wake_on_recv;
      round = 0;
      sent = 0;
      bits = 0;
      delivered = 0;
      collided = 0;
      silent = 0;
      timed_out = false;
    }

  (* Record process [v]'s output [value] in the current round; true on
     its first output. *)
  let first_output c v value =
    match c.outputs.(v) with
    | Some old when old <> value ->
      invalid_arg (Printf.sprintf "Engine: process %d re-output %d after %d" v value old)
    | Some _ -> false
    | None ->
      c.outputs.(v) <- Some value;
      c.decided.(v) <- Some c.round;
      true

  (* Start [body] as process [v]'s fiber; evaluates to where it
     stopped. *)
  let launch (cfg : config) c current_detector do_output body v =
    let ctx =
      {
        me = v;
        n = c.nn;
        delta_bound = cfg.delta_bound;
        b_bits = cfg.b_bits;
        rng = Rng.derive c.root_rng (v + 1);
        local_round = 0;
        current_detector;
        do_output;
        park = c.park;
        hear = c.hear;
        raised = None;
      }
    in
    Effect.Deep.match_with
      (fun () -> c.returns.(v) <- Some (body ctx))
      ()
      (handler c.state c.sends v)

  (* Count broadcaster [v]'s send and enforce the bound b on its size,
     which it returns so the broadcast event can carry it. *)
  let check_send (cfg : config) c v =
    c.sent <- c.sent + 1;
    let m = payload c.sends.(v) in
    let sz = M.size_bits ~n:c.nn m in
    c.bits <- c.bits + sz;
    (match cfg.b_bits with
    | Some b when sz > b ->
      invalid_arg
        (Format.asprintf "Engine: process %d sent %d bits > b=%d in round %d: %a" v sz b
           c.round M.pp m)
    | _ -> ());
    sz

  let result c : _ result =
    {
      outputs = c.outputs;
      returns = c.returns;
      rounds = c.round;
      decided_round = c.decided;
      stats =
        {
          rounds = c.round;
          sends = c.sent;
          deliveries = c.delivered;
          collisions = c.collided;
          bits_sent = c.bits;
          silent_rounds = c.silent;
        };
      timed_out = c.timed_out;
    }

  let view c broadcasters =
    {
      view_round = c.round;
      view_broadcasters = broadcasters;
      view_outputs = c.outputs;
      view_decided = c.decided;
    }

  (* Memoise a dynamic detector once it has stabilised (static detectors
     stabilise at round 0), so the common query path is one load instead of
     a closure call per query. *)
  let detector_query dyn c =
    match Detector.stabilizes_at dyn with
    | None -> fun () -> Detector.at dyn c.round
    | Some s ->
      let cache = ref None in
      fun () ->
        (match !cache with
        | Some d -> d
        | None ->
          let d = Detector.at dyn c.round in
          if c.round >= s then cache := Some d;
          d)

  let run cfg body =
    let met = Metrics.enabled () in
    let c = common cfg in
    let { nn; wake = wake_rounds; state; conts; sends; park; park_start; hear; _ } = c in
    let dual = cfg.dual in
    let g = Dual.g dual in
    let adv_rng = Rng.create 0 (* re-derived from [c.adv_root] every round *) in
    (* Event tracing: sampled once per run.  [emit] only ever appends to
       the sink's ring buffer — it reads no RNG and mutates no engine
       state, so a traced run is byte-identical to an untraced one.  A
       sink keeps the resume in one slice, so Decide events come out in
       step order, as it keeps delivery scalar and every round on
       [Adversary.visit]. *)
    let tracing, emit =
      match cfg.sink with
      | Some s -> (true, fun e -> Events.emit s e)
      | None -> (false, fun (_ : Events.event) -> ())
    in
    let resume_shards = if tracing then 1 else cfg.resume_shards in
    (* Fibers whose body returned and processes that decided, counted on
       whichever domain stepped them: once per process per run. *)
    let n_finished = Atomic.make 0 and n_decided = Atomic.make 0 in
    let do_output v value =
      if first_output c v value then begin
        Atomic.incr n_decided;
        if tracing then emit { Events.round = c.round; proc = v; kind = Decide { value } }
      end
    in
    let current_detector = detector_query cfg.detector c in
    let discontinued = ref 0 in
    (* Live worklist: [active.(0 .. n_active-1)] are the fibers synced
       for the current round. *)
    let active = Array.make (max 1 nn) 0 in
    let n_active = ref 0 in
    (* Parked fibers, min-heap keyed by the round at whose end their
       stretch expires.  At most one entry per fiber; [heap_pos.(v)] is
       fiber [v]'s slot, so a listener woken early leaves the heap at
       once instead of lingering as a stale entry. *)
    let heap_r = Array.make (max 1 nn) 0 in
    let heap_v = Array.make (max 1 nn) 0 in
    let heap_pos = Array.make (max 1 nn) (-1) in
    let heap_n = ref 0 in
    let heap_set i r v =
      heap_r.(i) <- r;
      heap_v.(i) <- v;
      heap_pos.(v) <- i
    in
    let heap_swap i j =
      let tr = heap_r.(i) and tv = heap_v.(i) in
      heap_set i heap_r.(j) heap_v.(j);
      heap_set j tr tv
    in
    let rec sift_up i =
      if i > 0 then begin
        let p = (i - 1) / 2 in
        if heap_r.(p) > heap_r.(i) then begin
          heap_swap p i;
          sift_up p
        end
      end
    in
    let rec sift_down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let s = if l < !heap_n && heap_r.(l) < heap_r.(i) then l else i in
      let s = if r < !heap_n && heap_r.(r) < heap_r.(s) then r else s in
      if s <> i then begin
        heap_swap i s;
        sift_down s
      end
    in
    let heap_push r v =
      let i = !heap_n in
      incr heap_n;
      heap_set i r v;
      sift_up i
    in
    let heap_min () = if !heap_n = 0 then max_int else heap_r.(0) in
    let heap_remove_at i =
      let v = heap_v.(i) in
      decr heap_n;
      heap_pos.(v) <- -1;
      if i < !heap_n then begin
        heap_set i heap_r.(!heap_n) heap_v.(!heap_n);
        sift_down i;
        sift_up i
      end;
      v
    in
    let heap_pop () = heap_remove_at 0 in
    let heap_remove v = ignore (heap_remove_at heap_pos.(v)) in
    (* Listeners a delivery woke this round, in delivery-discovery order. *)
    let woken = Array.make (max 1 nn) 0 in
    let n_woken = ref 0 in
    let push_woken v =
      woken.(!n_woken) <- v;
      incr n_woken
    in
    let resumes = ref 0 and listen_wakes = ref 0 and listen_heard = ref 0 in
    let kernel_rounds = ref 0 in
    let declared_rounds = ref 0 in
    (* Wake queue: node ids sorted by (wake round, id); [wake_ptr] advances
       monotonically, so the wake phase costs O(#wakers this round). *)
    let wake_order = Array.init nn (fun i -> i) in
    Array.sort
      (fun a b ->
        let d = compare wake_rounds.(a) wake_rounds.(b) in
        if d <> 0 then d else compare a b)
      wake_order;
    let wake_ptr = ref 0 in
    let next_wake () =
      if !wake_ptr >= nn then max_int else wake_rounds.(wake_order.(!wake_ptr))
    in
    (* The resume's work list, and one buffer per slice.  Slice 0 also
       takes the wake phase's fibers, so it holds all n; a round cut in k
       slices steps at most n/k + 1 fibers in each other one. *)
    let work = Array.make (max 1 nn) 0 in
    let n_work = ref 0 in
    let slices =
      Array.init resume_shards (fun s ->
          let cap = if s = 0 then nn else (nn / resume_shards) + 1 in
          { buf = Array.make (max 1 cap) 0; joins = 0; parks = 0 })
    in
    (* Record where fiber [v] stopped in slice [b]: a finished fiber is
       counted, a synced one joins from the front and a parked one from
       the back.  Runs on whichever domain stepped [v]. *)
    let settle b v (Stopped k) =
      conts.(v) <- k;
      let s = Bytes.unsafe_get state v in
      if s = st_none then Atomic.incr n_finished
      else if s < st_idle then begin
        b.buf.(b.joins) <- v;
        b.joins <- b.joins + 1
      end
      else begin
        b.parks <- b.parks + 1;
        b.buf.(Array.length b.buf - b.parks) <- v
      end
    in
    (* On the calling domain: slice [b]'s synced fibers join the
       worklist, and its parks, whose stretches start at round [base],
       enter the heap in the order they parked. *)
    let merge base b =
      Array.blit b.buf 0 active !n_active b.joins;
      n_active := !n_active + b.joins;
      let top = Array.length b.buf - 1 in
      for i = 0 to b.parks - 1 do
        let v = b.buf.(top - i) in
        park_start.(v) <- base;
        heap_push (park_expiry base park.(v)) v
      done;
      b.joins <- 0;
      b.parks <- 0
    in
    (* Delivery scratch, reset via the touched list each round.  A unique
       broadcaster is remembered by id ([recv_from]) rather than by boxing
       its message.  [touch u v _] counts [u]'s message at [v]; it takes
       (and ignores) an edge id so that it is itself the visitor a
       [Chosen] round hands [Adversary.visit]. *)
    let recv_count = Array.make nn 0 in
    let recv_from = Array.make nn (-1) in
    let touched = Array.make (max 1 nn) 0 in
    let n_touched = ref 0 in
    let touch u v (_ : int) =
      if recv_count.(v) = 0 then begin
        touched.(!n_touched) <- v;
        incr n_touched;
        recv_from.(v) <- u
      end;
      recv_count.(v) <- recv_count.(v) + 1
    in
    let bcast = Array.make (max 1 nn) 0 in
    let n_bcast = ref 0 in
    (* Word-parallel delivery kernel scratch.  On a dense round the
       once/twice saturating accumulators classify every node at once —
       receives = once ∧ ¬twice ∧ listeners, collisions = twice ∧
       listeners — instead of per-edge touches.  A few words per 63
       nodes each, cheap enough to preallocate unconditionally. *)
    let k_once = Bitset.create nn in
    let k_twice = Bitset.create nn in
    let k_sync = Bitset.create nn in
    let k_parked = Bitset.create nn in
    let k_listen = Bitset.create nn in
    let k_recv = Bitset.create nn in
    let k_words = Bitset.word_count k_once in
    (* The resume's Pool, created on its first round cut in more than one
       slice and shut down when the run ends. *)
    let pool = ref None in
    let get_pool () =
      match !pool with
      | Some p -> p
      | None ->
        let p = Pool.create ~jobs:resume_shards in
        pool := Some p;
        p
    in
    (* Once the dense kernel's (once, twice) pair sits in [k_once]/[k_twice],
       classify every node word-parallel — receives = once ∧ ¬twice ∧
       listeners, collisions = twice ∧ listeners, where every synced or
       parked fiber listens — update the counters, leave the receivers
       that take the message (synced fibers and [listen]ers) in [k_recv],
       and report whether there are any. *)
    let kernel_classify () =
      Bitset.clear k_sync;
      Bitset.clear k_parked;
      Bitset.clear k_listen;
      for i = 0 to !n_active - 1 do
        let v = active.(i) in
        if Bytes.unsafe_get state v = st_listen then Bitset.add k_sync v
      done;
      for i = 0 to !heap_n - 1 do
        let v = heap_v.(i) in
        Bitset.add k_parked v;
        if Bytes.unsafe_get state v = st_wait then Bitset.add k_listen v
      done;
      let any_recv = ref false in
      for w = 0 to k_words - 1 do
        let once = Bitset.get_word k_once w in
        let twice = Bitset.get_word k_twice w in
        let sy = Bitset.get_word k_sync w in
        let listen = sy lor Bitset.get_word k_parked w in
        let recv = once land lnot twice in
        c.delivered <- c.delivered + Bitset.popcount_word (recv land listen);
        c.collided <- c.collided + Bitset.popcount_word (twice land listen);
        let hit = recv land (sy lor Bitset.get_word k_listen w) in
        if hit <> 0 then any_recv := true;
        Bitset.set_word k_recv w hit
      done;
      !any_recv
    in
    (* Receive buffer; all-[Silence] between rounds (entries are reset as
       they are consumed by the resume phase). *)
    let receives = Array.make nn Silence in
    (* Broadcaster [u]'s [Recv m], built at its first delivery and kept
       in [u]'s own receive slot, which nothing else writes before the
       end of delivery overwrites it with [Own]: one [Recv m] per
       sender, shared by its receivers, on either delivery path. *)
    let sender_recv u =
      match receives.(u) with
      | Recv _ as m -> m
      | Own | Silence ->
        let m = Recv (payload sends.(u)) in
        receives.(u) <- m;
        m
    in
    (* Scalar hand-off of the unique sender's message to receiver [v]. *)
    let hand_off v = receives.(v) <- sender_recv recv_from.(v) in
    (* Visitors handed to [Adversary.visit] on a [Chosen] round, built
       once per run.  The scalar path touches each visited receiver; a
       traced run also counts the distinct active edges for its [Gray]
       event: an edge with one broadcasting end is visited once, and
       one joining two broadcasters (both [st_send]) is deduplicated. *)
    let n_gray = ref 0 in
    let gray_seen = Hashtbl.create 16 in
    let touch_gray =
      if not tracing then touch
      else fun u v e ->
        if Bytes.unsafe_get state v <> st_send then incr n_gray
        else if not (Hashtbl.mem gray_seen e) then begin
          Hashtbl.add gray_seen e ();
          incr n_gray
        end;
        touch u v e
    in
    (* The kernel's first sweep feeds the accumulator pair from the
       visit; its second sweep hands [!sweep_recv], the current
       broadcaster's [Recv m], to the receivers in [k_recv] on its
       adjacency row through [assign_recv], and revisits the round's
       active gray edges through [assign_gray]. *)
    let acc_gray _ v _ = Bitset.acc2_add ~once:k_once ~twice:k_twice v in
    let sweep_recv = ref Silence in
    let assign_recv v = receives.(v) <- !sweep_recv in
    let assign_gray u v _ = if Bitset.mem k_recv v then receives.(v) <- sender_recv u in
    (* The [live] predicates handed to [Adversary.visit] with those
       visitors, built once per run: the receivers a visited edge can
       still change.  The scalar path runs after every G touch, so a
       node already touched twice is collided and a broadcaster or a
       finished fiber receives nothing; a traced run passes none, so
       its [Gray] event counts every active edge.  The kernel's first
       sweep skips nodes already in [k_twice], its second every node
       outside [k_recv]. *)
    let live_scalar =
      if tracing then None
      else
        Some
          (fun v ->
            recv_count.(v) < 2
            &&
            let s = Bytes.unsafe_get state v in
            s <> st_none && s <> st_send)
    in
    let live_acc = Some (fun v -> not (Bitset.mem k_twice v)) in
    let live_assign = Some (fun v -> Bitset.mem k_recv v) in
    (* Resume fiber [v] at the end of round [r]: a synced fiber with its
       receive, a parked one with the [Recv m] that woke it (its stretch
       index written to its park slot first) or with [Silence] when its
       stretch expired.  Runs on a Pool domain when the resume is cut in
       slices, touching only [v]'s own slots.  Evaluates to where the
       fiber stopped next, for [settle].  The slot keeps the continuation
       until [settle] overwrites it with the next one: overwriting it
       before [continue], while the major GC marks, would make the write
       barrier mark it with its stack still attached and scan that whole
       stack on the spot. *)
    let step r v =
      let k = conts.(v) in
      let s = Bytes.unsafe_get state v in
      Bytes.unsafe_set state v st_none;
      let recv = receives.(v) in
      if s < st_idle then begin
        receives.(v) <- Silence;
        if s = st_send then sends.(v) <- Listen;
        Effect.Deep.continue k recv
      end
      else
        match recv with
        | Recv _ ->
          receives.(v) <- Silence;
          park.(v) <- r - park_start.(v) + 1;
          Effect.Deep.continue k recv
        | Own | Silence -> Effect.Deep.continue k Silence
    in
    let stop_now () =
      match cfg.stop with
      | All_done -> Atomic.get n_finished = nn
      | All_decided -> Atomic.get n_decided = nn || Atomic.get n_finished = nn
      | At_round r -> c.round >= r
    in
    (* The phase profile: nanoseconds and entries per phase, summed here
       and added to the [Timing] counters at the end of the run. *)
    let ff_skipped = ref 0 in
    let t_mark = ref 0 in
    let phase_ns = Array.make Timing.n_sections 0 in
    let phase_entries = Array.make Timing.n_sections 0 in
    let p_start () = if met then t_mark := Timing.now_ns () in
    let p_stop sec =
      if met then begin
        let i = Timing.index sec in
        phase_ns.(i) <- phase_ns.(i) + (Timing.now_ns () - !t_mark);
        phase_entries.(i) <- phase_entries.(i) + 1
      end
    in
    let rs =
      {
        r = 0;
        broadcasters = no_broadcasters;
        reach = Adversary.No_gray;
        kernel = false;
        slices = 1;
      }
    in
    (* Fast-forward: with no synced fiber and no observer, every round
       before the next wake or park expiry is a no-op — nothing
       broadcasts, so no parked listener can be woken, and the per-round
       adversary derivation guarantees the skipped draws cannot influence
       later rounds.  Jump there in one step. *)
    let fast_forward () =
      if !n_active = 0 && cfg.observer = None then begin
        let cap =
          match cfg.stop with
          | At_round tgt -> min tgt cfg.max_rounds
          | All_done | All_decided -> cfg.max_rounds
        in
        let target = min (min (next_wake ()) (heap_min ()) - 1) cap in
        if target > c.round then begin
          let skipped = target - c.round in
          c.silent <- c.silent + skipped;
          ff_skipped := !ff_skipped + skipped;
          c.round <- target;
          if tracing then
            emit { Events.round = target; proc = -1; kind = Skip { rounds = skipped } }
        end
      end
    in
    (* 1. Open the next round (or time out), and start the processes
       scheduled to wake in it: they run to their first sync or park and
       thereby register this round's intent. *)
    let wake rs =
      if c.round >= cfg.max_rounds then begin
        c.timed_out <- true;
        raise Exit
      end;
      c.round <- c.round + 1;
      rs.r <- c.round;
      p_start ();
      let b = slices.(0) in
      while !wake_ptr < nn && wake_rounds.(wake_order.(!wake_ptr)) = rs.r do
        let v = wake_order.(!wake_ptr) in
        incr wake_ptr;
        if tracing then emit { Events.round = rs.r; proc = v; kind = Wake };
        settle b v (launch cfg c current_detector do_output body v)
      done;
      merge rs.r b;
      p_stop Timing.Wake
    in
    (* 2. Collect the broadcasters (live fibers only) and enforce the
       message-size bound. *)
    let collect rs =
      p_start ();
      n_bcast := 0;
      for i = 0 to !n_active - 1 do
        let v = active.(i) in
        if Bytes.unsafe_get state v = st_send then begin
          bcast.(!n_bcast) <- v;
          incr n_bcast
        end
      done;
      rs.broadcasters <-
        (if !n_bcast = 0 then no_broadcasters
         else begin
           let a = Array.sub bcast 0 !n_bcast in
           (* ascending already whenever [active] is (every round of a
              beacon): then the sort is one scan *)
           Int_sort.sort a;
           a
         end);
      for j = 0 to !n_bcast - 1 do
        let v = rs.broadcasters.(j) in
        let sz = check_send cfg c v in
        if tracing then emit { Events.round = rs.r; proc = v; kind = Broadcast { bits = sz } }
      done;
      if met then Metrics.observe m_round_bcast !n_bcast;
      if !n_bcast = 0 then c.silent <- c.silent + 1;
      p_stop Timing.Collect
    in
    (* 3. The adversary declares the round's reach.  A [Chosen] round
       only derives its stream here, fresh for this round: delivery
       draws the gray edges that behave reliably inside
       [Adversary.visit], so its draws are timed under [Deliver].
       Tracing keeps every round on [visit], so its [Gray] events are
       those of the oracle's [choose]. *)
    let adversary rs =
      if !n_bcast > 0 then begin
        rs.reach <-
          (if tracing then Adversary.Chosen
           else Adversary.reach cfg.adversary ~broadcasters:rs.broadcasters);
        if rs.reach <> Adversary.Chosen then incr declared_rounds
        else begin
          p_start ();
          Rng.derive_into adv_rng ~parent:c.adv_root rs.r;
          p_stop Timing.Adversary
        end
      end
    in
    let visit rs live f =
      Adversary.visit cfg.adversary ?live ~round:rs.r ~broadcasters:rs.broadcasters dual adv_rng
        f
    in
    (* The delivery kernel wins when the edge touches it saves outweigh
       its cost: two word sweeps per broadcaster and rebuilding the
       listener masks from the worklist and the heap.  It saves the
       broadcasters' G degrees, plus their gray degrees on an
       [All_incident] round.  On a [Chosen] round it walks the same gray
       edges the scalar path walks, and walks them a second time when
       anyone receives, so that second walk counts against it. *)
    let kernel_wins reach =
      let sum = ref 0 in
      for i = 0 to !n_bcast - 1 do
        let u = bcast.(i) in
        sum :=
          !sum + Graph.degree g u
          +
          match reach with
          | Adversary.All_incident -> Dual.gray_degree dual u
          | Adversary.Chosen -> -Dual.gray_degree dual u
          | Adversary.No_gray -> 0
      done;
      !sum > (((2 * !n_bcast) + 8) * k_words) + !n_active + !heap_n
    in
    (* Reach as word-parallel row ORs: N_G'(u) on an [All_incident]
       round, else N_G(u) plus, on a [Chosen] round, the edges the
       adversary's visit reaches.  The second sweep hands each receiver
       its sender's message; the sender is unique because an
       exactly-one-sender node lies in exactly one broadcaster's reach
       set.  It is skipped outright when nobody received (the common
       case under heavy contention); otherwise a [Chosen] round
       re-derives the same stream and revisits the same edges. *)
    let deliver_kernel rs =
      let rows =
        if rs.reach = Adversary.All_incident then Dual.reach_rows dual else Graph.adj_rows g
      in
      let chosen = rs.reach = Adversary.Chosen in
      Bitset.clear k_once;
      Bitset.clear k_twice;
      for j = 0 to !n_bcast - 1 do
        Bitset.acc2_or_into ~once:k_once ~twice:k_twice rows.(rs.broadcasters.(j))
      done;
      if chosen then visit rs live_acc acc_gray;
      if kernel_classify () then begin
        for j = 0 to !n_bcast - 1 do
          let u = rs.broadcasters.(j) in
          (* one [Recv m] shared by all of [u]'s receivers *)
          sweep_recv := sender_recv u;
          Bitset.iter_inter assign_recv rows.(u) k_recv
        done;
        if chosen then begin
          Rng.derive_into adv_rng ~parent:c.adv_root rs.r;
          visit rs live_assign assign_gray
        end;
        Bitset.iter_inter push_woken k_recv k_listen
      end
    in
    (* Per-edge touches along G, then along the round's gray reach (on a
       [Chosen] round, inside the adversary's visit), then one pass over
       the touched nodes.  Every synced or parked fiber listens:
       [idle]rs discard the message, [listen]ers wake with it. *)
    let deliver_scalar rs =
      n_touched := 0;
      for j = 0 to !n_bcast - 1 do
        let u = rs.broadcasters.(j) in
        for i = Graph.row_lo g u to Graph.row_hi g u - 1 do
          touch u (Graph.nbr_at g i) 0
        done;
        if rs.reach = Adversary.All_incident then
          for i = Dual.gray_lo dual u to Dual.gray_hi dual u - 1 do
            touch u (Dual.gray_nbr_at dual i) 0
          done
      done;
      if rs.reach = Adversary.Chosen then begin
        visit rs live_scalar touch_gray;
        if tracing then begin
          let active = !n_gray and total = Dual.gray_count dual in
          emit { Events.round = rs.r; proc = -1; kind = Gray { active; total } };
          n_gray := 0;
          Hashtbl.clear gray_seen
        end
      end;
      for i = 0 to !n_touched - 1 do
        let v = touched.(i) in
        let s = Bytes.unsafe_get state v in
        (if s <> st_none && s <> st_send then
           if recv_count.(v) = 1 then begin
             if s = st_listen then hand_off v
             else if s = st_wait then begin
               hand_off v;
               push_woken v
             end;
             c.delivered <- c.delivered + 1;
             if tracing then
               emit { Events.round = rs.r; proc = v; kind = Deliver { src = recv_from.(v) } }
           end
           else begin
             c.collided <- c.collided + 1;
             if tracing then begin
               let senders = recv_count.(v) in
               emit { Events.round = rs.r; proc = v; kind = Collide { senders } }
             end
           end);
        recv_count.(v) <- 0;
        recv_from.(v) <- -1
      done
    in
    (* 4. Deliveries along E plus the round's gray reach, on the path the
       cost model picks.  The kernel is only a faster evaluation of the
       same collision rule — counts and receives are identical by
       construction (certified by test_engine_paths) — but it cannot emit
       per-receiver events, so a sink forces the scalar path. *)
    let deliver rs =
      if !n_bcast > 0 then begin
        p_start ();
        rs.kernel <- (not tracing) && kernel_wins rs.reach;
        if rs.kernel then begin
          incr kernel_rounds;
          deliver_kernel rs
        end
        else deliver_scalar rs;
        for j = 0 to !n_bcast - 1 do
          receives.(rs.broadcasters.(j)) <- Own
        done;
        p_stop Timing.Deliver
      end
    in
    (* Step slice [s] of the [rs.slices] cut of the work list into its
       buffer; on a Pool domain when there is more than one slice.  The
       run's Pool domains exit with it, so each sizes its minor heap to
       its share of the fibers at its first step and never restores it. *)
    let slice_heap = minor_heap_words_per_fiber * (nn / max 1 resume_shards) in
    let step_slice s =
      let b = slices.(s) and m = !n_work and k = rs.slices in
      if k > 1 then ignore (grow_minor_heap slice_heap);
      for i = s * m / k to ((s + 1) * m / k) - 1 do
        let v = work.(i) in
        settle b v (step rs.r v)
      done
    in
    (* Hand each listener a delivery reached its receive, on this domain
       and in delivery order: its callback takes the stretch index and
       the message.  A listener whose callback wakes it leaves the heap
       and stays in [woken]; one whose callback declines keeps its heap
       entry and gets [Silence] back in its receive slot. *)
    let hear_woken r =
      let kept = ref 0 in
      for j = 0 to !n_woken - 1 do
        let v = woken.(j) in
        match receives.(v) with
        | Recv m when not (hear.(v) (r - park_start.(v) + 1) m) -> receives.(v) <- Silence
        | Recv _ | Own | Silence ->
          heap_remove v;
          woken.(!kept) <- v;
          incr kept
      done;
      listen_heard := !listen_heard + !n_woken - !kept;
      n_woken := !kept
    in
    (* 5. Resume every fiber whose receive is due.  The woken listeners'
       callbacks run first.  Then the work list is fixed: the synced
       fibers in worklist order, the listeners their callbacks woke, then
       the parks expiring this round in heap-pop order.  [idle] and
       [listen] park for at least one round, so a park a step performs
       has a key >= r+1 and the due set cannot grow while the list is
       stepped.  The list is cut into [rs.slices] contiguous slices —
       [resume_shards] of them on Pool domains when enough fibers await,
       else one on this domain — and the slices' buffers are merged in
       slice order.  All receives were computed before any resume, so
       next-round intents cannot bleed into this round. *)
    let resume rs =
      p_start ();
      hear_woken rs.r;
      Array.blit active 0 work 0 !n_active;
      Array.blit woken 0 work !n_active !n_woken;
      n_work := !n_active + !n_woken;
      while !heap_n > 0 && heap_r.(0) = rs.r do
        work.(!n_work) <- heap_pop ();
        incr n_work
      done;
      listen_wakes := !listen_wakes + !n_woken;
      resumes := !resumes + !n_work;
      n_woken := 0;
      n_active := 0;
      rs.slices <- (if !n_work >= resume_shard_threshold then resume_shards else 1);
      if rs.slices = 1 then step_slice 0
      else begin
        if met then begin
          Metrics.incr m_resume_shard_rounds;
          Metrics.add m_resume_shard_steps !n_work
        end;
        Pool.run_n (get_pool ()) step_slice rs.slices
      end;
      for s = 0 to rs.slices - 1 do
        merge (rs.r + 1) slices.(s)
      done;
      p_stop Timing.Resume
    in
    let observe rs =
      match cfg.observer with Some f -> f (view c rs.broadcasters) | None -> ()
    in
    (* The minor heap is per domain (OCaml 5): this sizes the calling
       domain's, for this run only.  The allocation counters are read
       inside the resize, which they would count as allocation. *)
    let heap0 = (Gc.get ()).Gc.minor_heap_size in
    let grown = grow_minor_heap (minor_heap_words_per_fiber * nn) in
    let gc_words () =
      let minor, promoted, _ = Gc.counters () in
      (minor, promoted)
    in
    let words0 = if met then gc_words () else (0.0, 0.0) in
    let words1 = ref words0 in
    Fun.protect
      ~finally:(fun () ->
        (match !pool with Some p -> Pool.shutdown p | None -> ());
        discontinued := discontinue_all state conts;
        if met then words1 := gc_words ();
        if grown then Gc.set { (Gc.get ()) with Gc.minor_heap_size = heap0 })
      (fun () ->
        try
          while not (stop_now ()) do
            fast_forward ();
            if not (stop_now ()) then begin
              wake rs;
              collect rs;
              adversary rs;
              deliver rs;
              resume rs;
              observe rs
            end
          done
        with Exit -> ());
    if met then begin
      List.iter
        (fun sec ->
          Metrics.add (Timing.phase_ns sec) phase_ns.(Timing.index sec);
          Metrics.add (Timing.phase_entries sec) phase_entries.(Timing.index sec))
        Timing.sections;
      Metrics.add Timing.rounds_executed (c.round - !ff_skipped);
      Metrics.add Timing.rounds_fast_forwarded !ff_skipped;
      Metrics.incr m_runs;
      Metrics.add m_rounds c.round;
      Metrics.add m_sends c.sent;
      Metrics.add m_deliveries c.delivered;
      Metrics.add m_collisions c.collided;
      Metrics.add m_bits_sent c.bits;
      Metrics.add m_silent_rounds c.silent;
      Metrics.add Timing.resumes !resumes;
      Metrics.add m_listen_wakes !listen_wakes;
      Metrics.add Timing.listen_heard !listen_heard;
      Metrics.add m_kernel_rounds !kernel_rounds;
      Metrics.add m_declared_reach_rounds !declared_rounds;
      if c.timed_out then Metrics.incr m_timeouts;
      Metrics.observe m_run_rounds c.round;
      let (minor0, promoted0), (minor1, promoted1) = (words0, !words1) in
      Metrics.add m_minor_words (int_of_float (minor1 -. minor0));
      Metrics.add m_promoted_words (int_of_float (promoted1 -. promoted0));
      Metrics.add m_discontinued !discontinued
    end;
    result c

  (* Straightforward reference implementation: full 0..n-1 scans every
     round, no worklist, no fast-forward, adversary consulted every round
     (its per-round derived draws in broadcaster-free rounds are discarded,
     which is exactly the invariant that makes [run]'s skip sound).  Kept
     as the differential-testing oracle for [run]; see
     test/test_engine_paths.ml.  It shares [run]'s setup, output
     recording, send check and result assembly, and keeps its own wake,
     delivery, receive computation and stepping.  It queries the detector
     every round, so a detector whose [at] keeps changing after its
     declared [stabilizes_at] makes the two disagree: [run] serves the
     first value it queried at or after that round.

     [cfg.sink] is ignored here on purpose: event emission is untestable
     by differencing (it is defined as having no observable effect on the
     result), and keeping the oracle free of instrumentation means the
     equivalence tests also certify that tracing never leaks into [run]'s
     semantics. *)
  let run_reference cfg body =
    let c = common cfg in
    let { nn; wake; state; conts; sends; park; park_start; hear; outputs; _ } = c in
    let dual = cfg.dual in
    let status = Array.make nn Asleep in
    let resume_round = Array.make nn 0 in
    let do_output v value = ignore (first_output c v value) in
    let current_detector () = Detector.at cfg.detector c.round in
    (* Record where fiber [v] stopped: a parked fiber's stretch starts
       at [park_base] and ends at [resume_round.(v)]. *)
    let park_base = ref 0 in
    let settle v (Stopped k) =
      conts.(v) <- k;
      let s = Bytes.get state v in
      if s = st_none then status.(v) <- Finished
      else if s >= st_idle then begin
        park_start.(v) <- !park_base;
        resume_round.(v) <- park_expiry !park_base park.(v)
      end
    in
    let resume v recv =
      Bytes.set state v st_none;
      settle v (Effect.Deep.continue conts.(v) recv)
    in
    let start v =
      status.(v) <- Running;
      settle v (launch cfg c current_detector do_output body v)
    in
    let recv_count = Array.make nn 0 in
    let recv_msg : M.t option array = Array.make nn None in
    let touched = ref [] in
    let gray_active = Bitset.create (max 1 (Dual.gray_count dual)) in
    let receives = Array.make nn Silence in
    let g = Dual.g dual in
    let finished () = Array.for_all (fun s -> s = Finished) status in
    let decided_all () = Array.for_all (fun o -> o <> None) outputs in
    let stop_now () =
      match cfg.stop with
      | All_done -> finished ()
      | All_decided -> decided_all () || finished ()
      | At_round r -> c.round >= r
    in
    Fun.protect
      ~finally:(fun () -> ignore (discontinue_all state conts))
      (fun () ->
        try
          while not (stop_now ()) do
            if c.round >= cfg.max_rounds then begin
              c.timed_out <- true;
              raise Exit
            end;
            c.round <- c.round + 1;
            let r = c.round in
            (* 1. Wake. *)
            park_base := r;
            for v = 0 to nn - 1 do
              if status.(v) = Asleep && wake.(v) = r then start v
            done;
            (* 2. Collect broadcasters and enforce the message-size bound. *)
            let bcast = ref [] in
            for v = nn - 1 downto 0 do
              if Bytes.get state v = st_send then bcast := v :: !bcast
            done;
            let broadcasters = Array.of_list !bcast in
            Array.iter (fun v -> ignore (check_send cfg c v)) broadcasters;
            if Array.length broadcasters = 0 then c.silent <- c.silent + 1;
            (* 3. Adversary, from this round's derived stream. *)
            Bitset.clear gray_active;
            let adv_rng = Rng.derive c.adv_root r in
            Adversary.choose cfg.adversary ~round:r ~broadcasters dual adv_rng gray_active;
            (* 4. Deliveries along E plus activated gray edges. *)
            let touch v m =
              if recv_count.(v) = 0 then touched := v :: !touched;
              recv_count.(v) <- recv_count.(v) + 1;
              recv_msg.(v) <- Some m
            in
            Array.iter
              (fun u ->
                let m = payload sends.(u) in
                Graph.iter_neighbors (fun v -> touch v m) g u;
                Dual.iter_gray_adj
                  (fun v e -> if Bitset.mem gray_active e then touch v m)
                  dual u)
              broadcasters;
            (* 5. Receives for every live fiber — parked fibers count towards
               deliveries/collisions; [idle]rs discard the payload, [listen]ers
               keep it and wake. *)
            for v = 0 to nn - 1 do
              receives.(v) <- Silence;
              let s = Bytes.get state v in
              if s <> st_none then
                if s = st_send then receives.(v) <- Own
                else if recv_count.(v) = 1 then begin
                  (if s = st_listen || s = st_wait then
                     match recv_msg.(v) with
                     | Some m -> receives.(v) <- Recv m
                     | None -> assert false);
                  c.delivered <- c.delivered + 1
                end
                else if recv_count.(v) >= 2 then c.collided <- c.collided + 1
            done;
            List.iter
              (fun v ->
                recv_count.(v) <- 0;
                recv_msg.(v) <- None)
              !touched;
            touched := [];
            (* 6. Resume synced fibers (consuming their receives), then
               parked fibers whose callback a message woke or whose
               stretch ends now. *)
            park_base := r + 1;
            for v = 0 to nn - 1 do
              let s = Bytes.get state v in
              if s = st_listen || s = st_send then begin
                let recv = receives.(v) in
                receives.(v) <- Silence;
                sends.(v) <- Listen;
                resume v recv
              end
            done;
            for v = 0 to nn - 1 do
              let s = Bytes.get state v in
              if s = st_idle || s = st_wait then
                match receives.(v) with
                | Recv m as recv when hear.(v) (r - park_start.(v) + 1) m ->
                  park.(v) <- r - park_start.(v) + 1;
                  resume v recv
                | Recv _ | Own | Silence -> if resume_round.(v) = r then resume v Silence
            done;
            match cfg.observer with Some f -> f (view c broadcasters) | None -> ()
          done
        with Exit -> ());
    result c
end

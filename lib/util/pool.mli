(** Fixed-size domain pool for embarrassingly parallel experiment cells.

    The harness's workloads are independent [(experiment, n, seed)] cells
    whose randomness is derived deterministically from the cell itself, so
    a parallel map and a sequential map must produce identical results.
    [map ~jobs:1] degenerates to [List.map] — same order of evaluation,
    same exceptions, no domains spawned — so sequential semantics stay
    byte-identical. *)

(** [recommended_jobs ()] is [Domain.recommended_domain_count () - 1]
    (leaving one core for the coordinating domain), at least 1 and capped
    at [cap] (default 16). *)
val recommended_jobs : ?cap:int -> unit -> int

(** [map ~jobs f xs] maps [f] over [xs], preserving input order.

    With [jobs <= 1] this is exactly [List.map f xs].  Otherwise a
    transient pool of [min jobs (List.length xs)] worker domains drains
    the cells from a shared queue.  If cells raise, the exception of the
    failing cell with the lowest index — the one [List.map] would raise —
    is re-raised (with its backtrace) after the pool has stopped, whatever
    order the cells failed in.  Cells above a failure that have not yet
    started are abandoned; cells below it still run. *)
val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** A persistent pool, for callers that want to amortise domain spawns
    across many batches. *)
type t

(** [create ~jobs] spawns [max 1 jobs] worker domains blocked on an empty
    work queue (guarded by a [Mutex.t]/[Condition.t] pair). *)
val create : jobs:int -> t

(** Number of worker domains. *)
val size : t -> int

(** [run t f xs] is [map] executed on [t]'s workers: order-preserving,
    re-raising the exception of the lowest-index failing element, with
    the same abandonment rule.  The calling domain blocks until the batch
    completes.  Raises [Invalid_argument] after [shutdown]. *)
val run : t -> ('a -> 'b) -> 'a list -> 'b list

(** [run_n t f n] applies [f] to every index [0 .. n-1] on [t]'s workers
    and blocks until the batch completes: {!run} specialised to a batch
    of indices — no id list, no result collection, so that a caller can
    time the dispatch alone.  The exception of the lowest failing
    index is re-raised with its backtrace, as in {!run}; the
    batch-completion mutex gives the caller a
    happens-before edge over every write the workers made.  [n = 1] runs
    [f 0] on the calling domain; [n <= 0] is a no-op. *)
val run_n : t -> (int -> unit) -> int -> unit

(** Finish the queued work, stop the workers, and join their domains.
    Idempotent. *)
val shutdown : t -> unit

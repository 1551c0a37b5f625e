(** Domain-safe metrics registry: named counters, gauges and histograms.

    Recording is lock-free on the hot path (plain [Atomic] operations on
    preallocated cells); a registry mutex is taken only at registration.
    The registry is always live — instrumentation sites are expected to
    sample {!enabled} once per run, like {!Timing}, so disabled
    instrumentation costs one atomic read per simulation.

    Snapshots are plain sorted data: they [Marshal] cleanly, and
    {!merge} is associative and commutative (counters
    add, gauges take the max, histograms add bucket-wise), so per-cell
    snapshots can be aggregated in any order — the property that lets
    the harness build identical per-experiment metrics tables at any
    [--jobs] setting. *)

type kind = Counter | Gauge | Histogram

(** A registered metric handle.  Registration is idempotent per name;
    re-registering a name under a different kind raises
    [Invalid_argument]. *)
type metric

type counter = metric
type gauge = metric
type histogram = metric

val name : metric -> string

(** Hot-path gate for instrumentation sites (the engine samples it once
    per [run]).  The registry itself records whenever its operations are
    called, regardless of this flag. *)
val enabled : unit -> bool

val set_enabled : bool -> unit

val counter : string -> counter
val gauge : string -> gauge
val histogram : string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** Zero a counter's global cell (active scopes are unaffected); for
    process-lifetime counters that are re-based between sweeps, e.g. the
    store hit/miss counters. *)
val reset_counter : counter -> unit

val set : gauge -> int -> unit

(** [None] until the gauge is first {!set}. *)
val gauge_value : gauge -> int option

(** Record one value into a histogram's power-of-two value buckets. *)
val observe : histogram -> int -> unit

(** Histogram summary: [(bucket upper bound, count)] pairs (ascending,
    zero-count buckets omitted), with exact [sum]/[count]/[vmin]/[vmax].
    [vmin]/[vmax] are [max_int]/[min_int] when empty. *)
type hist_snapshot = {
  buckets : (int * int) list;
  sum : int;
  count : int;
  vmin : int;
  vmax : int;
}

(** A frozen view: name-sorted assoc lists, zero counters and empty
    histograms dropped, gauges present only once set. *)
type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  hists : (string * hist_snapshot) list;
}

val empty : snapshot
val is_empty : snapshot -> bool

(** Freeze the whole global registry. *)
val snapshot : unit -> snapshot

(** Build a normalized counters-only snapshot (duplicates summed, zeros
    dropped, names sorted); how {!Timing.metrics_snapshot} folds the
    profiler sections into this format. *)
val of_counters : (string * int) list -> snapshot

(** Build a histogram summary from raw values (test/aggregation
    helper); [hist_of_values (a @ b) = merge_hist (hist_of_values a)
    (hist_of_values b)] up to bucket granularity — exactly, in fact. *)
val hist_of_values : int list -> hist_snapshot

(** [scoped f] runs [f] while additionally accumulating every record
    made by the calling domain into a private collector, and returns
    [f ()]'s result with that collector's snapshot.  Scopes nest; a cell
    running on a {!Pool} worker domain sees only its own records. *)
val scoped : (unit -> 'a) -> 'a * snapshot

(** Zero every registered metric (registrations persist). *)
val reset : unit -> unit

(** Commutative, associative combine: counters add, gauges max,
    histograms add bucket-wise ([vmin]/[vmax] combine exactly). *)
val merge : snapshot -> snapshot -> snapshot

(** [diff after before]: counter and histogram-count increments between
    two registry snapshots; gauges and histogram [vmin]/[vmax] are taken
    from [after]. *)
val diff : snapshot -> snapshot -> snapshot

val merge_hist : hist_snapshot -> hist_snapshot -> hist_snapshot

(** [percentile h q] for [q] in [0,1]: the upper bound of the bucket
    containing the [q]-quantile, clamped into [[vmin, vmax]] (so p100 is
    exact, and the result is always within a 2x bucket of the true
    quantile). *)
val percentile : hist_snapshot -> float -> int

val hist_mean : hist_snapshot -> float

(** Bucket geometry, exposed for tests: [bucket_of v] is the bucket
    index, [bucket_lower]/[bucket_upper] its value range. *)
val bucket_of : int -> int

val bucket_lower : int -> int
val bucket_upper : int -> int

(** Compact JSON object
    [{"counters":{..},"gauges":{..},"hists":{..}}]; histogram values
    carry [count]/[sum]/[min]/[max] plus [(upper bound, count)] bucket
    pairs.  Deterministic (snapshots are name-sorted). *)
val to_json : snapshot -> string

val pp_snapshot : Format.formatter -> snapshot -> unit

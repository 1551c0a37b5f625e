(** Crash-safe, content-addressed, append-only result store for
    experiment cells.

    Every experiment cell is a deterministic pure function of its
    coordinates (the PR 1 invariant that makes [--jobs] byte-identical),
    so its result can be cached on disk and replayed verbatim.  The
    store keeps one record per cell in a single append-only journal:

    {v
    DIR/journal.rnj     header line + one sexp record per line
    DIR/last-run.sexp   hit/miss summary of the last sweep (sidecar)
    v}

    Each record carries the cell's canonical key, the 64-bit FNV-1a hash
    of that key (the content address), a status ([ok] or [fail]), the
    hex-encoded payload, and a checksum over the whole record.  Appends
    are a single [write] of a complete line followed by an optional
    [fsync], so a crash can only ever damage the journal's tail; {!open_}
    detects a truncated or corrupt tail, drops it, and repairs the file
    by truncating to the last intact record.  All mutating operations
    are serialised by a mutex, so {!Pool} worker domains may share one
    handle.

    Handles in different processes may also share one journal: every
    mutating operation additionally holds an exclusive fcntl lock on a
    sidecar [DIR/journal.lock] file, appends go through [O_APPEND] so
    they land at the true end of file, and {!refresh} replays records
    appended by peer processes since the handle was opened.  A {!gc}
    rewrite by a peer (rename) is detected by inode change and answered
    by reopening the journal.  See DESIGN.md, "Multi-process locking
    rules". *)

(** The coordinates a cell result is keyed by.  [env] carries
    environment facts that silently change semantics (the engine's
    {!Rn_sim.Engine.semantics_digest}); [code_version] is the
    experiment's own declared version, bumped whenever the cell function
    or its result type changes. *)
type key = {
  exp : string;  (** experiment id, e.g. ["E5"] *)
  scale : string;  (** ["quick"] or ["full"] *)
  coord : string;  (** position in the sweep, e.g. ["b0.c12"] *)
  code_version : int;
  env : string;
}

(** Canonical string form of a key ([exp|scale|vN|env|coord], components
    sanitised so the result is a single sexp atom). *)
val key_id : key -> string

type status = Done | Failed

type record_ = { key : key; status : status; payload : string }

(** One journal line (newline-terminated). *)
val encode_record : record_ -> string

(** Parse and integrity-check one journal line (trailing newline
    optional).  [None] on any structural, hash, or checksum mismatch. *)
val decode_record : string -> record_ option

type t

val journal_path : string -> string

(** [open_ ~fsync dir] creates [dir] if needed, replays the journal into
    an in-memory index (last record per key wins), and repairs any
    corrupt tail by truncation.  [fsync] (default [true]) controls
    whether every {!put} is flushed to stable storage. *)
val open_ : ?fsync:bool -> string -> t

(** Bytes of corrupt/truncated tail dropped by {!open_} (0 for a clean
    journal). *)
val recovered_bytes : t -> int

(** Payload of the [Done] record for this key, if any.  [Failed] records
    are deliberately not returned: a failed cell is resumable and will
    be recomputed by the next run. *)
val find : t -> key -> string option

(** The recorded error message of a [Failed] record, if any. *)
val find_failed : t -> key -> string option

(** Append a record (replacing any previous record for the key in the
    index).  Domain-safe, and safe against concurrent appends from
    other processes sharing the journal.  A partial last line (a write
    that failed part-way, or a writer that died mid-line) is cut off
    first, so the new record starts a line of its own. *)
val put : t -> key -> status -> string -> unit

(** Replay records appended to the journal by other processes since
    {!open_} (or the last refresh) into this handle's index; returns how
    many records were picked up.  Cheap when nothing changed (one stat +
    one short read).  Domain-safe. *)
val refresh : t -> int

(** Records currently in the index. *)
val count : t -> int

(** Index snapshot, sorted by {!key_id} for deterministic output. *)
val records : t -> record_ list

(** [gc t ~keep] rewrites the journal (write-to-temp + fsync + rename)
    with only the records satisfying [keep], and returns how many were
    dropped. *)
val gc : t -> keep:(record_ -> bool) -> int

val close : t -> unit

(** Read-only integrity scan of a journal file; never modifies it. *)
type scan = {
  good : record_ list;  (** longest intact record prefix, journal order *)
  good_bytes : int;  (** bytes covered by header + intact records *)
  total_bytes : int;
  problems : string list;  (** why the scan stopped, if it did *)
}

val scan_file : string -> scan

(** Sidecar with the last sweep's cache statistics (atomic
    write-to-temp + rename). *)
val write_last_run : dir:string -> hits:int -> misses:int -> failures:int -> unit

val read_last_run : dir:string -> (int * int * int) option

(* Crash-safe content-addressed result store.  See store.mli for the
   journal layout; the key properties defended here:

   - appends are one [write] of a whole line, so the only damage a crash
     (or a concurrent reader) can observe is a truncated/corrupt tail,
     and [put] cuts a partial last line off before it appends;
   - every record carries the FNV-1a hash of its key and a checksum over
     key+status+payload, so [scan_file] can prove which prefix is intact
     and [open_] can repair by truncating to it;
   - a mutex serialises index and journal mutation, so one handle can be
     shared by [Pool] worker domains;
   - a sidecar lock file (journal.lock, fcntl-locked around every
     mutating operation) plus O_APPEND writes serialise handles in
     *different processes*, so two `rn_cli experiment` runs pointed at
     one store can append to and replay it concurrently; [refresh] picks
     up records appended by peers since open (or the last refresh), and
     a [gc] rewrite by a peer is detected by inode change and answered
     by reopening the journal at its new identity. *)

(* Bumped whenever the journal format changes; stale-format journals
   are discarded on open.  CI cache keys must include this. *)
let format_version = 1
let header_line = Printf.sprintf "(rn-store (format %d))" format_version

type key = {
  exp : string;
  scale : string;
  coord : string;
  code_version : int;
  env : string;
}

type status = Done | Failed

type record_ = { key : key; status : status; payload : string }

(* --- hashing (64-bit FNV-1a) --- *)

let hash64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

(* As 16 hex digits: the content address of a key and the checksum
   primitive of the journal. *)
let hash_hex s = Printf.sprintf "%016Lx" (hash64 s)

(* --- key canonicalisation --- *)

(* Key components become fields of a '|'-separated sexp atom, so any
   character that would break either framing is mapped to '_'. *)
let sanitize s =
  String.map
    (fun c ->
      match c with
      | ' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' | '|' | '"' -> '_'
      | c -> c)
    s

let key_id k =
  Printf.sprintf "%s|%s|v%d|%s|%s" (sanitize k.exp) (sanitize k.scale) k.code_version
    (sanitize k.env) (sanitize k.coord)

let key_of_id id =
  match String.split_on_char '|' id with
  | [ exp; scale; v; env; coord ]
    when String.length v >= 2 && v.[0] = 'v' ->
    Option.map
      (fun code_version -> { exp; scale; coord; code_version; env })
      (int_of_string_opt (String.sub v 1 (String.length v - 1)))
  | _ -> None

(* --- record codec --- *)

let to_hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then None
  else begin
    let digit c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | _ -> None
    in
    let b = Bytes.create (n / 2) in
    let ok = ref true in
    for i = 0 to (n / 2) - 1 do
      match (digit s.[2 * i], digit s.[(2 * i) + 1]) with
      | Some hi, Some lo -> Bytes.set b i (Char.chr ((hi lsl 4) lor lo))
      | _ -> ok := false
    done;
    if !ok then Some (Bytes.to_string b) else None
  end

let status_name = function Done -> "ok" | Failed -> "fail"
let status_of_name = function "ok" -> Some Done | "fail" -> Some Failed | _ -> None

(* The checksum covers everything the record asserts. *)
let crc ~kid ~status ~data = hash_hex (kid ^ "\x00" ^ status ^ "\x00" ^ data)

let encode_record r =
  let kid = key_id r.key in
  let s = status_name r.status in
  (* 'x' prefix keeps the atom non-empty for a zero-length payload. *)
  let d = "x" ^ to_hex r.payload in
  Printf.sprintf "(cell (k %s) (h %s) (s %s) (d %s) (c %s))\n" kid (hash_hex kid) s d
    (crc ~kid ~status:s ~data:d)

let decode_record line =
  let line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\n' then String.sub line 0 (n - 1) else line
  in
  match Sexp.parse_string line with
  | exception Sexp.Parse_error _ -> None
  | sx -> (
    let field name =
      match Sexp.assoc name sx with Some [ Sexp.Atom a ] -> Some a | _ -> None
    in
    match (sx, field "k", field "h", field "s", field "d", field "c") with
    | Sexp.List (Sexp.Atom "cell" :: _), Some kid, Some h, Some s, Some d, Some c
      when hash_hex kid = h
           && crc ~kid ~status:s ~data:d = c
           && String.length d >= 1
           && d.[0] = 'x' -> (
      match (key_of_id kid, status_of_name s, of_hex (String.sub d 1 (String.length d - 1)))
      with
      | Some key, Some status, Some payload -> Some { key; status; payload }
      | _ -> None)
    | _ -> None)

(* --- journal scanning --- *)

type scan = {
  good : record_ list;
  good_bytes : int;
  total_bytes : int;
  problems : string list;
}

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  content

let scan_string content =
  let total = String.length content in
  let line_end pos = String.index_from_opt content pos '\n' in
  match line_end 0 with
  | None ->
    let problems = if total = 0 then [] else [ "missing or truncated header" ] in
    { good = []; good_bytes = 0; total_bytes = total; problems }
  | Some h when String.sub content 0 h <> header_line ->
    { good = []; good_bytes = 0; total_bytes = total; problems = [ "bad header" ] }
  | Some h ->
    let rec loop pos acc =
      if pos >= total then { good = List.rev acc; good_bytes = pos; total_bytes = total; problems = [] }
      else
        match line_end pos with
        | None ->
          {
            good = List.rev acc;
            good_bytes = pos;
            total_bytes = total;
            problems = [ Printf.sprintf "truncated final record at byte %d" pos ];
          }
        | Some i -> (
          match decode_record (String.sub content pos (i - pos)) with
          | Some r -> loop (i + 1) (r :: acc)
          | None ->
            {
              good = List.rev acc;
              good_bytes = pos;
              total_bytes = total;
              problems = [ Printf.sprintf "corrupt record at byte %d" pos ];
            })
    in
    loop (h + 1) []

let scan_file path =
  if Sys.file_exists path then scan_string (read_file path)
  else { good = []; good_bytes = 0; total_bytes = 0; problems = [ "no journal" ] }

(* --- the store handle --- *)

type t = {
  dir : string;
  mutable fd : Unix.file_descr;
  lock_fd : Unix.file_descr;  (* journal.lock: cross-process serialisation *)
  fsync : bool;
  mutex : Mutex.t;
  index : (string, record_) Hashtbl.t;  (* key_id -> last record *)
  recovered : int;
  mutable ino : int;  (* journal inode: a peer gc rewrote it if this changes *)
  mutable scanned : int;  (* journal bytes already replayed into the index *)
  mutable closed : bool;
}

let journal_path dir = Filename.concat dir "journal.rnj"
let lock_path dir = Filename.concat dir "journal.lock"
let last_run_path dir = Filename.concat dir "last-run.sexp"

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Exclusive cross-process lock on the sidecar lock file.  fcntl locks
   are per-process, so in-process exclusion stays the mutex's job: every
   caller already holds [t.mutex].  Locking a separate file (never the
   journal itself) keeps the read-only scanners lock-free and sidesteps
   fcntl's close-releases-locks footgun for the journal reopens below. *)
let file_locked_fd lock_fd f =
  ignore (Unix.lseek lock_fd 0 Unix.SEEK_SET);
  Unix.lockf lock_fd Unix.F_LOCK 0;
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.lseek lock_fd 0 Unix.SEEK_SET);
      try Unix.lockf lock_fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ())
    f

let file_locked t f = file_locked_fd t.lock_fd f

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let write_all fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

let fd_ino fd = (Unix.fstat fd).Unix.st_ino

let open_ ?(fsync = true) dir =
  mkdir_p dir;
  let path = journal_path dir in
  let lock_fd = Unix.openfile (lock_path dir) [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  file_locked_fd lock_fd (fun () ->
      (* Scan and repair under the lock: peers are excluded, so the tail
         we truncate cannot be a record a live writer is appending. *)
      let scan = scan_file path in
      let header_ok = scan.good_bytes > 0 in
      let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_APPEND; Unix.O_CREAT ] 0o644 in
      let start = if header_ok then scan.good_bytes else 0 in
      Unix.ftruncate fd start;
      if not header_ok then begin
        write_all fd (header_line ^ "\n");
        if fsync then Unix.fsync fd
      end;
      let index = Hashtbl.create 256 in
      List.iter (fun r -> Hashtbl.replace index (key_id r.key) r) scan.good;
      let recovered =
        if header_ok then scan.total_bytes - scan.good_bytes else scan.total_bytes
      in
      let scanned = if header_ok then start else String.length header_line + 1 in
      {
        dir;
        fd;
        lock_fd;
        fsync;
        mutex = Mutex.create ();
        index;
        recovered;
        ino = fd_ino fd;
        scanned;
        closed = false;
      })

let recovered_bytes t = t.recovered

(* A peer's [gc] replaces the journal by rename; our fd then points at
   the dead inode.  Called with mutex + file lock held. *)
let reopen_if_rotated t =
  let path = journal_path t.dir in
  let rotated =
    match Unix.stat path with
    | st -> st.Unix.st_ino <> t.ino
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> true
  in
  if rotated then begin
    Unix.close t.fd;
    t.fd <- Unix.openfile path [ Unix.O_RDWR; Unix.O_APPEND; Unix.O_CREAT ] 0o644;
    if (Unix.fstat t.fd).Unix.st_size = 0 then begin
      write_all t.fd (header_line ^ "\n");
      if t.fsync then Unix.fsync t.fd
    end;
    t.ino <- fd_ino t.fd;
    (* force [refresh_locked] to rebuild the index from the new file *)
    t.scanned <- 0
  end;
  rotated

(* Replay journal bytes appended since the last scan into the index.
   Called with mutex + file lock held (so writers are quiesced and every
   record line is complete).  Undecodable complete lines are skipped —
   under the locking discipline they can only be the fossil of a torn
   write by a crashed peer, and the records after them are still good. *)
let refresh_locked t =
  ignore (reopen_if_rotated t);
  if t.scanned = 0 then begin
    (* fresh or rotated file: rebuild the whole index from disk *)
    let scan = scan_file (journal_path t.dir) in
    Hashtbl.reset t.index;
    List.iter (fun r -> Hashtbl.replace t.index (key_id r.key) r) scan.good;
    t.scanned <- max scan.good_bytes (String.length header_line + 1);
    List.length scan.good
  end
  else begin
    let path = journal_path t.dir in
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let fresh =
      if len <= t.scanned then ""
      else begin
        seek_in ic t.scanned;
        really_input_string ic (len - t.scanned)
      end
    in
    close_in ic;
    let count = ref 0 in
    let pos = ref 0 in
    (* consume complete lines only; a trailing partial line (in-flight
       crash debris) is left for the next refresh *)
    let continue = ref true in
    while !continue do
      match String.index_from_opt fresh !pos '\n' with
      | None -> continue := false
      | Some i ->
        (match decode_record (String.sub fresh !pos (i - !pos)) with
        | Some r ->
          Hashtbl.replace t.index (key_id r.key) r;
          incr count
        | None -> ());
        pos := i + 1
    done;
    t.scanned <- t.scanned + !pos;
    !count
  end

let refresh t =
  locked t (fun () ->
      if t.closed then invalid_arg "Store.refresh: store is closed";
      file_locked t (fun () -> refresh_locked t))

let find t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.index (key_id k) with
      | Some { status = Done; payload; _ } -> Some payload
      | _ -> None)

let find_failed t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.index (key_id k) with
      | Some { status = Failed; payload; _ } -> Some payload
      | _ -> None)

(* Cut the journal back to its last complete line.  Under the file lock
   no writer is mid-line, so a partial last line is a write that failed
   part-way (ENOSPC, EIO) or a writer that died mid-line; a record
   appended after it would merge into it, and the next [open_] would
   drop that record and every one after it.  Called with mutex + file
   lock held; costs one byte read when the journal ends in a newline. *)
let cut_partial_line t =
  let size = (Unix.fstat t.fd).Unix.st_size in
  let ends_mid_line =
    size > 0
    && begin
      ignore (Unix.lseek t.fd (size - 1) Unix.SEEK_SET);
      let last = Bytes.create 1 in
      Unix.read t.fd last 0 1 = 1 && Bytes.get last 0 <> '\n'
    end
  in
  if ends_mid_line then begin
    let keep =
      match String.rindex_opt (read_file (journal_path t.dir)) '\n' with
      | Some i -> i + 1
      | None -> 0
    in
    Unix.ftruncate t.fd keep;
    if keep = 0 then write_all t.fd (header_line ^ "\n");
    t.scanned <- min t.scanned keep
  end

let put t k status payload =
  let r = { key = k; status; payload } in
  let line = encode_record r in
  locked t (fun () ->
      if t.closed then invalid_arg "Store.put: store is closed";
      file_locked t (fun () ->
          ignore (reopen_if_rotated t);
          cut_partial_line t;
          write_all t.fd line;
          if t.fsync then Unix.fsync t.fd);
      Hashtbl.replace t.index (key_id k) r)

let count t = locked t (fun () -> Hashtbl.length t.index)

let records t =
  locked t (fun () ->
      Hashtbl.fold (fun _ r acc -> r :: acc) t.index []
      |> List.sort (fun a b -> compare (key_id a.key) (key_id b.key)))

let gc t ~keep =
  locked t (fun () ->
      if t.closed then invalid_arg "Store.gc: store is closed";
      file_locked t (fun () ->
          (* replay peer appends first so the rewrite cannot drop them *)
          ignore (refresh_locked t);
          let all =
            Hashtbl.fold (fun _ r acc -> r :: acc) t.index []
            |> List.sort (fun a b -> compare (key_id a.key) (key_id b.key))
          in
          let kept = List.filter keep all in
          let dropped = List.length all - List.length kept in
          let path = journal_path t.dir in
          let tmp = path ^ ".tmp" in
          let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
          let b = Buffer.create 4096 in
          Buffer.add_string b (header_line ^ "\n");
          List.iter (fun r -> Buffer.add_string b (encode_record r)) kept;
          write_all fd (Buffer.contents b);
          Unix.fsync fd;
          Unix.close fd;
          Unix.close t.fd;
          Sys.rename tmp path;
          let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_APPEND ] 0o644 in
          t.fd <- fd;
          t.ino <- fd_ino fd;
          t.scanned <- (Unix.fstat fd).Unix.st_size;
          Hashtbl.reset t.index;
          List.iter (fun r -> Hashtbl.replace t.index (key_id r.key) r) kept;
          dropped))

let close t =
  locked t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        (try if t.fsync then Unix.fsync t.fd with Unix.Unix_error _ -> ());
        Unix.close t.fd;
        (try Unix.close t.lock_fd with Unix.Unix_error _ -> ())
      end)

(* --- last-run sidecar --- *)

let write_last_run ~dir ~hits ~misses ~failures =
  mkdir_p dir;
  let path = last_run_path dir in
  (* pid-suffixed temp: concurrent processes sharing the store
     must not rename each other's temp files away *)
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  write_all fd
    (Printf.sprintf "(last-run (hits %d) (misses %d) (failed %d))\n" hits misses failures);
  Unix.fsync fd;
  Unix.close fd;
  Sys.rename tmp path

let read_last_run ~dir =
  let path = last_run_path dir in
  if not (Sys.file_exists path) then None
  else
    match Sexp.parse_string (read_file path) with
    | exception Sexp.Parse_error _ -> None
    | sx -> (
      let num name =
        match Sexp.assoc name sx with Some [ v ] -> Sexp.as_int v | _ -> None
      in
      match (num "hits", num "misses", num "failed") with
      | Some h, Some m, Some f -> Some (h, m, f)
      | _ -> None)

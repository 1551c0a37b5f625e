(* Domain-safe metrics registry: named counters, gauges and histograms.

   Recording is lock-free on the hot path — every metric owns
   preallocated [Atomic] cells and the registry mutex is taken only when
   a metric is first registered (or a store array must grow, which keeps
   the same atomic cells, so concurrent recorders never lose updates).
   Like [Timing], the registry itself is always live; instrumentation
   sites are expected to sample [enabled] once per run (the engine
   does), so a disabled registry costs one atomic read per simulation,
   not per round.

   A [scoped] region additionally accumulates every record made by the
   *calling domain* into a private collector.  This is how the harness
   captures a deterministic per-cell snapshot even when cells run
   concurrently on [Pool] worker domains: the global registry sees the
   interleaved whole, each scope sees exactly its own cell.

   Snapshots are plain sorted assoc data, so they [Marshal] cleanly
   (the store caches one per cell) and merge associatively and
   commutatively: counters add, gauges take the max, histograms add
   bucket-wise.  See test/test_metrics.ml for the qcheck statements of
   those laws. *)

type kind = Counter | Gauge | Histogram

let kind_name = function Counter -> "counter" | Gauge -> "gauge" | Histogram -> "histogram"

type metric = { name : string; kind : kind; slot : int }
type counter = metric
type gauge = metric
type histogram = metric

let name m = m.name

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* --- histogram buckets ---

   Power-of-two value buckets: bucket 0 holds v <= 0; bucket i >= 1
   holds 2^(i-1) <= v <= 2^i - 1 (i.e. the values with i significant
   bits).  62 value buckets cover every positive OCaml int. *)

let n_buckets = 63

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x > 0 do
      incr b;
      x := !x lsr 1
    done;
    min (n_buckets - 1) !b
  end

let bucket_upper i = if i = 0 then 0 else if i >= 62 then max_int else (1 lsl i) - 1
let bucket_lower i = if i = 0 then min_int else 1 lsl (i - 1)

type hist_cells = {
  hcounts : int Atomic.t array;
  hsum : int Atomic.t;
  hcount : int Atomic.t;
  hmin : int Atomic.t;
  hmax : int Atomic.t;
}

let fresh_hist_cells () =
  {
    hcounts = Array.init n_buckets (fun _ -> Atomic.make 0);
    hsum = Atomic.make 0;
    hcount = Atomic.make 0;
    hmin = Atomic.make max_int;
    hmax = Atomic.make min_int;
  }

let atomic_min a v =
  let rec go () =
    let old = Atomic.get a in
    if v < old && not (Atomic.compare_and_set a old v) then go ()
  in
  go ()

let atomic_max a v =
  let rec go () =
    let old = Atomic.get a in
    if v > old && not (Atomic.compare_and_set a old v) then go ()
  in
  go ()

(* --- registry ---

   Per-kind slot tables.  Growth replaces the array but reuses the same
   atomic cells, so a recorder holding the old array still updates the
   cells the new array points at. *)

let lock = Mutex.create ()
let by_name : (string, metric) Hashtbl.t = Hashtbl.create 64
let gauge_unset = min_int
let c_cells : int Atomic.t array ref = ref [||]
let c_names : string array ref = ref [||]
let n_counters = ref 0
let g_cells : int Atomic.t array ref = ref [||]
let g_names : string array ref = ref [||]
let n_gauges = ref 0
let h_cells : hist_cells array ref = ref [||]
let h_names : string array ref = ref [||]
let n_hists = ref 0

let grow cells names fresh n =
  if n >= Array.length !cells then begin
    let cap = max 8 (2 * (n + 1)) in
    let old = !cells in
    cells := Array.init cap (fun i -> if i < Array.length old then old.(i) else fresh ());
    let oldn = !names in
    names := Array.init cap (fun i -> if i < Array.length oldn then oldn.(i) else "")
  end

let register nm kind =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt by_name nm with
      | Some m ->
        if m.kind <> kind then
          invalid_arg
            (Printf.sprintf "Metrics: %s already registered as a %s" nm (kind_name m.kind));
        m
      | None ->
        let slot =
          match kind with
          | Counter ->
            grow c_cells c_names (fun () -> Atomic.make 0) !n_counters;
            let s = !n_counters in
            incr n_counters;
            (!c_names).(s) <- nm;
            s
          | Gauge ->
            grow g_cells g_names (fun () -> Atomic.make gauge_unset) !n_gauges;
            let s = !n_gauges in
            incr n_gauges;
            (!g_names).(s) <- nm;
            s
          | Histogram ->
            grow h_cells h_names fresh_hist_cells !n_hists;
            let s = !n_hists in
            incr n_hists;
            (!h_names).(s) <- nm;
            s
        in
        let m = { name = nm; kind; slot } in
        Hashtbl.add by_name nm m;
        m)

let counter nm = register nm Counter
let gauge nm = register nm Gauge
let histogram nm = register nm Histogram

(* --- scopes (domain-local collectors) --- *)

type scope = {
  mutable sc : int array; (* counter deltas by slot *)
  mutable sgv : int array; (* gauge values (gauge_unset = untouched) *)
  mutable shc : int array array; (* hist bucket counts ([||] = untouched) *)
  mutable shs : int array; (* hist sums *)
  mutable shn : int array; (* hist observation counts *)
  mutable shmin : int array;
  mutable shmax : int array;
}

let fresh_scope () =
  { sc = [||]; sgv = [||]; shc = [||]; shs = [||]; shn = [||]; shmin = [||]; shmax = [||] }

let grow_ints a n default =
  if n < Array.length a then a
  else begin
    let b = Array.make (max 8 (2 * (n + 1))) default in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let scope_stack : scope list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let scope_add_counter s slot n =
  s.sc <- grow_ints s.sc slot 0;
  s.sc.(slot) <- s.sc.(slot) + n

let scope_set_gauge s slot v =
  s.sgv <- grow_ints s.sgv slot gauge_unset;
  s.sgv.(slot) <- v

let grow_scope_hists a n =
  if n < Array.length a then a
  else begin
    let b = Array.make (max 8 (2 * (n + 1))) [||] in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let scope_observe s slot v =
  s.shc <- grow_scope_hists s.shc slot;
  if Array.length s.shc.(slot) = 0 then s.shc.(slot) <- Array.make n_buckets 0;
  s.shs <- grow_ints s.shs slot 0;
  s.shn <- grow_ints s.shn slot 0;
  s.shmin <- grow_ints s.shmin slot max_int;
  s.shmax <- grow_ints s.shmax slot min_int;
  s.shc.(slot).(bucket_of v) <- s.shc.(slot).(bucket_of v) + 1;
  s.shs.(slot) <- s.shs.(slot) + v;
  s.shn.(slot) <- s.shn.(slot) + 1;
  if v < s.shmin.(slot) then s.shmin.(slot) <- v;
  if v > s.shmax.(slot) then s.shmax.(slot) <- v

(* --- recording --- *)

let add c n =
  ignore (Atomic.fetch_and_add (!c_cells).(c.slot) n);
  match !(Domain.DLS.get scope_stack) with
  | [] -> ()
  | scopes -> List.iter (fun s -> scope_add_counter s c.slot n) scopes

let incr c = add c 1
let value c = Atomic.get (!c_cells).(c.slot)
let reset_counter c = Atomic.set (!c_cells).(c.slot) 0

let set g v =
  Atomic.set (!g_cells).(g.slot) v;
  match !(Domain.DLS.get scope_stack) with
  | [] -> ()
  | scopes -> List.iter (fun s -> scope_set_gauge s g.slot v) scopes

let gauge_value g =
  let v = Atomic.get (!g_cells).(g.slot) in
  if v = gauge_unset then None else Some v

let observe h v =
  let cells = (!h_cells).(h.slot) in
  ignore (Atomic.fetch_and_add cells.hcounts.(bucket_of v) 1);
  ignore (Atomic.fetch_and_add cells.hsum v);
  ignore (Atomic.fetch_and_add cells.hcount 1);
  atomic_min cells.hmin v;
  atomic_max cells.hmax v;
  match !(Domain.DLS.get scope_stack) with
  | [] -> ()
  | scopes -> List.iter (fun s -> scope_observe s h.slot v) scopes

(* --- snapshots --- *)

type hist_snapshot = {
  buckets : (int * int) list; (* (bucket upper bound, count), ascending, counts > 0 *)
  sum : int;
  count : int;
  vmin : int; (* max_int when empty *)
  vmax : int; (* min_int when empty *)
}

type snapshot = {
  counters : (string * int) list; (* sorted by name, non-zero *)
  gauges : (string * int) list; (* sorted by name *)
  hists : (string * hist_snapshot) list; (* sorted by name, non-empty *)
}

let empty = { counters = []; gauges = []; hists = [] }
let is_empty s = s.counters = [] && s.gauges = [] && s.hists = []

let by_fst (a, _) (b, _) = compare (a : string) b

let of_counters l =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (n, v) -> Hashtbl.replace tbl n (v + Option.value (Hashtbl.find_opt tbl n) ~default:0))
    l;
  let counters =
    Hashtbl.fold (fun n v acc -> if v <> 0 then (n, v) :: acc else acc) tbl []
    |> List.sort by_fst
  in
  { empty with counters }

let hist_of_values vs =
  match vs with
  | [] -> { buckets = []; sum = 0; count = 0; vmin = max_int; vmax = min_int }
  | _ ->
    let counts = Array.make n_buckets 0 in
    let sum = ref 0 and vmin = ref max_int and vmax = ref min_int in
    List.iter
      (fun v ->
        counts.(bucket_of v) <- counts.(bucket_of v) + 1;
        sum := !sum + v;
        if v < !vmin then vmin := v;
        if v > !vmax then vmax := v)
      vs;
    let buckets = ref [] in
    for i = n_buckets - 1 downto 0 do
      if counts.(i) > 0 then buckets := (bucket_upper i, counts.(i)) :: !buckets
    done;
    { buckets = !buckets; sum = !sum; count = List.length vs; vmin = !vmin; vmax = !vmax }

let hist_snapshot_of_counts counts ~sum ~count ~vmin ~vmax =
  let buckets = ref [] in
  for i = n_buckets - 1 downto 0 do
    if counts.(i) > 0 then buckets := (bucket_upper i, counts.(i)) :: !buckets
  done;
  { buckets = !buckets; sum; count; vmin; vmax }

let snapshot () =
  Mutex.protect lock (fun () ->
      let counters = ref [] in
      for i = !n_counters - 1 downto 0 do
        let v = Atomic.get (!c_cells).(i) in
        if v <> 0 then counters := ((!c_names).(i), v) :: !counters
      done;
      let gauges = ref [] in
      for i = !n_gauges - 1 downto 0 do
        let v = Atomic.get (!g_cells).(i) in
        if v <> gauge_unset then gauges := ((!g_names).(i), v) :: !gauges
      done;
      let hists = ref [] in
      for i = !n_hists - 1 downto 0 do
        let c = (!h_cells).(i) in
        if Atomic.get c.hcount > 0 then begin
          let counts = Array.map Atomic.get c.hcounts in
          hists :=
            ( (!h_names).(i),
              hist_snapshot_of_counts counts ~sum:(Atomic.get c.hsum)
                ~count:(Atomic.get c.hcount) ~vmin:(Atomic.get c.hmin)
                ~vmax:(Atomic.get c.hmax) )
            :: !hists
        end
      done;
      {
        counters = List.sort by_fst !counters;
        gauges = List.sort by_fst !gauges;
        hists = List.sort by_fst !hists;
      })

let scope_snapshot s =
  Mutex.protect lock (fun () ->
      let counters = ref [] in
      for i = min (!n_counters - 1) (Array.length s.sc - 1) downto 0 do
        if s.sc.(i) <> 0 then counters := ((!c_names).(i), s.sc.(i)) :: !counters
      done;
      let gauges = ref [] in
      for i = min (!n_gauges - 1) (Array.length s.sgv - 1) downto 0 do
        if s.sgv.(i) <> gauge_unset then gauges := ((!g_names).(i), s.sgv.(i)) :: !gauges
      done;
      let hists = ref [] in
      for i = min (!n_hists - 1) (Array.length s.shc - 1) downto 0 do
        if Array.length s.shc.(i) > 0 && s.shn.(i) > 0 then
          hists :=
            ( (!h_names).(i),
              hist_snapshot_of_counts s.shc.(i) ~sum:s.shs.(i) ~count:s.shn.(i)
                ~vmin:s.shmin.(i) ~vmax:s.shmax.(i) )
            :: !hists
      done;
      {
        counters = List.sort by_fst !counters;
        gauges = List.sort by_fst !gauges;
        hists = List.sort by_fst !hists;
      })

let scoped f =
  let stack = Domain.DLS.get scope_stack in
  let s = fresh_scope () in
  stack := s :: !stack;
  match f () with
  | v ->
    stack := List.tl !stack;
    (v, scope_snapshot s)
  | exception e ->
    stack := List.tl !stack;
    raise e

let reset () =
  Mutex.protect lock (fun () ->
      for i = 0 to !n_counters - 1 do
        Atomic.set (!c_cells).(i) 0
      done;
      for i = 0 to !n_gauges - 1 do
        Atomic.set (!g_cells).(i) gauge_unset
      done;
      for i = 0 to !n_hists - 1 do
        let c = (!h_cells).(i) in
        Array.iter (fun a -> Atomic.set a 0) c.hcounts;
        Atomic.set c.hsum 0;
        Atomic.set c.hcount 0;
        Atomic.set c.hmin max_int;
        Atomic.set c.hmax min_int
      done)

(* --- merge / diff --- *)

(* Merge two name-sorted assoc lists, combining values under the same
   name with [combine]; [keep] drops entries (zero counters) from the
   result. *)
let merge_assoc combine keep l1 l2 =
  let rec go l1 l2 =
    match (l1, l2) with
    | [], l | l, [] -> List.filter (fun (_, v) -> keep v) l
    | (n1, v1) :: r1, (n2, v2) :: r2 ->
      let c = compare (n1 : string) n2 in
      if c < 0 then if keep v1 then (n1, v1) :: go r1 l2 else go r1 l2
      else if c > 0 then if keep v2 then (n2, v2) :: go l1 r2 else go l1 r2
      else begin
        let v = combine v1 v2 in
        if keep v then (n1, v) :: go r1 r2 else go r1 r2
      end
  in
  go l1 l2

let merge_hist a b =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (ub, c) -> Hashtbl.replace tbl ub (c + Option.value (Hashtbl.find_opt tbl ub) ~default:0))
    (a.buckets @ b.buckets);
  let buckets = Hashtbl.fold (fun ub c acc -> (ub, c) :: acc) tbl [] |> List.sort compare in
  {
    buckets;
    sum = a.sum + b.sum;
    count = a.count + b.count;
    vmin = min a.vmin b.vmin;
    vmax = max a.vmax b.vmax;
  }

let merge a b =
  {
    counters = merge_assoc ( + ) (fun v -> v <> 0) a.counters b.counters;
    gauges = merge_assoc max (fun _ -> true) a.gauges b.gauges;
    hists = merge_assoc merge_hist (fun h -> h.count > 0) a.hists b.hists;
  }

(* [diff after before]: counter increments between the two snapshots;
   gauges and histogram min/max are taken from [after] (they do not
   subtract meaningfully). *)
let diff after before =
  let sub_hist a b =
    let tbl = Hashtbl.create 16 in
    List.iter (fun (ub, c) -> Hashtbl.replace tbl ub c) a.buckets;
    List.iter
      (fun (ub, c) ->
        Hashtbl.replace tbl ub (Option.value (Hashtbl.find_opt tbl ub) ~default:0 - c))
      b.buckets;
    let buckets =
      Hashtbl.fold (fun ub c acc -> if c > 0 then (ub, c) :: acc else acc) tbl []
      |> List.sort compare
    in
    { buckets; sum = a.sum - b.sum; count = a.count - b.count; vmin = a.vmin; vmax = a.vmax }
  in
  {
    counters =
      merge_assoc ( + ) (fun v -> v <> 0) after.counters
        (List.map (fun (n, v) -> (n, -v)) before.counters);
    gauges = after.gauges;
    hists =
      (let before_tbl = Hashtbl.create 16 in
       List.iter (fun (n, h) -> Hashtbl.replace before_tbl n h) before.hists;
       List.filter_map
         (fun (n, h) ->
           let d =
             match Hashtbl.find_opt before_tbl n with Some b -> sub_hist h b | None -> h
           in
           if d.count > 0 then Some (n, d) else None)
         after.hists);
  }

(* --- histogram queries --- *)

let percentile h q =
  if h.count = 0 then 0
  else begin
    let target = int_of_float (ceil (q *. float_of_int h.count)) in
    let target = max 1 (min h.count target) in
    let rec go acc = function
      | [] -> h.vmax
      | (ub, c) :: rest -> if acc + c >= target then ub else go (acc + c) rest
    in
    let v = go 0 h.buckets in
    max h.vmin (min v h.vmax)
  end

let hist_mean h = if h.count = 0 then 0.0 else float_of_int h.sum /. float_of_int h.count

(* --- JSON exposition ---

   [to_json] is a pure function of the snapshot; snapshots are
   name-sorted, which makes the output deterministic. *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json s =
  let b = Buffer.create 512 in
  let sep = ref false in
  let comma () =
    if !sep then Buffer.add_char b ',';
    sep := true
  in
  let obj name render items =
    comma ();
    Buffer.add_string b (Printf.sprintf "\"%s\":{" name);
    let first = ref true in
    List.iter
      (fun (n, v) ->
        if not !first then Buffer.add_char b ',';
        first := false;
        Buffer.add_string b (Printf.sprintf "\"%s\":" (json_escape n));
        render v)
      items;
    Buffer.add_char b '}'
  in
  Buffer.add_char b '{';
  obj "counters" (fun v -> Buffer.add_string b (string_of_int v)) s.counters;
  obj "gauges" (fun v -> Buffer.add_string b (string_of_int v)) s.gauges;
  obj "hists"
    (fun h ->
      Buffer.add_string b
        (Printf.sprintf "{\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d,\"buckets\":[" h.count
           h.sum
           (if h.count = 0 then 0 else h.vmin)
           (if h.count = 0 then 0 else h.vmax));
      List.iteri
        (fun i (ub, c) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "[%d,%d]" ub c))
        h.buckets;
      Buffer.add_string b "]}")
    s.hists;
  Buffer.add_char b '}';
  Buffer.contents b

let pp_hist ppf h =
  Format.fprintf ppf "n=%d mean=%.1f p50=%d p95=%d max=%d" h.count (hist_mean h)
    (percentile h 0.5) (percentile h 0.95)
    (if h.count = 0 then 0 else h.vmax)

let pp_snapshot ppf s =
  let open Format in
  List.iter (fun (n, v) -> fprintf ppf "%-32s %d@\n" n v) s.counters;
  List.iter (fun (n, v) -> fprintf ppf "%-32s %d (gauge)@\n" n v) s.gauges;
  List.iter (fun (n, h) -> fprintf ppf "%-32s %a@\n" n pp_hist h) s.hists

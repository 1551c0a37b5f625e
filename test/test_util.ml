(* Unit and property tests for rn_util. *)

module Rng = Rn_util.Rng
module Ilog = Rn_util.Ilog
module Stats = Rn_util.Stats
module Fit = Rn_util.Fit
module Bitset = Rn_util.Bitset
module Union_find = Rn_util.Union_find
module Table = Rn_util.Table
module Int_sort = Rn_util.Int_sort

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---------------- Rng ---------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 8)

let test_rng_derive_stable () =
  let t = Rng.create 7 in
  let a = Rng.derive t 3 and b = Rng.derive t 3 in
  (* derive does not advance the parent and is label-deterministic *)
  check Alcotest.int "same derived stream" (Rng.int a 9999) (Rng.int b 9999)

let test_rng_derive_labels_differ () =
  let t = Rng.create 7 in
  let a = Rng.derive t 1 and b = Rng.derive t 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "labels give distinct streams" true (!same < 8)

let test_rng_bool_degenerate () =
  let t = Rng.create 3 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=0 never true" false (Rng.bool t 0.0)
  done

let test_rng_int_error () =
  let t = Rng.create 0 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int t 0))

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int in [0,bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let t = Rng.create seed in
      let x = Rng.int t bound in
      x >= 0 && x < bound)

let prop_rng_float_unit =
  QCheck.Test.make ~name:"Rng.float in [0,1)" ~count:500 QCheck.small_int (fun seed ->
      let t = Rng.create seed in
      let x = Rng.float t in
      x >= 0.0 && x < 1.0)

let prop_rng_permutation =
  QCheck.Test.make ~name:"Rng.permutation is a permutation" ~count:200
    QCheck.(pair small_int (int_range 1 64))
    (fun (seed, n) ->
      let p = Rng.permutation (Rng.create seed) n in
      let sorted = Array.copy p in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

let prop_rng_shuffle_multiset =
  QCheck.Test.make ~name:"shuffle preserves elements" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let a = Array.of_list l in
      Rng.shuffle_in_place (Rng.create seed) a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let test_rng_geometric_support () =
  let t = Rng.create 5 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "geometric >= 1" true (Rng.geometric t 0.5 >= 1)
  done

(* The splitmix64 generator as it was first written: a boxed [int64]
   record that boxes on every draw.  [Rng] keeps its state unboxed, and
   must give bit-identical streams to this reference. *)
module Rng_ref = struct
  type t = { mutable state : int64 }

  let mix64 z =
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))

  let create seed = { state = mix64 (Int64.of_int seed) }

  let next_int64 t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    mix64 t.state

  let derive t label =
    { state = mix64 (Int64.logxor t.state (Int64.of_int (0x61C88647 * (label + 1)))) }

  let derive_into dst ~parent label =
    dst.state <- mix64 (Int64.logxor parent.state (Int64.of_int (0x61C88647 * (label + 1))))
  let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)
  let int t bound = bits t mod bound

  let float t =
    Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) /. 9007199254740992.0

  let bool t p = float t < p

  let shuffle_in_place t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done

  let permutation t n =
    let a = Array.init n (fun i -> i) in
    shuffle_in_place t a;
    a
end

(* The next [k] draws of both generators agree. *)
let same_bits ?(k = 8) t r =
  List.init k (fun _ -> Rng.bits t) = List.init k (fun _ -> Rng_ref.bits r)

let prop_rng_ref_derive =
  QCheck.Test.make ~name:"create, derive and derive_into = reference" ~count:500
    QCheck.(quad int int int (int_range 0 5))
    (fun (seed, l1, l2, skip) ->
      let t = Rng.create seed and r = Rng_ref.create seed in
      let fresh = same_bits (Rng.create seed) (Rng_ref.create seed) in
      (* derive from a parent some draws into its stream *)
      for _ = 1 to skip do
        ignore (Rng.bits t);
        ignore (Rng_ref.bits r)
      done;
      let d = Rng.derive t l1 and dr = Rng_ref.derive r l1 in
      (* [derive_into] overwrites a generator that has a stream of its own *)
      let into = Rng.create l2 and into_r = Rng_ref.create l2 in
      Rng.derive_into into ~parent:d l2;
      Rng_ref.derive_into into_r ~parent:dr l2;
      fresh && same_bits into into_r && same_bits d dr && same_bits t r)

type draw = Bits | Int of int | Float | Bool of float

let draw_gen =
  QCheck.Gen.(
    oneof
      [
        return Bits;
        map (fun b -> Int b) (oneof [ int_range 1 100; int_range 1 max_int ]);
        return Float;
        map (fun p -> Bool p) (float_range (-0.1) 1.1);
      ])

let prop_rng_ref_interleaved =
  QCheck.Test.make ~name:"interleaved bits, int, float and bool = reference" ~count:300
    QCheck.(pair int (make Gen.(list_size (int_range 0 200) draw_gen)))
    (fun (seed, draws) ->
      let t = Rng.create seed and r = Rng_ref.create seed in
      List.for_all
        (function
          | Bits -> Rng.bits t = Rng_ref.bits r
          | Int b -> Rng.int t b = Rng_ref.int r b
          | Float -> Int64.bits_of_float (Rng.float t) = Int64.bits_of_float (Rng_ref.float r)
          | Bool p -> Rng.bool t p = Rng_ref.bool r p)
        draws)

(* [Rng.bool] compares the 53-bit draw with [p *. 2^53]; [Rng_ref.bool]
   divides the draw by 2^53 first.  10^6 draws at each edge case of [p]
   (zeros, subnormals, 1 and its neighbours, values above 1 up to the
   overflow of the product, infinities, nan) give the same booleans and
   leave the same state. *)
let test_rng_bool_scaled () =
  List.iter
    (fun p ->
      let t = Rng.create 11 and r = Rng_ref.create 11 in
      let same = ref 0 in
      for _ = 1 to 1_000_000 do
        if Rng.bool t p = Rng_ref.bool r p then incr same
      done;
      check Alcotest.int (Printf.sprintf "p=%h: same booleans" p) 1_000_000 !same;
      check Alcotest.bool (Printf.sprintf "p=%h: same final state" p) true (same_bits t r))
    [
      0.0;
      -0.0;
      Float.succ 0.0;
      Float.pred Float.min_float;
      Float.min_float;
      0x1p-53;
      Float.succ 0x1p-53;
      0.25;
      0.5;
      Float.pred 1.0;
      1.0;
      Float.succ 1.0;
      2.0;
      0x1p971;
      Float.max_float;
      infinity;
      -1.0;
      neg_infinity;
      nan;
    ]

let prop_rng_ref_permutation =
  QCheck.Test.make ~name:"permutation and shuffle_in_place = reference" ~count:300
    QCheck.(triple int (int_range 0 300) (list small_int))
    (fun (seed, n, l) ->
      let t = Rng.create seed and r = Rng_ref.create seed in
      let perm = Rng.permutation t n = Rng_ref.permutation r n in
      let a = Array.of_list l and b = Array.of_list l in
      Rng.shuffle_in_place t a;
      Rng_ref.shuffle_in_place r b;
      perm && a = b && same_bits t r)

(* [skip t k] lands where [k] draws land: k = 0, small k, and k up to
   10^6 (drawn one by one here, so the large cases stay few). *)
let prop_rng_skip =
  QCheck.Test.make ~name:"skip t k = k calls of bits" ~count:60
    QCheck.(
      pair int
        (make ~print:string_of_int
           Gen.(oneof [ return 0; int_range 1 100; int_range 1000 1_000_000 ])))
    (fun (seed, k) ->
      let t = Rng.create seed and r = Rng.create seed in
      Rng.skip t k;
      for _ = 1 to k do
        ignore (Rng.bits r)
      done;
      List.init 8 (fun _ -> Rng.bits t) = List.init 8 (fun _ -> Rng.bits r))

let test_rng_skip_negative () =
  Alcotest.check_raises "k < 0" (Invalid_argument "Rng.skip: negative count") (fun () ->
      Rng.skip (Rng.create 1) (-1))

(* Minor-heap words [f] allocates, less what the probe itself costs. *)
let minor_words_of f =
  let words g =
    let w0 = Gc.minor_words () in
    g ();
    Gc.minor_words () -. w0
  in
  let probe = words ignore in
  words f -. probe

let test_rng_alloc_free () =
  let t = Rng.create 5 and dst = Rng.create 0 in
  let budget name f =
    Alcotest.(check (float 0.0))
      (name ^ ": 10,000 draws allocate nothing")
      0.0 (minor_words_of f)
  in
  budget "bool" (fun () ->
      for _ = 1 to 10_000 do
        ignore (Sys.opaque_identity (Rng.bool t 0.25))
      done);
  budget "bits" (fun () ->
      for _ = 1 to 10_000 do
        ignore (Sys.opaque_identity (Rng.bits t))
      done);
  budget "int" (fun () ->
      for i = 1 to 10_000 do
        ignore (Sys.opaque_identity (Rng.int t i))
      done);
  budget "derive_into" (fun () ->
      for i = 1 to 10_000 do
        Rng.derive_into dst ~parent:t i
      done)

(* ---------------- Ilog ---------------- *)

let test_ilog_known () =
  check Alcotest.int "floor_log2 1" 0 (Ilog.floor_log2 1);
  check Alcotest.int "floor_log2 2" 1 (Ilog.floor_log2 2);
  check Alcotest.int "floor_log2 3" 1 (Ilog.floor_log2 3);
  check Alcotest.int "ceil_log2 1" 0 (Ilog.ceil_log2 1);
  check Alcotest.int "ceil_log2 3" 2 (Ilog.ceil_log2 3);
  check Alcotest.int "log2_up 1" 1 (Ilog.log2_up 1);
  check Alcotest.int "log2_up 1024" 10 (Ilog.log2_up 1024);
  check Alcotest.int "next_pow2 5" 8 (Ilog.next_pow2 5);
  check Alcotest.int "next_pow2 8" 8 (Ilog.next_pow2 8)

let prop_ilog_floor =
  QCheck.Test.make ~name:"floor_log2 brackets n" ~count:500 (QCheck.int_range 1 1_000_000)
    (fun n ->
      let k = Ilog.floor_log2 n in
      Ilog.pow2 k <= n && n < Ilog.pow2 (k + 1))

let prop_ilog_ceil =
  QCheck.Test.make ~name:"ceil_log2 brackets n" ~count:500 (QCheck.int_range 2 1_000_000)
    (fun n ->
      let k = Ilog.ceil_log2 n in
      Ilog.pow2 k >= n && Ilog.pow2 (k - 1) < n)

let prop_ilog_cdiv =
  QCheck.Test.make ~name:"cdiv is ceiling division" ~count:500
    QCheck.(pair (int_range 0 10000) (int_range 1 100))
    (fun (a, b) -> Ilog.cdiv a b = int_of_float (ceil (float_of_int a /. float_of_int b)))

let test_ilog_errors () =
  Alcotest.check_raises "floor_log2 0" (Invalid_argument "Ilog.floor_log2") (fun () ->
      ignore (Ilog.floor_log2 0));
  Alcotest.check_raises "cdiv by 0" (Invalid_argument "Ilog.cdiv") (fun () ->
      ignore (Ilog.cdiv 3 0))

let prop_is_pow2 =
  QCheck.Test.make ~name:"is_pow2 matches definition" ~count:500 (QCheck.int_range 1 65536)
    (fun n -> Ilog.is_pow2 n = (Ilog.pow2 (Ilog.floor_log2 n) = n))

(* ---------------- Stats ---------------- *)

let test_stats_known () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean xs);
  check (Alcotest.float 1e-9) "variance" (5.0 /. 3.0) (Stats.variance xs);
  check (Alcotest.float 1e-9) "median" 2.5 (Stats.median xs);
  check (Alcotest.float 1e-9) "p0" 1.0 (Stats.percentile xs 0.0);
  check (Alcotest.float 1e-9) "p100" 4.0 (Stats.percentile xs 1.0)

let test_stats_single () =
  let xs = [| 5.0 |] in
  check (Alcotest.float 1e-9) "mean single" 5.0 (Stats.mean xs);
  check (Alcotest.float 1e-9) "variance single" 0.0 (Stats.variance xs);
  check (Alcotest.float 1e-9) "median single" 5.0 (Stats.median xs)

let test_stats_empty () =
  Alcotest.check_raises "mean empty" (Invalid_argument "Stats.mean: empty") (fun () ->
      ignore (Stats.mean [||]))

let prop_stats_summary_order =
  QCheck.Test.make ~name:"summary min<=median<=p90<=max" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-100.0) 100.0))
    (fun l ->
      let s = Stats.summarize (Array.of_list l) in
      s.min <= s.median && s.median <= s.p90 +. 1e-9 && s.p90 <= s.max +. 1e-9)

let test_stats_ci95 () =
  Alcotest.check (Alcotest.float 1e-9) "single sample" 0.0 (Stats.ci95 [| 3.0 |]);
  (* constant data: zero width *)
  Alcotest.check (Alcotest.float 1e-9) "constant" 0.0 (Stats.ci95 [| 2.0; 2.0; 2.0 |]);
  (* known case: sd=1, n=4 -> 1.96/2 *)
  let xs = [| -1.0; 1.0; -1.0; 1.0 |] in
  Alcotest.check (Alcotest.float 1e-6) "known width" (1.96 *. Stats.stddev xs /. 2.0)
    (Stats.ci95 xs)

let prop_stats_mean_bounds =
  QCheck.Test.make ~name:"mean within [min,max]" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-100.0) 100.0))
    (fun l ->
      let s = Stats.summarize (Array.of_list l) in
      s.min -. 1e-9 <= s.mean && s.mean <= s.max +. 1e-9)

(* ---------------- Fit ---------------- *)

let test_fit_linear_exact () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = Array.map (fun x -> (2.0 *. x) +. 1.0) xs in
  let l = Fit.linear xs ys in
  check (Alcotest.float 1e-9) "slope" 2.0 l.slope;
  check (Alcotest.float 1e-9) "intercept" 1.0 l.intercept;
  check (Alcotest.float 1e-9) "r2" 1.0 l.r2

let test_fit_power () =
  let xs = [| 2.0; 4.0; 8.0; 16.0 |] in
  let ys = Array.map (fun x -> 3.0 *. (x ** 2.0)) xs in
  let p, r2 = Fit.power_law xs ys in
  check (Alcotest.float 1e-6) "exponent" 2.0 p;
  check (Alcotest.float 1e-6) "r2" 1.0 r2

let test_fit_polylog () =
  let xs = [| 4.0; 16.0; 256.0; 1024.0 |] in
  let ys = Array.map (fun x -> 5.0 *. ((log x /. log 2.0) ** 3.0)) xs in
  let p, r2 = Fit.polylog_exponent xs ys in
  check (Alcotest.float 1e-6) "exponent" 3.0 p;
  check (Alcotest.float 1e-6) "r2" 1.0 r2

let test_fit_errors () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Fit.linear: length mismatch") (fun () ->
      ignore (Fit.linear [| 1.0 |] [| 1.0; 2.0 |]));
  Alcotest.check_raises "degenerate" (Invalid_argument "Fit.linear: degenerate xs")
    (fun () -> ignore (Fit.linear [| 2.0; 2.0 |] [| 1.0; 2.0 |]))

(* ---------------- Bitset ---------------- *)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  Alcotest.(check bool) "initially empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "mem 64" true (Bitset.mem s 64);
  Alcotest.(check bool) "not mem 1" false (Bitset.mem s 1);
  check Alcotest.int "cardinal" 4 (Bitset.cardinal s);
  check (Alcotest.list Alcotest.int) "to_list sorted" [ 0; 63; 64; 99 ] (Bitset.to_list s);
  Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Bitset.mem s 63);
  Bitset.clear s;
  Alcotest.(check bool) "cleared" true (Bitset.is_empty s)

let test_bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "out of bounds" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> Bitset.add s 10)

let test_bitset_copy_independent () =
  let s = Bitset.create 10 in
  Bitset.add s 3;
  let c = Bitset.copy s in
  Bitset.add c 5;
  Alcotest.(check bool) "original unchanged" false (Bitset.mem s 5);
  Alcotest.(check bool) "copy has both" true (Bitset.mem c 3 && Bitset.mem c 5)

(* [add_run] over [ids.(lo) .. ids.(hi - 1)] against one [add] per id,
   both on a copy of [base], so a flush that stored its word instead of
   ORing it would drop [base]'s bits.  With [mask] each entry carries
   junk above the id, as a packed gray incidence entry does. *)
let add_run_matches_adds ?mask ~base ids lo hi =
  let by_run = Bitset.copy base and by_add = Bitset.copy base in
  let entries =
    match mask with
    | None -> ids
    | Some m -> Array.mapi (fun i id -> ((i + 1) * (m + 1)) lor id) ids
  in
  Bitset.add_run by_run ?mask entries lo hi;
  for i = lo to hi - 1 do
    Bitset.add by_add ids.(i)
  done;
  Bitset.equal by_run by_add

(* Ids ascending, descending, shuffled and repeated, around the word
   boundaries 62/63 and 125/126 and at [capacity - 1], with some bits
   already set; then an out-of-range id, which raises as [add] does
   and leaves the ids before it added. *)
let test_bitset_add_run () =
  let cap = 190 in
  let base = Bitset.of_list cap [ 1; 62; 100; 126 ] in
  let edges = [| 0; 1; 61; 62; 63; 64; 124; 125; 126; 127; 188; cap - 1 |] in
  let rev a = Array.of_list (List.rev (Array.to_list a)) in
  let shuffled = Array.copy edges in
  Rng.shuffle_in_place (Rng.create 7) shuffled;
  let repeated = Array.concat [ edges; rev edges; [| 63; 63; 62; 126; 125; 126 |] ] in
  List.iter
    (fun (what, ids) ->
      let n = Array.length ids in
      Alcotest.(check bool) (what ^ ": whole run") true (add_run_matches_adds ~base ids 0 n);
      Alcotest.(check bool)
        (what ^ ": inner slice") true
        (add_run_matches_adds ~base ids 1 (n - 1));
      Alcotest.(check bool)
        (what ^ ": empty slice") true
        (add_run_matches_adds ~base ids 3 3);
      Alcotest.(check bool)
        (what ^ ": masked entries") true
        (add_run_matches_adds ~mask:0xFF ~base ids 0 n))
    [
      ("ascending", edges);
      ("descending", rev edges);
      ("shuffled", shuffled);
      ("repeated", repeated);
      ("one word", [| 5; 3; 62; 0; 5 |]);
    ];
  List.iter
    (fun bad ->
      let ids = [| 3; 64; 126; bad; 7 |] in
      let s = Bitset.copy base in
      Alcotest.check_raises
        (Printf.sprintf "id %d" bad)
        (Invalid_argument "Bitset: index out of bounds")
        (fun () -> Bitset.add_run s ids 0 5);
      Alcotest.(check (list int))
        (Printf.sprintf "id %d: ids before it added" bad)
        (Bitset.to_list (Bitset.of_list cap (Bitset.to_list base @ [ 3; 64; 126 ])))
        (Bitset.to_list s))
    [ cap; cap + 62; -1; -64; max_int ];
  Alcotest.check_raises "masked id out of range" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> Bitset.add_run (Bitset.create cap) ~mask:0xFF [| 0x3FF |] 0 1);
  List.iter
    (fun (lo, hi) ->
      Alcotest.check_raises
        (Printf.sprintf "slice [%d, %d) of 3" lo hi)
        (Invalid_argument "Bitset.add_run")
        (fun () -> Bitset.add_run (Bitset.create cap) [| 1; 2; 3 |] lo hi))
    [ (-1, 2); (0, 4) ]

module IS = Set.Make (Int)

let set_of_list l = List.fold_left (fun s i -> IS.add i s) IS.empty l

let small_members = QCheck.(list_of_size (Gen.int_range 0 40) (int_range 0 99))

let prop_bitset_union =
  QCheck.Test.make ~name:"union matches Set.union" ~count:300
    QCheck.(pair small_members small_members)
    (fun (a, b) ->
      let sa = Bitset.of_list 100 a and sb = Bitset.of_list 100 b in
      Bitset.union_into ~into:sa sb;
      Bitset.to_list sa = IS.elements (IS.union (set_of_list a) (set_of_list b)))

let prop_bitset_inter =
  QCheck.Test.make ~name:"inter matches Set.inter" ~count:300
    QCheck.(pair small_members small_members)
    (fun (a, b) ->
      let sa = Bitset.of_list 100 a and sb = Bitset.of_list 100 b in
      Bitset.inter_into ~into:sa sb;
      Bitset.to_list sa = IS.elements (IS.inter (set_of_list a) (set_of_list b)))

let prop_bitset_diff =
  QCheck.Test.make ~name:"diff matches Set.diff" ~count:300
    QCheck.(pair small_members small_members)
    (fun (a, b) ->
      let sa = Bitset.of_list 100 a and sb = Bitset.of_list 100 b in
      Bitset.to_list (Bitset.diff sa sb)
      = IS.elements (IS.diff (set_of_list a) (set_of_list b)))

let prop_bitset_subset =
  QCheck.Test.make ~name:"subset matches Set.subset" ~count:300
    QCheck.(pair small_members small_members)
    (fun (a, b) ->
      let sa = Bitset.of_list 100 a and sb = Bitset.of_list 100 b in
      Bitset.subset sa sb = IS.subset (set_of_list a) (set_of_list b))

let prop_bitset_cardinal =
  QCheck.Test.make ~name:"cardinal matches Set.cardinal" ~count:300 small_members
    (fun a ->
      Bitset.cardinal (Bitset.of_list 100 a) = IS.cardinal (set_of_list a))

let prop_bitset_add_run =
  QCheck.Test.make ~name:"add_run matches add" ~count:300
    QCheck.(pair small_members small_members)
    (fun (base, ids) ->
      let ids = Array.of_list ids in
      add_run_matches_adds ~base:(Bitset.of_list 100 base) ids 0 (Array.length ids))

(* ---------------- acc2 and the off-heap word layer ---------------- *)

(* The delivery kernel's saturating (once, twice) accumulators: after
   feeding rows, [once] holds every index seen at least once and [twice]
   every index seen at least twice. *)

let bs cap l = Bitset.of_list cap l

let check_acc2 name ~cap rows ~exp_once ~exp_twice =
  let once = Bitset.create cap and twice = Bitset.create cap in
  List.iter (fun row -> Bitset.acc2_or_into ~once ~twice (bs cap row)) rows;
  check (Alcotest.list Alcotest.int) (name ^ ": once") exp_once (Bitset.to_list once);
  check (Alcotest.list Alcotest.int) (name ^ ": twice") exp_twice (Bitset.to_list twice)

let test_acc2_units () =
  check_acc2 "no senders" ~cap:130 [] ~exp_once:[] ~exp_twice:[];
  check_acc2 "one sender" ~cap:130 [ [ 0; 63; 129 ] ] ~exp_once:[ 0; 63; 129 ] ~exp_twice:[];
  check_acc2 "two disjoint" ~cap:130
    [ [ 0; 64 ]; [ 1; 65 ] ]
    ~exp_once:[ 0; 1; 64; 65 ] ~exp_twice:[];
  check_acc2 "two overlapping" ~cap:130
    [ [ 0; 63; 64 ]; [ 63; 64; 129 ] ]
    ~exp_once:[ 0; 63; 64; 129 ] ~exp_twice:[ 63; 64 ];
  (* saturation: a third and fourth sender must not clear the twice bit *)
  check_acc2 "three senders saturate" ~cap:130
    [ [ 5 ]; [ 5 ]; [ 5 ] ]
    ~exp_once:[ 5 ] ~exp_twice:[ 5 ];
  check_acc2 "four senders saturate" ~cap:130
    [ [ 5; 70 ]; [ 5 ]; [ 5; 70 ]; [ 5; 70 ] ]
    ~exp_once:[ 5; 70 ] ~exp_twice:[ 5; 70 ]

let test_acc2_add_matches_or () =
  (* element-wise feeding must equal set-wise feeding *)
  let cap = 100 in
  let rows = [ [ 1; 63; 64 ]; [ 2; 63 ]; [ 1; 99 ] ] in
  let o1 = Bitset.create cap and t1 = Bitset.create cap in
  List.iter (fun r -> Bitset.acc2_or_into ~once:o1 ~twice:t1 (bs cap r)) rows;
  let o2 = Bitset.create cap and t2 = Bitset.create cap in
  List.iter (List.iter (fun i -> Bitset.acc2_add ~once:o2 ~twice:t2 i)) rows;
  Alcotest.(check bool) "once equal" true (Bitset.equal o1 o2);
  Alcotest.(check bool) "twice equal" true (Bitset.equal t1 t2)

let prop_acc2_counts =
  QCheck.Test.make ~name:"acc2 = naive multiset counting" ~count:200
    QCheck.(small_list (small_list (int_range 0 200)))
    (fun rows ->
      let cap = 201 in
      let once = Bitset.create cap and twice = Bitset.create cap in
      let counts = Array.make cap 0 in
      List.iter
        (fun row ->
          let row = List.sort_uniq compare row in
          List.iter (fun i -> counts.(i) <- counts.(i) + 1) row;
          Bitset.acc2_or_into ~once ~twice (bs cap row))
        rows;
      let ok = ref true in
      for i = 0 to cap - 1 do
        if Bitset.mem once i <> (counts.(i) >= 1) then ok := false;
        if Bitset.mem twice i <> (counts.(i) >= 2) then ok := false
      done;
      !ok)

(* The same counting law for the element-wise feed [acc2_add], which the
   kernel uses for gray reach. *)
let prop_acc2_add_counts =
  QCheck.Test.make ~name:"off-heap acc2 = naive multiset" ~count:200
    QCheck.(small_list (small_list (int_range 0 200)))
    (fun rows ->
      let cap = 201 in
      let once = Bitset.create cap and twice = Bitset.create cap in
      let counts = Array.make cap 0 in
      List.iter
        (List.iter (fun i ->
             counts.(i) <- counts.(i) + 1;
             Bitset.acc2_add ~once ~twice i))
        rows;
      let ok = ref true in
      for i = 0 to cap - 1 do
        if Bitset.mem once i <> (counts.(i) >= 1) then ok := false;
        if Bitset.mem twice i <> (counts.(i) >= 2) then ok := false
      done;
      !ok)

let prop_word_ops_offheap =
  (* union/inter/diff/cardinal/iter agree with a sorted-list model *)
  QCheck.Test.make ~name:"off-heap word ops = list model" ~count:300
    QCheck.(pair (small_list (int_range 0 190)) (small_list (int_range 0 190)))
    (fun (la, lb) ->
      let cap = 191 in
      let la = List.sort_uniq compare la and lb = List.sort_uniq compare lb in
      let a = bs cap la and b = bs cap lb in
      let model f = List.filter (fun i -> f (List.mem i la) (List.mem i lb)) (List.init cap Fun.id) in
      let got op =
        let c = Bitset.copy a in
        op ~into:c b;
        Bitset.to_list c
      in
      got Bitset.union_into = model (fun x y -> x || y)
      && got Bitset.inter_into = model (fun x y -> x && y)
      && got Bitset.diff_into = model (fun x y -> x && not y)
      && Bitset.cardinal a = List.length la
      && Bitset.to_list a = la
      && Bitset.equal a (bs cap la))

(* [acc2_merge_into] folds one pair into another: feeding each slice of
   the rows into a private pair and merging must equal feeding all rows
   into one pair, for any partition into any number of slices. *)
let prop_merge_equals_sequential =
  QCheck.Test.make ~name:"sharded acc2 merge = sequential" ~count:300
    QCheck.(pair (int_range 1 7) (small_list (small_list (int_range 0 220))))
    (fun (shards, rows) ->
      let cap = 221 in
      let rows = Array.of_list rows in
      let nr = Array.length rows in
      let once = Bitset.create cap and twice = Bitset.create cap in
      Array.iter (fun row -> Bitset.acc2_or_into ~once ~twice (bs cap row)) rows;
      let m_once = Bitset.create cap and m_twice = Bitset.create cap in
      for s = 0 to shards - 1 do
        let so = Bitset.create cap and st = Bitset.create cap in
        for i = s * nr / shards to (((s + 1) * nr) / shards) - 1 do
          Bitset.acc2_or_into ~once:so ~twice:st (bs cap rows.(i))
        done;
        Bitset.acc2_merge_into ~once:m_once ~twice:m_twice ~src_once:so ~src_twice:st
      done;
      Bitset.equal once m_once && Bitset.equal twice m_twice)

let test_merge_units () =
  let cap = 130 in
  let mk lo lt = (bs cap lo, bs cap lt) in
  let merge (o1, t1) (o2, t2) =
    let once = Bitset.copy o1 and twice = Bitset.copy t1 in
    Bitset.acc2_merge_into ~once ~twice ~src_once:o2 ~src_twice:t2;
    (Bitset.to_list once, Bitset.to_list twice)
  in
  let pairs = Alcotest.(pair (list int) (list int)) in
  check pairs "disjoint singles" ([ 0; 64; 65; 129 ], [])
    (merge (mk [ 0; 64 ] []) (mk [ 65; 129 ] []));
  check pairs "overlap saturates" ([ 5; 70 ], [ 70 ]) (merge (mk [ 5; 70 ] []) (mk [ 70 ] []));
  check pairs "src twice dominates" ([ 7 ], [ 7 ]) (merge (mk [] []) (mk [ 7 ] [ 7 ]))

(* ---------------- Union_find ---------------- *)

let test_uf_basic () =
  let uf = Union_find.create 5 in
  check Alcotest.int "5 components" 5 (Union_find.components uf);
  Union_find.union uf 0 1;
  Union_find.union uf 2 3;
  check Alcotest.int "3 components" 3 (Union_find.components uf);
  Alcotest.(check bool) "0~1" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "0!~2" false (Union_find.same uf 0 2);
  Union_find.union uf 1 2;
  Alcotest.(check bool) "0~3 transitively" true (Union_find.same uf 0 3);
  Union_find.union uf 0 3;
  check Alcotest.int "idempotent union" 2 (Union_find.components uf)

let prop_uf_components =
  QCheck.Test.make ~name:"components = n - spanning unions" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 30) (pair (int_range 0 19) (int_range 0 19)))
    (fun pairs ->
      let uf = Union_find.create 20 in
      List.iter (fun (a, b) -> Union_find.union uf a b) pairs;
      (* cross-check against a naive fixpoint partition *)
      let repr = Array.init 20 (fun i -> i) in
      let rec naive_find i = if repr.(i) = i then i else naive_find repr.(i) in
      List.iter
        (fun (a, b) ->
          let ra = naive_find a and rb = naive_find b in
          if ra <> rb then repr.(ra) <- rb)
        pairs;
      let naive_components =
        List.length (List.sort_uniq compare (List.init 20 naive_find))
      in
      Union_find.components uf = naive_components)

(* ---------------- Int_sort ---------------- *)

(* The oracle is [Array.stable_sort compare], which shares no code with
   [Int_sort].  The shaped inputs are packed [u * n + v] keys, the
   values the graph builder's rows and the generators' batches hold. *)

type shape = Random | Duplicates | One_bucket | All_equal | Ascending | Descending | Organ_pipe

let shapes = [ Random; Duplicates; One_bucket; All_equal; Ascending; Descending; Organ_pipe ]

let shape_name = function
  | Random -> "random"
  | Duplicates -> "duplicates"
  | One_bucket -> "one bucket"
  | All_equal -> "all equal"
  | Ascending -> "ascending"
  | Descending -> "descending"
  | Organ_pipe -> "organ pipe"

(* [len] keys [u * n + v] with [u, v < n], of the given shape, drawn
   from [seed]. *)
let packed_keys ~n ~shape ~len seed =
  let rng = Rng.create seed in
  let key () = (Rng.int rng n * n) + Rng.int rng n in
  let a =
    match shape with
    | Duplicates ->
      let pool = Array.init (1 + (len / 8)) (fun _ -> key ()) in
      Array.init len (fun _ -> pool.(Rng.int rng (Array.length pool)))
    | One_bucket ->
      let u = Rng.int rng n in
      Array.init len (fun _ -> (u * n) + Rng.int rng n)
    | All_equal -> Array.make len (key ())
    | Random | Ascending | Descending | Organ_pipe -> Array.init len (fun _ -> key ())
  in
  (match shape with
  | Ascending -> Array.sort compare a
  | Descending -> Array.sort (fun x y -> compare y x) a
  | Organ_pipe ->
    Array.sort compare a;
    let h = len / 2 in
    let back = Array.sub a h (len - h) in
    Array.iteri (fun i x -> a.(len - 1 - i) <- x) back
  | Random | Duplicates | One_bucket | All_equal -> ());
  a

(* [sort] agrees with the oracle on [a]. *)
let int_sort_agrees a =
  let expect = Array.copy a in
  Array.stable_sort compare expect;
  let s = Array.copy a in
  Int_sort.sort s;
  s = expect

(* Lengths on both sides of the insertion-sort cutoff and far past it;
   small n makes long runs of equal keys. *)
let prop_int_sort_shapes =
  let gen =
    let open QCheck.Gen in
    oneofl [ 1; 2; 3; 64; 4096; 65536 ] >>= fun n ->
    oneofl shapes >>= fun shape ->
    oneof [ int_bound 300; int_bound 4000 ] >>= fun len ->
    int_bound 1_000_000 >|= fun seed -> (n, shape, len, seed)
  in
  let print (n, shape, len, seed) =
    Printf.sprintf "n=%d %s len=%d seed=%d" n (shape_name shape) len seed
  in
  QCheck.Test.make ~name:"sort = stable_sort compare (shaped keys)" ~count:500
    (QCheck.make ~print gen) (fun (n, shape, len, seed) ->
      int_sort_agrees (packed_keys ~n ~shape ~len seed))

(* Long arrays of every shape, deep enough for the quicksort's depth
   limit to matter. *)
let test_int_sort_sizes () =
  List.iter
    (fun (n, len) ->
      List.iteri
        (fun i shape ->
          if not (int_sort_agrees (packed_keys ~n ~shape ~len (n + i))) then
            Alcotest.failf "n=%d len=%d %s" n len (shape_name shape))
        shapes)
    [ (4096, 20_000); (65536, 70_000); (1 lsl 20, 100) ]

let prop_int_sort_any_ints =
  QCheck.Test.make ~name:"sort = stable_sort compare (any ints)" ~count:300
    QCheck.(oneof [ array int; array_of_size Gen.(int_bound 3000) (int_bound 50) ])
    (fun a ->
      let expect = Array.copy a and s = Array.copy a in
      Array.stable_sort compare expect;
      Int_sort.sort s;
      s = expect)

(* [sort_range] sorts its slice and leaves the rest of the array as it
   was. *)
let prop_int_sort_range =
  QCheck.Test.make ~name:"sort_range sorts the slice only" ~count:300
    QCheck.(triple (array_of_size Gen.(int_bound 200) (int_bound 1000)) small_nat small_nat)
    (fun (a, x, y) ->
      let len = Array.length a in
      let lo = min x len and hi = min (x + y) len in
      let s = Array.copy a in
      Int_sort.sort_range s lo hi;
      let slice = Array.sub a lo (hi - lo) in
      Array.stable_sort compare slice;
      Array.sub s 0 lo = Array.sub a 0 lo
      && Array.sub s lo (hi - lo) = slice
      && Array.sub s hi (len - hi) = Array.sub a hi (len - hi))

let test_int_sort_errors () =
  let range = Invalid_argument "Int_sort.sort_range" in
  List.iter
    (fun (lo, hi) ->
      Alcotest.check_raises "bad slice" range (fun () ->
          Int_sort.sort_range [| 3; 2; 1 |] lo hi))
    [ (-1, 2); (0, 4); (2, 1) ]

(* ---------------- Table ---------------- *)

let test_table_render () =
  let t = Table.create [ "a"; "bb" ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "yy"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains header" true (String.length s > 0);
  Alcotest.(check bool) "contains separator" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.trim l <> "" && String.for_all (fun c -> c = '-' || c = ' ') l))

let test_table_arity () =
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "only one" ])

let () =
  Alcotest.run "rn_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "derive stable" `Quick test_rng_derive_stable;
          Alcotest.test_case "derive labels differ" `Quick test_rng_derive_labels_differ;
          Alcotest.test_case "bool degenerate" `Quick test_rng_bool_degenerate;
          Alcotest.test_case "int error" `Quick test_rng_int_error;
          Alcotest.test_case "geometric support" `Quick test_rng_geometric_support;
          qtest prop_rng_int_bounds;
          qtest prop_rng_float_unit;
          qtest prop_rng_permutation;
          qtest prop_rng_shuffle_multiset;
          qtest prop_rng_ref_derive;
          qtest prop_rng_ref_interleaved;
          Alcotest.test_case "bool = scaled comparison" `Quick test_rng_bool_scaled;
          qtest prop_rng_ref_permutation;
          qtest prop_rng_skip;
          Alcotest.test_case "skip negative" `Quick test_rng_skip_negative;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_alloc_free;
        ] );
      ( "ilog",
        [
          Alcotest.test_case "known values" `Quick test_ilog_known;
          Alcotest.test_case "errors" `Quick test_ilog_errors;
          qtest prop_ilog_floor;
          qtest prop_ilog_ceil;
          qtest prop_ilog_cdiv;
          qtest prop_is_pow2;
        ] );
      ( "stats",
        [
          Alcotest.test_case "known values" `Quick test_stats_known;
          Alcotest.test_case "single sample" `Quick test_stats_single;
          Alcotest.test_case "empty input" `Quick test_stats_empty;
          Alcotest.test_case "ci95" `Quick test_stats_ci95;
          qtest prop_stats_summary_order;
          qtest prop_stats_mean_bounds;
        ] );
      ( "fit",
        [
          Alcotest.test_case "linear exact" `Quick test_fit_linear_exact;
          Alcotest.test_case "power law" `Quick test_fit_power;
          Alcotest.test_case "polylog" `Quick test_fit_polylog;
          Alcotest.test_case "errors" `Quick test_fit_errors;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic ops" `Quick test_bitset_basic;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "copy independent" `Quick test_bitset_copy_independent;
          qtest prop_bitset_union;
          qtest prop_bitset_inter;
          qtest prop_bitset_diff;
          qtest prop_bitset_subset;
          qtest prop_bitset_cardinal;
          Alcotest.test_case "add_run = add, any order" `Quick test_bitset_add_run;
          qtest prop_bitset_add_run;
        ] );
      ( "int-sort",
        [
          qtest prop_int_sort_shapes;
          Alcotest.test_case "long arrays, every shape" `Quick test_int_sort_sizes;
          qtest prop_int_sort_any_ints;
          qtest prop_int_sort_range;
          Alcotest.test_case "errors" `Quick test_int_sort_errors;
        ] );
      ( "acc2",
        [
          Alcotest.test_case "unit cases (0/1/2/3+ senders)" `Quick test_acc2_units;
          Alcotest.test_case "acc2_add = acc2_or_into" `Quick test_acc2_add_matches_or;
          qtest prop_acc2_counts;
        ] );
      ( "offheap-words",
        [
          qtest prop_acc2_add_counts;
          qtest prop_word_ops_offheap;
          Alcotest.test_case "acc2_merge_into unit cases" `Quick test_merge_units;
          qtest prop_merge_equals_sequential;
        ] );
      ( "union-find",
        [
          Alcotest.test_case "basic" `Quick test_uf_basic;
          qtest prop_uf_components;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
        ] );
    ]

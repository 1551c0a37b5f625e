(* Deterministic PRNG based on splitmix64.

   Every stochastic component of the simulator draws from an [Rng.t] derived
   from a single experiment seed, so executions are reproducible bit-for-bit
   across runs and machines.  [derive] gives each labelled sub-component
   (each simulated process, the adversary) its own stream.

   The 64-bit state lives unboxed in an 8-byte [Bytes.t], read and written
   with the unchecked native-endian primitives.  A [{ mutable state :
   int64 }] record would box a fresh [int64] on every store, and without
   flambda every call into a separate mixing function boxes its argument
   and its result.  So [mix] is inlined into each draw: a draw loads the
   state, advances, stores and mixes in one function body with no boxed
   [int64] or [float] in between, and allocates nothing (test_util's
   allocation budget checks this). *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline always] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* Advance [t] and return the mixed output. *)
let[@inline always] next t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix s

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))

(* The state [derive] seeds from: deterministic in both the parent state
   *value* (not identity) and the label. *)
let[@inline always] derived parent label =
  mix (Int64.logxor (get64 parent 0) (Int64.of_int (0x61C88647 * (label + 1))))

let derive t label = of_state (derived t label)

(* Same derivation as [derive], but re-seeds an existing generator instead of
   allocating one.  The engine re-derives the adversary stream every round, so
   this keeps the hot loop allocation-free. *)
let derive_into dst ~parent label = set64 dst 0 (derived parent label)

(* Every draw adds [golden_gamma] to the state and mixes a copy of it,
   so [k] draws move the state by [k * golden_gamma] (mod 2^64). *)
let skip t k =
  if k < 0 then invalid_arg "Rng.skip: negative count";
  set64 t 0 (Int64.add (get64 t 0) (Int64.mul (Int64.of_int k) golden_gamma))

let bits t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod bound

(* 53 uniform bits, as an exact float in [0, 2^53). *)
let[@inline always] bits53 t = Int64.to_float (Int64.shift_right_logical (next t) 11)

(* Mapped to [0, 1). *)
let float t = bits53 t /. 0x1p53

(* [bits53 t < p *. 2^53] is [float t < p] for every [p]: scaling both
   sides by 2^53 is exact (no overflow below [p] = 2^971, whose product
   rounds to [infinity], still above every draw; a subnormal [p] scales
   up exactly), and [nan] compares false either way.  It saves the
   division. *)
let bool t p = bits53 t < p *. 0x1p53

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

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric";
  let rec loop k = if bool t p then k else loop (k + 1) in
  loop 1

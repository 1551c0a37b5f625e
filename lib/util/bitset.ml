(* Dense fixed-capacity bitsets over [0, capacity).

   Node sets in the simulator (banned lists, detector sets, reach sets) are
   dense integer sets bounded by the network size, for which an unboxed
   word-array bitset is both faster and smaller than tree sets.

   The words live in an off-heap [Bigarray] rather than an OCaml [int
   array]: at million-node scale the engine holds thousands of row masks
   and kernel accumulators, and keeping them out of the scanned heap
   means the GC never walks them and [Gc.compact] never copies them.  The
   [int] Bigarray kind stores native OCaml ints, so every word still
   carries [Sys.int_size] (= 63 on 64-bit) usable bits and all the SWAR
   arithmetic below is unchanged from the int-array days. *)

type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { words : words; capacity : int }

let bits_per_word = Sys.int_size (* 63 on 64-bit *)

let alloc_words n : words =
  let w = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill w 0;
  w

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create";
  { words = alloc_words (Ilog.cdiv (max capacity 1) bits_per_word); capacity }

let capacity t = t.capacity

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of bounds"

let add t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.{w} <- t.words.{w} lor (1 lsl b)

(* An out-of-range id met inside [add_run]'s loop, re-raised as [add]
   raises once the loop is left: a call inside the loop, even on a cold
   path, would make the compiler spill the loop's registers around it. *)
exception Bad_id of int

(* [add_run t ~mask a lo hi] is [add t (a.(i) land mask)] for [i] in
   [lo, hi), in that order, one word at a time: the bits bound for the
   current word gather in [acc] and reach memory only when an id lands
   in another word.  Ascending ids flush once per word; any order is
   still exact, because a flush ORs into the word rather than storing
   it.  An out-of-range id flushes first and then raises as [add]
   does, so the set is left as [add] would leave it. *)
let add_run t ?(mask = -1) (a : int array) lo hi =
  if lo < 0 || hi > Array.length a then invalid_arg "Bitset.add_run";
  let words = t.words and cap = t.capacity in
  let cur = ref 0 and acc = ref 0 in
  match
    for i = lo to hi - 1 do
      let x = Array.unsafe_get a i land mask in
      let w = x / bits_per_word in
      if w <> !cur || x < 0 || x >= cap then begin
        Bigarray.Array1.unsafe_set words !cur (Bigarray.Array1.unsafe_get words !cur lor !acc);
        if x < 0 || x >= cap then raise_notrace (Bad_id x);
        cur := w;
        acc := 0
      end;
      acc := !acc lor (1 lsl (x - (w * bits_per_word)))
    done
  with
  | () -> Bigarray.Array1.unsafe_set words !cur (Bigarray.Array1.unsafe_get words !cur lor !acc)
  | exception Bad_id x -> check t x

let remove t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.{w} <- t.words.{w} land lnot (1 lsl b)

let mem t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.{w} land (1 lsl b) <> 0

let clear t = Bigarray.Array1.fill t.words 0

let copy t =
  let words = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (Bigarray.Array1.dim t.words) in
  Bigarray.Array1.blit t.words words;
  { words; capacity = t.capacity }

(* SWAR popcount over two 32-bit halves: OCaml ints are 63-bit, so the
   usual 64-bit mask constants do not fit as literals. *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (* OCaml ints are wider than 32 bits, so the byte-sum multiply keeps
     carries a 32-bit truncation would drop — mask to the low byte. *)
  ((x * 0x01010101) lsr 24) land 0xFF

let popcount_word w = popcount32 (w land 0xFFFFFFFF) + popcount32 ((w lsr 32) land 0x7FFFFFFF)

let cardinal t =
  let acc = ref 0 in
  for w = 0 to Bigarray.Array1.dim t.words - 1 do
    acc := !acc + popcount_word (Bigarray.Array1.unsafe_get t.words w)
  done;
  !acc

(* Index of the lowest set bit of [w] ([w] must be nonzero): isolate it
   with [w land -w] and count the ones below it.  Wraparound at the sign
   bit is fine — two's complement makes [min_int - 1 = max_int], whose 62
   set bits are exactly the index of bit 62. *)
let lowest_bit w = popcount_word ((w land -w) - 1)

let iter f t =
  for w = 0 to Bigarray.Array1.dim t.words - 1 do
    let word = ref t.words.{w} in
    let base = w * bits_per_word in
    while !word <> 0 do
      f (base + lowest_bit !word);
      word := !word land (!word - 1)
    done
  done

(* Members of [a ∧ b] in increasing order, without materialising the
   intersection.  Capacities must match. *)
let iter_inter f a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset.iter_inter";
  for w = 0 to Bigarray.Array1.dim a.words - 1 do
    let word =
      ref (Bigarray.Array1.unsafe_get a.words w land Bigarray.Array1.unsafe_get b.words w)
    in
    let base = w * bits_per_word in
    while !word <> 0 do
      f (base + lowest_bit !word);
      word := !word land (!word - 1)
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list capacity l =
  let t = create capacity in
  List.iter (add t) l;
  t

let union_into ~into src =
  if into.capacity <> src.capacity then invalid_arg "Bitset.union_into";
  for w = 0 to Bigarray.Array1.dim into.words - 1 do
    into.words.{w} <- into.words.{w} lor src.words.{w}
  done

let inter_into ~into src =
  if into.capacity <> src.capacity then invalid_arg "Bitset.inter_into";
  for w = 0 to Bigarray.Array1.dim into.words - 1 do
    into.words.{w} <- into.words.{w} land src.words.{w}
  done

let diff_into ~into src =
  if into.capacity <> src.capacity then invalid_arg "Bitset.diff_into";
  for w = 0 to Bigarray.Array1.dim into.words - 1 do
    into.words.{w} <- into.words.{w} land lnot src.words.{w}
  done

(* Two-accumulator saturating add: after feeding sender reach sets
   through [acc2_or_into]/[acc2_add], [once] holds the nodes reached by
   at least one sender and [twice] those reached by at least two.  The
   update is per word [twice |= once land src; once |= src] — a
   commutative fold, so sender order is irrelevant. *)
let acc2_or_into ~once ~twice src =
  if once.capacity <> src.capacity || twice.capacity <> src.capacity then
    invalid_arg "Bitset.acc2_or_into";
  (* unsafe accesses: equal capacities imply equal word counts, and this
     is the delivery kernel's innermost loop *)
  for w = 0 to Bigarray.Array1.dim once.words - 1 do
    let s = Bigarray.Array1.unsafe_get src.words w in
    if s <> 0 then begin
      let o = Bigarray.Array1.unsafe_get once.words w in
      Bigarray.Array1.unsafe_set twice.words w
        (Bigarray.Array1.unsafe_get twice.words w lor (o land s));
      Bigarray.Array1.unsafe_set once.words w (o lor s)
    end
  done

let acc2_add ~once ~twice i =
  check once i;
  if twice.capacity <> once.capacity then invalid_arg "Bitset.acc2_add";
  let w = i / bits_per_word and b = 1 lsl (i mod bits_per_word) in
  twice.words.{w} <- twice.words.{w} lor (once.words.{w} land b);
  once.words.{w} <- once.words.{w} lor b

(* Merge one (once, twice) accumulator pair into another.  Because the
   pair is a pure function of the *multiset* of contributions fed to it,
   splitting the contributions across several private pairs and merging
   them — in any order — yields exactly the single-pair result:
   an element is in the merged [twice] iff it was reached twice within
   one shard, or at least once in each of two shards. *)
let acc2_merge_into ~once ~twice ~src_once ~src_twice =
  if
    once.capacity <> src_once.capacity
    || twice.capacity <> src_twice.capacity
    || once.capacity <> twice.capacity
  then invalid_arg "Bitset.acc2_merge_into";
  for w = 0 to Bigarray.Array1.dim once.words - 1 do
    let o = Bigarray.Array1.unsafe_get once.words w in
    let so = Bigarray.Array1.unsafe_get src_once.words w in
    let st = Bigarray.Array1.unsafe_get src_twice.words w in
    Bigarray.Array1.unsafe_set twice.words w
      (Bigarray.Array1.unsafe_get twice.words w lor st lor (o land so));
    Bigarray.Array1.unsafe_set once.words w (o lor so)
  done

(* Word-level view for kernels: [word_count] words of [bits_per_word]
   bits each; [get_word]/[set_word] read and write them directly.  Bits
   at index [>= capacity] in the top word must stay zero — [set_word]
   masks them off. *)
let word_count t = Bigarray.Array1.dim t.words
let get_word t i = t.words.{i}

let set_word t i w =
  let lo = i * bits_per_word in
  let valid = t.capacity - lo in
  if valid <= 0 then invalid_arg "Bitset.set_word";
  t.words.{i} <- (if valid >= bits_per_word then w else w land ((1 lsl valid) - 1))

let diff a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset.diff";
  let r = copy a in
  for w = 0 to Bigarray.Array1.dim r.words - 1 do
    r.words.{w} <- r.words.{w} land lnot b.words.{w}
  done;
  r

(* Bigarrays carry custom compare, so polymorphic [=] on the words is a
   contentwise comparison, same as it was for int arrays. *)
let equal a b = a.capacity = b.capacity && a.words = b.words

let subset a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset.subset";
  let ok = ref true in
  for w = 0 to Bigarray.Array1.dim a.words - 1 do
    if a.words.{w} land lnot b.words.{w} <> 0 then ok := false
  done;
  !ok

let is_empty t =
  let ok = ref true in
  for w = 0 to Bigarray.Array1.dim t.words - 1 do
    if t.words.{w} <> 0 then ok := false
  done;
  !ok

let pp ppf t = Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma int) (to_list t)

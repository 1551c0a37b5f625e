(* Round adversaries for the dual graph model.

   Each round, after seeing who broadcasts, the adversary picks a reach set
   consisting of all reliable edges E plus an arbitrary subset of the gray
   edges E' \ E (Section 2).  A policy fills a bitset over gray-edge ids.

   The [spiteful] policy is the Section 7 simulation adversary: whenever two
   or more processes broadcast it activates every gray edge incident to a
   broadcaster, colliding any message that would otherwise have crossed
   between weakly-connected parts; a solo broadcaster is left alone so its
   message travels only on E.

   Every policy also declares, in O(1) from the broadcasters, what kind of
   reach set it is about to pick ([reach]):

   - [No_gray] ([silent], and [spiteful] below two broadcasters): no gray
     edge incident to a broadcaster is active;
   - [All_incident] ([all_gray], and [spiteful] from two broadcasters on):
     every gray edge incident to a broadcaster is active;
   - [Chosen] ([bernoulli], [harassing], [jamming], [custom]): only
     [choose] knows.

   On a declared round the reach set is a fixed function of the
   broadcasters, so an untraced engine run skips the adversary phase and
   delivers along E alone or along all of E' ([Dual.reach_rows]).  The
   declaring policies' [choose] is derived from the declaration, and
   test_engine_paths.ml holds every policy's [choose] to it.

   [jamming] additionally carries a word-parallel KERNEL — a second
   implementation of exactly the same activation set: it finds its
   victims (nodes about to hear exactly one reliable broadcaster) with
   the delivery kernel's once/twice saturating accumulator over the
   broadcasters' reliable neighbours, then reads them off word-parallel
   as once ∧ ¬twice ∧ ¬bcast instead of scanning all n nodes; the
   per-victim choice of one colliding gray edge is unchanged (same edge,
   same order).  The kernel must produce bit-for-bit the activation set
   of the scalar [choose] (certified by test_engine_paths.ml), which is
   what lets the engine switch per round on a cost model.
   [bernoulli]/[harassing] have NO kernel: their per-edge RNG draws are
   the semantics — any evaluation that reorders or batches the draws
   changes the stream — so they keep the scalar loop (made cheaper
   below: broadcaster membership is a per-round bitset, not a binary
   search per edge).

   Per-broadcaster walks index the CSR rows directly ([Dual.gray_lo] …
   [Dual.gray_id_at], [Graph.row_lo] … [Graph.nbr_at]) instead of passing
   a callback: a callback that captures the round's bitset or RNG is a
   closure allocated per broadcaster per round. *)

module Bitset = Rn_util.Bitset
module Rng = Rn_util.Rng
module Graph = Rn_graph.Graph
module Dual = Rn_graph.Dual

(* Preallocated scratch for the kernel path, one per engine run (built
   lazily on the first kernel round).  [sc_bcast] must be empty between
   rounds (policies restore it by removing what they added). *)
type scratch = {
  sc_bcast : Bitset.t; (* capacity n *)
  sc_once : Bitset.t; (* capacity n *)
  sc_twice : Bitset.t; (* capacity n *)
}

let make_scratch dual =
  let n = Dual.n dual in
  { sc_bcast = Bitset.create n; sc_once = Bitset.create n; sc_twice = Bitset.create n }

type choose_fn =
  round:int -> broadcasters:int array -> Dual.t -> Rng.t -> Bitset.t -> unit

type kernel = {
  k_choose :
    round:int -> broadcasters:int array -> Dual.t -> Rng.t -> scratch -> Bitset.t -> unit;
  k_wins : broadcasters:int array -> Dual.t -> bool;
      (* the engine's per-round choice: is the mask path expected to beat the
         scalar one on THIS round's broadcasters?  Must be O(#bcast). *)
}

type reach = No_gray | All_incident | Chosen

type t = {
  name : string;
  choose : choose_fn;
  reach : broadcasters:int array -> reach; (* O(1) *)
  kernel : kernel option;
}

let name t = t.name

let choose t ~round ~broadcasters dual rng active =
  t.choose ~round ~broadcasters dual rng active

let reach t ~broadcasters = t.reach ~broadcasters
let chosen ~broadcasters:_ = Chosen

let has_kernel t = t.kernel <> None

let kernel_wins t ~broadcasters dual =
  match t.kernel with None -> false | Some k -> k.k_wins ~broadcasters dual

let choose_kernel t ~round ~broadcasters dual rng scratch active =
  match t.kernel with
  | Some k -> k.k_choose ~round ~broadcasters dual rng scratch active
  | None -> invalid_arg "Adversary.choose_kernel: policy has no kernel"

(* Only gray edges incident to a broadcaster can influence delivery — the
   engine reads the activation bitset exclusively through the broadcasters'
   gray adjacency — so policies below restrict themselves to those edges.
   For deterministic policies this is observably identical; for [bernoulli]
   it merely re-times which stream positions feed which edges (each
   relevant edge still gets one independent draw per round, from the
   round's derived stream). *)

(* Every gray edge incident to a broadcaster, one incidence entry at a
   time. *)
let add_incident ~broadcasters dual active =
  for j = 0 to Array.length broadcasters - 1 do
    let u = broadcasters.(j) in
    for i = Dual.gray_lo dual u to Dual.gray_hi dual u - 1 do
      Bitset.add active (Dual.gray_id_at dual i)
    done
  done

(* A policy whose every round is declared: [choose] fills exactly the
   reach set its declaration names. *)
let declared name reach =
  {
    name;
    choose =
      (fun ~round:_ ~broadcasters dual _ active ->
        match reach ~broadcasters with
        | All_incident -> add_incident ~broadcasters dual active
        | No_gray | Chosen -> ());
    reach;
    kernel = None;
  }

let silent = declared "silent" (fun ~broadcasters:_ -> No_gray)
let all_gray = declared "all-gray" (fun ~broadcasters:_ -> All_incident)

(* Section 7 simulation adversary: every gray edge of a broadcaster
   whenever at least two processes broadcast, colliding what would cross
   between weakly-connected parts; never interfere with a solo
   broadcaster. *)
let spiteful =
  declared "spiteful" (fun ~broadcasters ->
      if Array.length broadcasters >= 2 then All_incident else No_gray)

(* Each gray edge independently active with probability p, fresh each
   round.  One draw per distinct incident edge: the lowest-id broadcasting
   endpoint owns the draw.  NO kernel: the per-edge draw sequence is the
   semantics.  The broadcaster membership test is a per-round bitset
   (filled from the sorted broadcaster array, emptied again after the
   walk) instead of a per-edge binary search — same draws, same stream,
   cheaper by the O(log #bcast) factor on every gray edge.  The bitset
   lives in domain-local storage so one policy value stays safe to share
   across Pool domains running independent cells. *)
let bernoulli p =
  if p < 0.0 || p > 1.0 then invalid_arg "Adversary.bernoulli";
  let dls = Domain.DLS.new_key (fun () -> ref (Bitset.create 0)) in
  {
    name = Printf.sprintf "bernoulli(%.2f)" p;
    choose =
      (fun ~round:_ ~broadcasters dual rng active ->
        let n = Dual.n dual in
        let cell = Domain.DLS.get dls in
        if Bitset.capacity !cell <> n then cell := Bitset.create n;
        let bcast = !cell in
        let nb = Array.length broadcasters in
        for j = 0 to nb - 1 do
          Bitset.add bcast broadcasters.(j)
        done;
        for j = 0 to nb - 1 do
          let u = broadcasters.(j) in
          for i = Dual.gray_lo dual u to Dual.gray_hi dual u - 1 do
            let v = Dual.gray_nbr_at dual i in
            if not (v < u && Bitset.mem bcast v) then
              if Rng.bool rng p then Bitset.add active (Dual.gray_id_at dual i)
          done
        done;
        for j = 0 to nb - 1 do
          Bitset.remove bcast broadcasters.(j)
        done);
    reach = chosen;
    kernel = None;
  }

(* Activate gray edges incident to broadcasters with probability p: a
   cheaper adaptive policy that concentrates unreliability where it can
   actually cause collisions.  NO kernel, like [bernoulli]. *)
let harassing p =
  if p < 0.0 || p > 1.0 then invalid_arg "Adversary.harassing";
  {
    name = Printf.sprintf "harassing(%.2f)" p;
    choose =
      (fun ~round:_ ~broadcasters dual rng active ->
        for j = 0 to Array.length broadcasters - 1 do
          let u = broadcasters.(j) in
          for i = Dual.gray_lo dual u to Dual.gray_hi dual u - 1 do
            if Rng.bool rng p then Bitset.add active (Dual.gray_id_at dual i)
          done
        done);
    reach = chosen;
    kernel = None;
  }

(* Picks the gray edge the scalar jamming loop would: the first
   broadcasting gray neighbour of [v] in descending edge-id order. *)
let jam_victim ~bcast_mem dual active v =
  let hi = Dual.gray_hi dual v in
  let i = ref (Dual.gray_lo dual v) in
  while !i < hi do
    if bcast_mem (Dual.gray_nbr_at dual !i) then begin
      Bitset.add active (Dual.gray_id_at dual !i);
      i := hi
    end
    else incr i
  done

(* The broadcast-hardness adversary of the dual graph line of work
   (references [10, 11] of the paper): wherever a node is about to hear a
   solo reliable broadcaster, activate a gray edge from *another*
   broadcaster to collide it.  It never helps — gray edges are only ever
   switched on to raise a receiver's broadcaster count past one.

   The scalar path threads preallocated per-domain scratch (broadcast
   flags + reliable-neighbour counts) through domain-local storage, so
   steady-state rounds allocate nothing: flags are cleared by removing
   the broadcasters again, counts by re-walking their neighbourhoods. *)
let jamming =
  let dls = Domain.DLS.new_key (fun () -> ref None) in
  {
    name = "jamming";
    reach = chosen;
    choose =
      (fun ~round:_ ~broadcasters dual _ active ->
        let g = Dual.g dual in
        let n = Dual.n dual in
        let cell = Domain.DLS.get dls in
        let bcast, counts =
          match !cell with
          | Some ((b, _) as s) when Bytes.length b = n -> s
          | _ ->
            let s = (Bytes.make n '\000', Array.make n 0) in
            cell := Some s;
            s
        in
        let nb = Array.length broadcasters in
        for j = 0 to nb - 1 do
          Bytes.unsafe_set bcast broadcasters.(j) '\001'
        done;
        for j = 0 to nb - 1 do
          let u = broadcasters.(j) in
          for i = Graph.row_lo g u to Graph.row_hi g u - 1 do
            let v = Graph.nbr_at g i in
            counts.(v) <- counts.(v) + 1
          done
        done;
        let bcast_mem w = Bytes.unsafe_get bcast w = '\001' in
        for v = 0 to n - 1 do
          if Bytes.unsafe_get bcast v = '\000' && Array.unsafe_get counts v = 1 then
            (* one gray broadcaster suffices to collide v *)
            jam_victim ~bcast_mem dual active v
        done;
        for j = 0 to nb - 1 do
          let u = broadcasters.(j) in
          for i = Graph.row_lo g u to Graph.row_hi g u - 1 do
            counts.(Graph.nbr_at g i) <- 0
          done
        done;
        for j = 0 to nb - 1 do
          Bytes.unsafe_set bcast broadcasters.(j) '\000'
        done);
    kernel =
      Some
        {
          k_choose =
            (fun ~round:_ ~broadcasters dual _ scratch active ->
              let g = Dual.g dual in
              let bcast = scratch.sc_bcast in
              let once = scratch.sc_once and twice = scratch.sc_twice in
              Bitset.clear once;
              Bitset.clear twice;
              let nb = Array.length broadcasters in
              for j = 0 to nb - 1 do
                Bitset.add bcast broadcasters.(j)
              done;
              for j = 0 to nb - 1 do
                let u = broadcasters.(j) in
                for i = Graph.row_lo g u to Graph.row_hi g u - 1 do
                  Bitset.acc2_add ~once ~twice (Graph.nbr_at g i)
                done
              done;
              let bcast_mem u = Bitset.mem bcast u in
              (* victims = once ∧ ¬twice ∧ ¬bcast, read off word-parallel
                 in ascending order — the same order, and per victim the
                 same gray edge, as the scalar n-scan *)
              let bpw = Bitset.bits_per_word in
              for w = 0 to Bitset.word_count once - 1 do
                let word =
                  ref
                    (Bitset.get_word once w
                    land lnot (Bitset.get_word twice w)
                    land lnot (Bitset.get_word bcast w))
                in
                let base = w * bpw in
                while !word <> 0 do
                  let v = base + Bitset.lowest_bit !word in
                  word := !word land (!word - 1);
                  jam_victim ~bcast_mem dual active v
                done
              done;
              for j = 0 to nb - 1 do
                Bitset.remove bcast broadcasters.(j)
              done);
          k_wins =
            (fun ~broadcasters:_ dual ->
              (* scalar cost is O(n) regardless of activity; the kernel
                 sweeps words instead, so it wins as soon as the scan is
                 more than a few words long *)
              Dual.n dual >= 4 * Bitset.bits_per_word);
        };
  }

let custom ~name choose = { name; choose; reach = chosen; kernel = None }

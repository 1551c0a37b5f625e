(* Round adversaries for the dual graph model.

   Each round, after seeing who broadcasts, the adversary picks a reach set
   consisting of all reliable edges E plus an arbitrary subset of the gray
   edges E' \ E (Section 2).  Only the gray edges incident to a
   broadcaster can change a receive, so a policy is one walk, [visit]: it
   calls [f u v e] for each gray edge [e = {u, v}] it activates with [u]
   broadcasting — an edge with one broadcasting end once, an edge joining
   two broadcasters at most once from each end (it cannot change a
   receive, both ends being senders).  [choose] is [visit] adding each [e]
   to a bitset over gray-edge ids, for [run_reference], replays and tests.

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
     [visit] knows.

   On a declared round the reach set is a fixed function of the
   broadcasters, so an untraced engine run skips the adversary phase and
   delivers along E alone or along all of E' ([Dual.reach_rows]).  The
   declaring policies' [visit] is derived from the declaration, and
   test_engine_paths.ml holds every policy's [choose] to it.  On a
   [Chosen] round the engine delivers inside the walk: [f] touches the
   receiver, so the active set is never materialised.

   [jamming] finds its victims (nodes about to hear exactly one reliable
   broadcaster) with the delivery kernel's once/twice saturating
   accumulator over the broadcasters' reliable neighbours, and reads
   them off word-parallel as once ∧ ¬twice ∧ ¬bcast, so a round costs
   the broadcasters' reliable degrees plus n/63 words, not a scan of
   all n nodes.  [bernoulli]/[harassing] walk the broadcasters' gray
   rows edge by edge, one draw per edge in a fixed order.  Draws are
   positional: draw k of a round is [mix (s0 + k * gamma)], so a run of
   draws whose outcome cannot matter is skipped exactly with one
   [Rng.skip], and every later draw and the final stream state are
   those of the full walk.  [visit]'s [live] predicate names the
   receivers whose outcome can still matter; an edge to any other
   receiver costs a count, not a draw.  Broadcaster membership is a
   per-round mask, not a binary search per edge.

   Per-broadcaster walks index the CSR rows directly ([Dual.gray_lo] …
   [Dual.gray_id_at], [Graph.row_lo] … [Graph.nbr_at]) instead of passing
   a callback: a callback that captures the round's bitset or RNG is a
   closure allocated per broadcaster per round.  The one callback, [f],
   is the caller's, built once per run. *)

module Bitset = Rn_util.Bitset
module Rng = Rn_util.Rng
module Graph = Rn_graph.Graph
module Dual = Rn_graph.Dual

type visit_fn =
  live:(int -> bool) ->
  round:int ->
  broadcasters:int array ->
  Dual.t ->
  Rng.t ->
  (int -> int -> int -> unit) ->
  unit

type reach = No_gray | All_incident | Chosen

type t = {
  name : string;
  visit : visit_fn;
  reach : broadcasters:int array -> reach; (* O(1) *)
}

let name t = t.name

let always _ = true

let visit t ?(live = always) ~round ~broadcasters dual rng f =
  t.visit ~live ~round ~broadcasters dual rng f

let choose t ~round ~broadcasters dual rng active =
  t.visit ~live:always ~round ~broadcasters dual rng (fun _ _ e -> Bitset.add active e)

let reach t ~broadcasters = t.reach ~broadcasters
let chosen ~broadcasters:_ = Chosen

(* No policy has a kernel; kept for perfbench's replay. *)
type scratch = unit

let make_scratch _ = ()
let has_kernel _ = false
let kernel_wins _ ~broadcasters:_ _ = false

let choose_kernel _ ~round:_ ~broadcasters:_ _ _ () _ =
  invalid_arg "Adversary.choose_kernel: policy has no kernel"

(* Only gray edges incident to a broadcaster can influence delivery, so
   policies below restrict themselves to those edges.  For deterministic
   policies this is observably identical; for [bernoulli] it merely
   re-times which stream positions feed which edges (each relevant edge
   still gets one independent draw per round, from the round's derived
   stream). *)

(* Every gray edge incident to a broadcaster, one incidence entry at a
   time. *)
let visit_incident ~broadcasters dual f =
  for j = 0 to Array.length broadcasters - 1 do
    let u = broadcasters.(j) in
    for i = Dual.gray_lo dual u to Dual.gray_hi dual u - 1 do
      f u (Dual.gray_nbr_at dual i) (Dual.gray_id_at dual i)
    done
  done

(* A policy whose every round is declared: [visit] walks exactly the
   reach set its declaration names. *)
let declared name reach =
  {
    name;
    visit =
      (fun ~live:_ ~round:_ ~broadcasters dual _ f ->
        match reach ~broadcasters with
        | All_incident -> visit_incident ~broadcasters dual f
        | No_gray | Chosen -> ());
    reach;
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
   round.  One draw per distinct incident edge, broadcasters ascending
   and each row in descending edge id: the lowest-id broadcasting
   endpoint owns the draw.  The broadcaster membership test reads a
   per-round byte mask (set from the broadcaster array, cleared again
   after the walk) instead of a per-edge binary search, and is computed
   without a branch: [v < u] is a coin flip per edge that a branch
   would mispredict half the time.  The mask lives in domain-local
   storage so one policy value stays safe to share across Pool domains
   running independent cells.  An owned edge to a receiver that is not
   [live] adds to [skipped] instead of drawing, applied with one
   [Rng.skip] before the next real draw and once at the end; an edge a
   lower broadcaster owns draws nothing either way. *)
let bernoulli p =
  if p < 0.0 || p > 1.0 then invalid_arg "Adversary.bernoulli";
  let dls = Domain.DLS.new_key (fun () -> ref (Bytes.create 0)) in
  {
    name = Printf.sprintf "bernoulli(%.2f)" p;
    visit =
      (fun ~live ~round:_ ~broadcasters dual rng f ->
        let n = Dual.n dual in
        let cell = Domain.DLS.get dls in
        if Bytes.length !cell <> n then cell := Bytes.make n '\000';
        let bcast = !cell in
        let nb = Array.length broadcasters in
        for j = 0 to nb - 1 do
          Bytes.set bcast broadcasters.(j) '\001'
        done;
        let skipped = ref 0 in
        for j = 0 to nb - 1 do
          let u = broadcasters.(j) in
          for i = Dual.gray_lo dual u to Dual.gray_hi dual u - 1 do
            let v = Dual.gray_nbr_at dual i in
            let not_owned = Bool.to_int (v < u) land Char.code (Bytes.unsafe_get bcast v) in
            if live v then begin
              if not_owned = 0 then begin
                Rng.skip rng !skipped;
                skipped := 0;
                if Rng.bool rng p then f u v (Dual.gray_id_at dual i)
              end
            end
            else skipped := !skipped + 1 - not_owned
          done
        done;
        Rng.skip rng !skipped;
        for j = 0 to nb - 1 do
          Bytes.set bcast broadcasters.(j) '\000'
        done);
    reach = chosen;
  }

(* Activate gray edges incident to broadcasters with probability p: a
   cheaper adaptive policy that concentrates unreliability where it can
   actually cause collisions.  One draw per incidence, so an edge joining
   two broadcasters gets two and may be visited from both ends.  An
   incidence to a receiver that is not [live] is skipped as in
   [bernoulli]. *)
let harassing p =
  if p < 0.0 || p > 1.0 then invalid_arg "Adversary.harassing";
  {
    name = Printf.sprintf "harassing(%.2f)" p;
    visit =
      (fun ~live ~round:_ ~broadcasters dual rng f ->
        let skipped = ref 0 in
        for j = 0 to Array.length broadcasters - 1 do
          let u = broadcasters.(j) in
          for i = Dual.gray_lo dual u to Dual.gray_hi dual u - 1 do
            let v = Dual.gray_nbr_at dual i in
            if live v then begin
              Rng.skip rng !skipped;
              skipped := 0;
              if Rng.bool rng p then f u v (Dual.gray_id_at dual i)
            end
            else incr skipped
          done
        done;
        Rng.skip rng !skipped);
    reach = chosen;
  }

(* Visits the gray edge that collides victim [v]: from the first
   broadcasting gray neighbour of [v] in descending edge-id order. *)
let jam_victim ~bcast dual f v =
  let hi = Dual.gray_hi dual v in
  let i = ref (Dual.gray_lo dual v) in
  while !i < hi do
    let u = Dual.gray_nbr_at dual !i in
    if Bitset.mem bcast u then begin
      f u v (Dual.gray_id_at dual !i);
      i := hi
    end
    else incr i
  done

(* Per-domain scratch for [jamming], all of capacity n: the broadcasters
   (empty between rounds) and the once/twice accumulator. *)
type jam_scratch = { bcast : Bitset.t; once : Bitset.t; twice : Bitset.t }

let jam_scratch n =
  { bcast = Bitset.create n; once = Bitset.create n; twice = Bitset.create n }

(* The broadcast-hardness adversary of the dual graph line of work
   (references [10, 11] of the paper): wherever a node is about to hear a
   solo reliable broadcaster, activate a gray edge from *another*
   broadcaster to collide it.  It never helps — gray edges are only ever
   switched on to raise a receiver's broadcaster count past one.

   The scratch lives in domain-local storage, like [bernoulli]'s mask,
   so one policy value stays safe to share across Pool domains and
   steady-state rounds allocate nothing. *)
let jamming =
  let dls = Domain.DLS.new_key (fun () -> ref (jam_scratch 0)) in
  {
    name = "jamming";
    reach = chosen;
    visit =
      (fun ~live:_ ~round:_ ~broadcasters dual _ f ->
        let g = Dual.g dual and n = Dual.n dual in
        let cell = Domain.DLS.get dls in
        if Bitset.capacity (!cell).bcast <> n then cell := jam_scratch n;
        let { bcast; once; twice } = !cell in
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
        (* victims = once ∧ ¬twice ∧ ¬bcast, read off word-parallel; one
           gray broadcaster suffices to collide each *)
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
            jam_victim ~bcast dual f v
          done
        done;
        for j = 0 to nb - 1 do
          Bitset.remove bcast broadcasters.(j)
        done);
  }

(* A policy given as a bitset [choose]: its set, filtered through the
   broadcasters' gray rows, is what [visit] walks.  The bitset is fresh
   per round, as [choose]'s contract promises a cleared one. *)
let custom ~name choose =
  {
    name;
    reach = chosen;
    visit =
      (fun ~live:_ ~round ~broadcasters dual rng f ->
        let active = Bitset.create (max 1 (Dual.gray_count dual)) in
        choose ~round ~broadcasters dual rng active;
        visit_incident ~broadcasters dual (fun u v e -> if Bitset.mem active e then f u v e));
  }

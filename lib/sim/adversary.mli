(** Round adversaries controlling gray (unreliable) links. *)

type t

val name : t -> string

(** [visit t ~round ~broadcasters dual rng f] picks this round's gray
    reach, after seeing the broadcasters as in Section 2, and calls
    [f u v e] for each gray edge [e = {u, v}] it activates with [u]
    broadcasting: an edge with one broadcasting end once, an edge
    joining two broadcasters at least once and at most once from each
    end.  It draws from [rng] in a fixed order, so a second call on a
    stream re-derived to the same state visits the same edges in the
    same order.  [broadcasters] is ascending.  This is the engine's one
    adversary call.

    [live] (default: every node) names the receivers whose outcome a
    visit can still change.  [visit] calls [f] for every activated edge
    whose receiver [v] satisfies [live v] when the walk reaches it, and
    may skip evaluating an edge whose receiver does not.  It asks
    [live v] as it reaches each edge, at most once per edge and
    receiver, so [live] may read state that [f] updates.  Whatever it
    skips, it leaves [rng] where the full walk leaves it.  {!bernoulli}
    and {!harassing} skip those edges' draws with [Rng.skip]; the other
    policies ignore [live]. *)
val visit :
  t ->
  ?live:(int -> bool) ->
  round:int ->
  broadcasters:int array ->
  Rn_graph.Dual.t ->
  Rn_util.Rng.t ->
  (int -> int -> int -> unit) ->
  unit

(** [choose] adds to [active] (a bitset over gray-edge ids) every edge
    {!val:visit} visits, drawing the same stream: the round's activated
    gray edges incident to a broadcaster. *)
val choose :
  t ->
  round:int ->
  broadcasters:int array ->
  Rn_graph.Dual.t ->
  Rn_util.Rng.t ->
  Rn_util.Bitset.t ->
  unit

(** {2 Declared reach}

    What kind of reach set a policy is about to pick, known from the
    broadcasters alone: no gray edge incident to a broadcaster active,
    every one of them active, or a set only {!val:choose} computes. *)
type reach = No_gray | All_incident | Chosen

(** This round's declaration, in O(1): [No_gray] for {!silent} and for
    {!spiteful} below two broadcasters, [All_incident] for {!all_gray}
    and for {!spiteful} from two on, [Chosen] for every other policy.
    On a declared round {!val:visit} walks exactly the declared set,
    so the engine may deliver along it without calling {!val:visit}. *)
val reach : t -> broadcasters:int array -> reach

(** {2 Kernel shim}

    No policy has a kernel; kept for perfbench's replay.  {!has_kernel}
    and {!kernel_wins} are [false] for every policy, and
    {!choose_kernel} raises [Invalid_argument]. *)

type scratch

val make_scratch : Rn_graph.Dual.t -> scratch
val has_kernel : t -> bool
val kernel_wins : t -> broadcasters:int array -> Rn_graph.Dual.t -> bool

val choose_kernel :
  t ->
  round:int ->
  broadcasters:int array ->
  Rn_graph.Dual.t ->
  Rn_util.Rng.t ->
  scratch ->
  Rn_util.Bitset.t ->
  unit

(** Never activates a gray edge. *)
val silent : t

(** Activates every gray edge incident to a broadcaster, every round. *)
val all_gray : t

(** Every gray edge independently active with probability [p] per round. *)
val bernoulli : float -> t

(** Gray edges incident to broadcasters active with probability [p]. *)
val harassing : float -> t

(** The Section 7 adversary: every gray edge incident to a broadcaster
    active iff there are ≥ 2 broadcasters, none otherwise. *)
val spiteful : t

(** The broadcast-hardness adversary ([10,11]-style): adds one gray
    broadcaster at every receiver about to hear a solo reliable sender,
    and never activates a gray edge that could help. *)
val jamming : t

(** A policy from a bitset [choose], handed a cleared bitset over
    gray-edge ids each round; its {!val:visit} walks the chosen edges
    incident to a broadcaster, and its {!val:choose} adds only those. *)
val custom :
  name:string ->
  (round:int ->
  broadcasters:int array ->
  Rn_graph.Dual.t ->
  Rn_util.Rng.t ->
  Rn_util.Bitset.t ->
  unit) ->
  t

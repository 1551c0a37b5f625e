(** The exploration-based CCDS of Section 6 (and, with [tau = 0], the
    naive per-neighbour baseline of Section 5's motivation): a dominating
    structure from the (iterated) MIS, then poll-driven announcement and
    gossip phases giving every dominator an evidence path to each
    dominator within 3 hops, then relay selection.  O(Δ·polylog n) rounds
    for any τ = O(1) (Theorem 6.2). *)

(** Evidence for reaching a target dominator: directly H-adjacent, via one
    relay, or via two relays. *)
type path = Direct | Via of int | Via2 of int * int

type outcome = {
  dominator : bool;
  in_ccds : bool;
  targets : (int * path) list;
      (** dominators discovered by this dominator, with chosen evidence *)
}

(** Hops on the evidence path (1, 2 or 3). *)
val path_len : path -> int

(** The shared connection machinery (announce → gossip → path selection →
    relay join): connects every pair of dominators within 3 hops by making
    evidence-path relays call [on_join].  All processes must call it at
    the same local round with their role flags; also used by {!Repair}. *)
val connect :
  ?mutual:bool ->
  ?on_join:(unit -> unit) ->
  Params.t ->
  Radio.ctx ->
  dominator:bool ->
  my_master:int option ->
  (int * path) list

val body : ?on_decide:(int -> unit) -> Params.t -> tau:int -> Radio.ctx -> outcome

val run :
  ?params:Params.t ->
  ?adversary:Rn_sim.Adversary.t ->
  ?seed:int ->
  ?b_bits:int ->
  tau:int ->
  detector:Rn_detect.Detector.dynamic ->
  Rn_graph.Dual.t ->
  outcome Radio.result

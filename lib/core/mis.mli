(** The MIS algorithm of Section 4: Θ(log n) epochs of ⌈log n⌉ doubling
    competition phases plus an announcement phase, solving the MIS problem
    in O(log³ n) rounds w.h.p. with a 0-complete link detector. *)

(** What a process knows when the schedule ends. *)
type outcome = {
  in_mis : bool;
  mis_neighbors : int list;
      (** detector-set processes this process knows joined the MIS; for
          covered processes this is non-empty w.h.p. and is what the CCDS
          algorithm builds on *)
}

(** Length of one competition/announcement phase: [c_phase·⌈log₂ n⌉]. *)
val phase_len : Params.t -> n:int -> int

(** Number of competition phases per epoch: [⌈log₂ n⌉]. *)
val competition_phases : n:int -> int

(** Total fixed schedule length; every process syncs exactly this many
    rounds, which is what lets the CCDS algorithm compose phases. *)
val schedule_rounds : Params.t -> n:int -> int

(** Mutual-membership (H-edge) receive filter used by the iterated MIS. *)
val h_filter : Radio.ctx -> Radio.receive -> Msg.t option

(** The per-process algorithm body.  All processes must execute it from
    the same local round.

    @param filter receive filter (default: keep messages from detector-set
    senders, as the paper prescribes)
    @param label_lds attach the sender's detector set to messages
    @param participate when false, listen through the whole schedule
    without competing (used by the iterated MIS for earlier winners)
    @param on_decide called once with 1 on joining or 0 on learning of a
    covered-by neighbour *)
val body :
  ?filter:(Radio.ctx -> Radio.receive -> Msg.t option) ->
  ?label_lds:bool ->
  ?participate:bool ->
  ?on_decide:(int -> unit) ->
  Params.t ->
  Radio.ctx ->
  outcome

(** Standalone runner: builds the engine config and records each process's
    MIS output (1 on joining, 0 on coverage). *)
val run :
  ?params:Params.t ->
  ?adversary:Rn_sim.Adversary.t ->
  ?seed:int ->
  ?b_bits:int ->
  ?sink:Rn_sim.Events.sink ->
  detector:Rn_detect.Detector.dynamic ->
  Rn_graph.Dual.t ->
  outcome Radio.result

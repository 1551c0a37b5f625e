(** The banned-list CCDS algorithm of Section 5 (0-complete detectors):
    MIS construction, then ℓ_SE search epochs of banned-list transfer,
    directed-decay nominations and 3-hop explorations, solving the CCDS
    problem in O(Δ·log²n/b + log³n) rounds w.h.p. (Theorem 5.3). *)

type outcome = {
  in_mis : bool;
  in_ccds : bool;
  mis_neighbors : int list;
  discovered : int list;
      (** MIS processes this MIS process discovered during the search
          (each within 3 hops; empty for covered processes) *)
}

(** The per-process algorithm body; [on_decide] is called once with the
    process's CCDS output. *)
val body : ?on_decide:(int -> unit) -> Params.t -> Radio.ctx -> outcome

(** Standalone runner recording CCDS outputs.  [b_bits], when given, is
    enforced by the engine on every message; it must be Ω(log n). *)
val run :
  ?params:Params.t ->
  ?adversary:Rn_sim.Adversary.t ->
  ?seed:int ->
  ?b_bits:int ->
  ?sink:Rn_sim.Events.sink ->
  detector:Rn_detect.Detector.dynamic ->
  Rn_graph.Dual.t ->
  outcome Radio.result

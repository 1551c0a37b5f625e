(** Checkers for the problem definitions of Section 3 and structural
    quality metrics. *)

module Mis_check : sig
  type report = {
    termination : bool;  (** every process output 0 or 1 *)
    independence : bool;  (** no two members adjacent in [G] *)
    maximality : bool;  (** every 0-process has an [H]-neighbour member *)
    violations : string list;  (** human-readable description of each failure *)
  }

  val ok : report -> bool

  (** Judge MIS outputs: independence against the reliable graph [g],
      maximality against the detector graph [h]. *)
  val check : g:Rn_graph.Graph.t -> h:Rn_graph.Graph.t -> int option array -> report
end

module Ccds_check : sig
  type report = {
    termination : bool;
    connectivity : bool;  (** the member set is connected in [H] *)
    domination : bool;  (** every 0-process has an [H]-neighbour member *)
    max_neighbors_g' : int;  (** max members among any node's [G']-neighbours *)
    size : int;
    violations : string list;
  }

  (** [ok ?bound r]: all conditions hold and the constant-bounded value is
      at most [bound] (default: unbounded). *)
  val ok : ?bound:int -> report -> bool

  val check : h:Rn_graph.Graph.t -> g':Rn_graph.Graph.t -> int option array -> report
end

(** Routing-quality metric for backbones: the detour cost of restricting
    intermediate hops to the member set. *)
module Stretch : sig
  type report = {
    max_stretch : float;
    mean_stretch : float;
    unroutable : int;  (** H-connected pairs with no backbone route *)
    pairs : int;
  }

  (** Stretch over all pairs, or over [sample = (rng, k)] random pairs. *)
  val measure :
    ?sample:Rn_util.Rng.t * int ->
    h:Rn_graph.Graph.t ->
    members:int list ->
    unit ->
    report
end

(** Exact optima on small instances, for approximation-quality checks. *)
module Exact : sig
  (** Size of a minimum connected dominating set of a connected graph.
      Raises [Invalid_argument] for n > 22 (exponential enumeration). *)
  val min_cds : Rn_graph.Graph.t -> int
end

(** Corollary 4.7: MIS density against the overlay bound [I_r]. *)
module Density : sig
  (** Maximum number of members within plane distance [r] of any node. *)
  val max_within : pos:Rn_geom.Point.t array -> members:int list -> float -> int

  (** [max_within <= I_r] for the constructive overlay bound. *)
  val respects_corollary : pos:Rn_geom.Point.t array -> members:int list -> float -> bool
end

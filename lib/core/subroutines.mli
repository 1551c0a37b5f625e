(** The communication subroutines of Section 5.

    Both are global schedules: every process must call them at the same
    local round (pure listeners pass [None] / [noms = \[\]]) so the
    enclosing algorithm stays phase-aligned. *)

(** [ℓ_BB(δ) = c_bb·2^min(δ,bb_cap)·⌈log₂ n⌉]. *)
val bb_rounds : Params.t -> n:int -> delta:int -> int

(** One bounded-broadcast slot (Lemma 5.1): broadcast [msg] with
    probability 1/2 for [ℓ_BB(delta)] rounds; with at most [delta]
    concurrent callers in interference range the message reaches every
    reliable neighbour w.h.p.  Every received message is passed to
    [on_recv] unfiltered; a [None] caller only listens, parked between
    messages ({!Radio.listen_for}). *)
val bounded_broadcast :
  Params.t ->
  Radio.ctx ->
  delta:int ->
  Msg.t option ->
  on_recv:(Msg.t -> unit) ->
  unit

(** Total length of one directed-decay run (for phase budgeting). *)
val directed_decay_rounds : Params.t -> n:int -> int

(** Directed decay (Lemma 5.2), assuming a solved MIS.  [noms] maps
    destination MIS neighbours to nominee ids; each pair is simulated as a
    virtual sender through ⌈log n⌉ doubling phases, with stop orders from
    satisfied MIS processes after each phase.  Returns, for an MIS process
    ([is_mis = true]), every (sender, nominee) pair addressed to it. *)
val directed_decay :
  Params.t -> Radio.ctx -> is_mis:bool -> noms:(int * int) list -> (int * int) list

(** The schedule behind {!directed_decay}, exposing the batched-idle fast
    paths for differential testing.  [~early_idle:false] disables the
    mixed-set fast path (a covered process whose nomination table empties
    mid-run parks through the remaining phases in one idle); the two
    schedules are observation-for-observation identical. *)
val directed_decay_live :
  ?early_idle:bool ->
  Params.t ->
  Radio.ctx ->
  is_mis:bool ->
  noms:(int * int) list ->
  (int * int) list

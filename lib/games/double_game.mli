(** The β-double hitting game of Section 7 and the Lemma 7.3
    double→single transformation.

    Players cannot communicate after receiving each other's target as
    input, so a player's behaviour is fully described by a guess trace
    per (input, seed) — which is also exactly what the Lemma 7.2 CCDS
    reduction produces. *)

(** Guesses emitted per round (index 0 = round 1). *)
type trace = int list array

type player = { gen : input:int -> seed:int -> trace }

(** First round in which the trace guesses the target. *)
val trace_hits : trace -> int -> int option

(** Rounds until either player hits its target, or [None]. *)
val play : pa:player -> pb:player -> t_a:int -> t_b:int -> seed:int -> int option

(** [(worst solve time, unsolved pairs)] over all target pairs in
    [1, β]². *)
val worst_case : pa:player -> pb:player -> beta:int -> seed:int -> int * int

(** A simple correct player pair (offset sweeps) used to exercise the
    transformation. *)
val sweep_players : beta:int -> player * player

(** A single-game automaton built by the Lemma 7.3 construction. *)
type single_automaton

(** Lemma 7.3: from a pair solving the [beta2]-double game, build an
    automaton for the [beta2/2]-single game via the winner table (estimated
    over [samples] seeds). *)
val double_to_single :
  pa:player -> pb:player -> beta2:int -> rounds:int -> samples:int -> seed:int ->
  single_automaton

(** Rounds until the constructed automaton hits the target, or [None]. *)
val play_single : single_automaton -> target:int -> seed:int -> int option

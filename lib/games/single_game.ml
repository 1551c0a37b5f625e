(* The β-single hitting game of Section 7.

   An adversary fixes a target in [1, β]; a probabilistic automaton guesses
   one value per round, with no feedback, until it guesses the target.
   Identifying an arbitrary element among β requires Ω(β) rounds w.h.p. —
   the quantitative root of the Theorem 7.1 lower bound.  The strategies
   here bracket the space: a uniform random permutation is optimal (hit
   time uniform on [1, β], mean (β+1)/2); memoryless uniform guessing has
   geometric hit time with mean β. *)

module Rng = Rn_util.Rng

type strategy =
  | Permutation (* guess a uniformly random permutation, optimal *)
  | Memoryless (* fresh uniform guess each round *)
  | Custom of (Rng.t -> beta:int -> round:int -> int)
      (* arbitrary automaton: guess for the given (1-based) round *)

let guesses rng strategy ~beta ~max_rounds =
  match strategy with
  | Permutation ->
    let p = Rng.permutation rng beta in
    Array.init (min beta max_rounds) (fun i -> p.(i) + 1)
  | Memoryless -> Array.init max_rounds (fun _ -> 1 + Rng.int rng beta)
  | Custom f -> Array.init max_rounds (fun i -> f rng ~beta ~round:(i + 1))

(* Rounds until the target is guessed, or [None] within [max_rounds].
   The RNG stream advances exactly as if all [max_rounds] guesses of
   [guesses] were drawn, but no guess array is built: the hit usually
   comes within about beta rounds of a 1000 * beta budget.  A memoryless
   guess is one draw, so the rounds after the hit are skipped in O(1);
   a [Custom] automaton may draw any number of times per guess, so it
   is still asked for every round. *)
let play rng strategy ~beta ~target ~max_rounds =
  if target < 1 || target > beta then invalid_arg "Single_game.play: target";
  if max_rounds < 0 then invalid_arg "Single_game.play: max_rounds";
  match strategy with
  | Permutation ->
    let p = Rng.permutation rng beta in
    let rec loop i =
      if i >= min beta max_rounds then None
      else if p.(i) + 1 = target then Some (i + 1)
      else loop (i + 1)
    in
    loop 0
  | Memoryless ->
    let rec loop i =
      if i >= max_rounds then None
      else if 1 + Rng.int rng beta = target then begin
        Rng.skip rng (max_rounds - i - 1);
        Some (i + 1)
      end
      else loop (i + 1)
    in
    loop 0
  | Custom f ->
    let hit = ref None in
    for round = 1 to max_rounds do
      if f rng ~beta ~round = target && !hit = None then hit := Some round
    done;
    !hit

(* Mean hit time over uniformly random targets. *)
let mean_rounds rng strategy ~beta ~samples =
  let total = ref 0 in
  let max_rounds = 1000 * beta in
  for _ = 1 to samples do
    let target = 1 + Rng.int rng beta in
    match play rng strategy ~beta ~target ~max_rounds with
    | Some r -> total := !total + r
    | None -> total := !total + max_rounds
  done;
  float_of_int !total /. float_of_int samples

(* Worst-case-target q-quantile of the hit time: for each target, the
   rounds needed to hit with probability [q]; report the max over targets.
   This is the "w.h.p." cost the lower bound speaks about. *)
let quantile_rounds rng strategy ~beta ~samples ~q =
  let worst = ref 0.0 in
  let max_rounds = 1000 * beta in
  for target = 1 to beta do
    let times =
      Array.init samples (fun _ ->
          match play rng strategy ~beta ~target ~max_rounds with
          | Some r -> float_of_int r
          | None -> float_of_int max_rounds)
    in
    let t = Rn_util.Stats.percentile times q in
    if t > !worst then worst := t
  done;
  !worst

(* Single-source multihop broadcast in the dual graph model — the workload
   the paper's introduction motivates the CCDS with ("a routing backbone
   that can be used to efficiently move information through the network").

   Three protocols:

   - [flood]: probabilistic flooding — every informed node relays with a
     fixed probability each round;
   - [backbone]: the same relay rule restricted to a designated relay set
     (e.g. a CCDS) plus the source — coverage still reaches everyone when
     the set is dominating and connected;
   - [round_robin]: the deterministic schedule of Clementi-Monti-Silvestri
     (reference [5] of the paper): node ids take turns, one per round, so a
     sweep of n rounds is collision-free and immune to unreliable links —
     the optimal *fault-tolerant* broadcast the dual graph line of work
     starts from.

   All three run on the engine with bit-accounted messages, so they compose
   with the same adversaries and detectors as the structure algorithms. *)

module Rng = Rn_util.Rng
module Dual = Rn_graph.Dual
module Detector = Rn_detect.Detector

module Token = struct
  type t = { origin : int; hops : int }

  (* origin id + a hop counter *)
  let size_bits ~n { hops = _; _ } = 2 * Rn_util.Ilog.log2_up n

  let pp ppf { origin; hops } = Fmt.pf ppf "token(%d,%d)" origin hops
end

module E = Rn_sim.Engine.Make (Token)

type protocol =
  | Flood of float (* relay probability per round *)
  | Backbone of { relay : int -> bool; p : float }
  | Round_robin
  | Decay of int
    (* Bar-Yehuda–Goldreich–Itai: informed nodes run synchronised "decay"
       phases of the given length k, halving their broadcast probability
       each round within a phase (1, 1/2, 1/4, ...).  With k = Θ(log n),
       every receiver with at least one informed neighbour hears something
       per phase with constant probability — the classic randomized
       broadcast primitive. *)

type result = {
  reached : bool array; (* who holds the token at the end *)
  coverage : int; (* number of informed nodes *)
  first_hear : int option array; (* round of first reception *)
  rounds : int;
  sends : int;
  bits_sent : int;
}

(* Run a broadcast from [source] for [rounds] rounds. *)
let run ?(adversary = Rn_sim.Adversary.silent) ?(seed = 0) ~protocol ~source ~rounds dual =
  let n = Dual.n dual in
  if source < 0 || source >= n then invalid_arg "Broadcast.run: source";
  if rounds < 1 then invalid_arg "Broadcast.run: rounds";
  let det = Detector.static (Detector.perfect (Dual.g dual)) in
  let cfg =
    E.config ~adversary ~seed ~stop:(Rn_sim.Engine.At_round rounds) ~detector:det dual
  in
  let first_hear = Array.make n None in
  let res =
    E.run cfg (fun ctx ->
        let me = E.me ctx in
        let rng = E.rng ctx in
        let have = ref (me = source) in
        let hops = ref 0 in
        let relay_allowed =
          match protocol with
          | Flood _ -> true
          | Backbone { relay; _ } -> relay me || me = source
          | Round_robin | Decay _ -> true
        in
        let rec go r =
          if r <= rounds then
            if not !have then begin
              (* Uninformed: nothing to relay and no coin to flip, so
                 park until the token arrives. *)
              match E.listen ctx (rounds - r + 1) with
              | Some (i, { Token.hops = h; _ }) ->
                have := true;
                hops := h + 1;
                first_hear.(me) <- Some (r + i - 1);
                go (r + i)
              | None -> ()
            end
            else begin
              let wants_to_send =
                relay_allowed
                &&
                match protocol with
                | Flood p | Backbone { p; _ } -> Rng.bool rng p
                | Round_robin -> (r - 1) mod n = me
                | Decay k ->
                  (* global round-aligned decay phases: probability 2^-(pos) *)
                  let pos = (r - 1) mod k in
                  Rng.bool rng (1.0 /. float_of_int (1 lsl min pos 30))
              in
              let send =
                if wants_to_send then Some { Token.origin = source; hops = !hops } else None
              in
              (* informed: further receives change nothing *)
              ignore (E.sync ctx send);
              go (r + 1)
            end
        in
        go 1;
        !have)
  in
  let reached = Array.map (fun r -> r = Some true) res.E.returns in
  reached.(source) <- true;
  {
    reached;
    coverage = Array.fold_left (fun c b -> if b then c + 1 else c) 0 reached;
    first_hear;
    rounds = res.E.rounds;
    sends = res.E.stats.sends;
    bits_sent = res.E.stats.bits_sent;
  }

(* Rounds needed by round-robin to provably cover a connected G: one sweep
   of n rounds per eccentricity level. *)
let round_robin_budget dual ~source =
  let n = Dual.n dual in
  n * Rn_graph.Algo.eccentricity (Dual.g dual) source

let full_coverage r = r.coverage = Array.length r.reached

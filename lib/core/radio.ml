(* The single engine instantiation shared by every algorithm in the
   library, plus small helpers that recur across them. *)

module R = Rn_sim.Engine.Make (Msg)
include R

(* Re-export the engine's functor-external types so algorithm modules can
   say [Radio.All_decided] etc. *)
type stop_condition = Rn_sim.Engine.stop_condition =
  | All_done
  | All_decided
  | At_round of int

type stats = Rn_sim.Engine.stats = {
  rounds : int;
  sends : int;
  deliveries : int;
  collisions : int;
  bits_sent : int;
  silent_rounds : int;
}

module Bitset = Rn_util.Bitset
module Ilog = Rn_util.Ilog

(* ⌈log₂ n⌉ for this network. *)
let logn ctx = Ilog.log2_up (R.n ctx)

(* True iff [v] is in this process's current link detector set. *)
let in_detector ctx v = R.detector_mem ctx v

(* Detector set as a sorted list (allocates; use sparingly). *)
let detector_list ctx = Bitset.to_list (R.detector ctx)

(* Receive filter used throughout the paper's algorithms: a message is kept
   only if its source is in the local link detector set. *)
let recv_from_detector ctx = function
  | R.Recv m when in_detector ctx (Msg.src m) -> Some m
  | R.Recv _ | R.Own | R.Silence -> None

(* Section 6 filter: additionally require mutual membership — the sender's
   attached detector set must contain us (the H-graph condition).  Messages
   without a label fail the check. *)
let recv_mutual ctx lds_of = function
  | R.Recv m when in_detector ctx (Msg.src m) -> begin
    match lds_of m with
    | Some lds when List.mem (R.me ctx) lds -> Some m
    | Some _ | None -> None
  end
  | R.Recv _ | R.Own | R.Silence -> None

(* Number of ids that fit in one chunked payload given the message bound.
   Reserves [header_ids] id-sized fields plus the tag.  When no bound is
   configured, chunks are unbounded (single chunk). *)
let chunk_capacity ctx ~header_ids =
  let id = Msg.id_bits ~n:(R.n ctx) in
  match R.b_bits ctx with
  | None -> max_int
  | Some b ->
    let cap = (b - Msg.tag_bits - (header_ids * id)) / id in
    if cap < 1 then
      invalid_arg
        (Printf.sprintf "Radio.chunk_capacity: b=%d too small (need b = Omega(log n))" b)
    else cap

(* Split [ids] into chunks of at most [cap]. *)
let chunks ~cap ids =
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> take (k - 1) (x :: acc) rest
  in
  let rec loop acc ids =
    match ids with
    | [] -> List.rev acc
    | _ ->
      let chunk, rest = take cap [] ids in
      loop (chunk :: acc) rest
  in
  loop [] ids

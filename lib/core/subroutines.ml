(* The two communication subroutines of Section 5.

   bounded-broadcast(δ, m): broadcast m with probability 1/2 for
   ℓ_BB(δ) = Θ(2^δ · log n) consecutive rounds; given at most δ concurrent
   callers within interference range, the message reaches all reliable
   neighbours w.h.p. (Lemma 5.1).

   directed-decay: assumes a solved MIS.  Covered processes simulate one
   virtual sender per (destination MIS neighbour, payload) pair; dlog ne
   phases of length ℓ_DD = Θ(log n) double the broadcast probability from
   1/n up to 1/2, and after each phase every MIS process that heard a
   message issues a stop order via bounded-broadcast, deactivating the
   virtual senders aimed at it (Lemma 5.2).

   Both subroutines are *global* schedules: every process must call them at
   the same local round (with [None]/[noms = \[\]] for pure listeners) so
   the lock-step alignment of the enclosing algorithm is preserved. *)

module R = Radio
module Ilog = Rn_util.Ilog
module Rng = Rn_util.Rng

let bb_rounds (params : Params.t) ~n ~delta =
  params.c_bb * (1 lsl min delta params.bb_cap) * Ilog.log2_up n

(* One bounded-broadcast slot.  [msg = None] participates as listener.
   Every received message is handed to [on_recv] unfiltered — callers apply
   their own detector filtering. *)
let bounded_broadcast (params : Params.t) ctx ~delta msg ~on_recv =
  let rounds = bb_rounds params ~n:(R.n ctx) ~delta in
  match msg with
  | None -> Radio.listen_for ctx rounds ~on_recv
  | Some m ->
    for _ = 1 to rounds do
      match R.sync_p ctx 0.5 m with Recv m -> on_recv m | Own | Silence -> ()
    done

let dd_phase_rounds (params : Params.t) ~n = params.c_dd * Ilog.log2_up n

(* Total length of one directed-decay run (for phase-alignment budgeting):
   ⌈log n⌉ phases, each a decay phase plus a stop-order window. *)
let directed_decay_rounds (params : Params.t) ~n =
  Ilog.log2_up n
  * (dd_phase_rounds params ~n + bb_rounds params ~n ~delta:params.delta_bb)

(* [directed_decay params ctx ~is_mis ~noms] where [noms] maps destination
   MIS neighbours to nominee payloads.  Returns, for an MIS process, every
   (sender, nominee) pair addressed to it (empty for covered processes).
   [?early_idle:false] disables the mixed-set batched-idle fast path —
   only the differential tests use it (the two schedules must produce
   identical results round for round). *)
let directed_decay_live ?(early_idle = true) (params : Params.t) ctx ~is_mis ~noms =
  let n = R.n ctx and me = R.me ctx in
  let logn = Ilog.log2_up n in
  let ldd = dd_phase_rounds params ~n in
  let received = ref [] in
  let active : (int, int) Hashtbl.t = Hashtbl.create 4 in
  List.iter (fun (dest, w) -> Hashtbl.replace active dest w) noms;
  (* Combining simultaneous virtual senders is an optimisation; under a
     tight message bound only as many nominations as fit in b bits are
     merged, the rest simply retry on their next coin flip. *)
  let max_noms =
    match R.b_bits ctx with
    | None -> max_int
    | Some b ->
      let id = Msg.id_bits ~n in
      max 1 ((b - Msg.tag_bits - id) / (2 * id))
  in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  let phase_received = ref false in
  let parked = ref false in
  let i = ref 0 in
  while (not !parked) && !i < logn do
    incr i;
    let p = min 0.5 (float_of_int (1 lsl (!i - 1)) /. float_of_int n) in
    phase_received := false;
    let hear recv =
      match Radio.recv_from_detector ctx recv with
      | Some (Msg.Nominations { src; noms }) when is_mis ->
        List.iter
          (fun (dest, w) ->
            if dest = me then begin
              received := (src, w) :: !received;
              phase_received := true
            end)
          noms
      | Some _ | None -> ()
    in
    (* Only stop orders shrink the table, so an empty table stays empty
       for the whole decay window: it flips no coins and only listens. *)
    if Hashtbl.length active = 0 then
      Radio.listen_for ctx ldd ~on_recv:(fun m -> hear (R.Recv m))
    else
      for _ = 1 to ldd do
        (* Each virtual sender flips its own coin; simultaneous winners are
           combined into a single physical message (the paper's message
           merging — O(1) nominations since MIS neighbours are O(1)). *)
        let sending =
          Hashtbl.fold
            (fun dest w acc -> if Rng.bool (R.rng ctx) p then (dest, w) :: acc else acc)
            active []
        in
        hear
          (match take max_noms sending with
          | [] -> R.sync ctx None
          | noms -> R.sync ctx (Some (Msg.Nominations { src = me; noms })))
      done;
    let stop = if is_mis && !phase_received then Some (Msg.Stop_order { src = me }) else None in
    bounded_broadcast params ctx ~delta:params.delta_bb stop ~on_recv:(fun m ->
        match m with
        | Msg.Stop_order { src } when Radio.in_detector ctx src -> Hashtbl.remove active src
        | _ -> ());
    (* Mixed-set fast path: a covered process whose nomination table just
       emptied (every destination issued its stop order) is a pure
       listener for the remaining phases — the empty table yields zero
       coin flips per decay round, every receive is discarded (the
       Nominations handler is MIS-only), and stop orders remove from an
       empty table.  That tail is round-for-round identical to silence,
       so park the fiber once instead of resuming it every round. *)
    if early_idle && (not is_mis) && !i < logn && Hashtbl.length active = 0 then begin
      let bb = bb_rounds params ~n ~delta:params.delta_bb in
      R.idle ctx ((logn - !i) * (ldd + bb));
      parked := true
    end
  done;
  List.rev !received

let directed_decay (params : Params.t) ctx ~is_mis ~noms =
  if (not is_mis) && noms = [] then begin
    (* Pure listener: no virtual senders (no coin flips), not an MIS node
       (every receive is discarded, stop orders touch an empty table) — the
       whole schedule collapses to one batched idle, which lets the engine
       park this fiber instead of resuming it every round. *)
    R.idle ctx (directed_decay_rounds params ~n:(R.n ctx));
    []
  end
  else directed_decay_live params ctx ~is_mis ~noms

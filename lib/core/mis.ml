(* The MIS algorithm of Section 4.

   Execution is divided into ℓ_E = Θ(log n) epochs.  Each epoch has ⌈log n⌉
   competition phases of length ℓ_P = Θ(log n) with broadcast probability
   doubling from 1/n up to 1/2, followed by one announcement phase of the
   same length.  An active process is knocked out by receiving a contender
   message from a link-detector neighbour; a process surviving every
   competition phase joins the MIS and announces it with probability 1/2
   throughout the announcement phase.  Messages from processes outside the
   local link detector set are discarded.

   The body is also the building block for the CCDS algorithm (Section 5)
   and, via [participate]/[filter]/[label_lds], for the iterated MIS of
   Section 6. *)

module R = Radio
module Ilog = Rn_util.Ilog

type outcome = {
  in_mis : bool;
  mis_neighbors : int list; (* detector-set processes known to be in the MIS *)
}

let phase_len (params : Params.t) ~n = params.c_phase * Ilog.log2_up n
let competition_phases ~n = Ilog.log2_up n
let epoch_count (params : Params.t) ~n = params.c_epochs * Ilog.log2_up n

(* Total fixed schedule length: every process syncs exactly this many
   rounds, which is what lets the CCDS algorithm compose phases. *)
let schedule_rounds params ~n =
  epoch_count params ~n * (competition_phases ~n + 1) * phase_len params ~n

(* Extract the detector-set label from competition messages (Section 6's
   H-filtering). *)
let lds_of = function
  | Msg.Contender { lds; _ } | Msg.Mis_announce { lds; _ } -> lds
  | _ -> None

(* Mutual-membership filter used by the iterated MIS: keep a message only
   if the sender is in our detector set and we are in the sender's. *)
let h_filter ctx recv = Radio.recv_mutual ctx lds_of recv

let body ?(filter = Radio.recv_from_detector) ?(label_lds = false)
    ?(participate = true) ?(on_decide = fun _ -> ()) (params : Params.t) ctx =
  let n = R.n ctx and me = R.me ctx in
  let lp = phase_len params ~n in
  let phases = competition_phases ~n in
  let n_epochs = epoch_count params ~n in
  let mis_set : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let in_mis = ref false in
  let covered = ref false in
  let lds () = if label_lds then Some (Radio.detector_list ctx) else None in
  (* Process one receive; returns whether the caller remains active. *)
  let handle recv active =
    match filter ctx recv with
    | Some (Msg.Contender _) -> false
    | Some (Msg.Mis_announce { src; _ }) ->
      Hashtbl.replace mis_set src ();
      if (not !covered) && not !in_mis then begin
        covered := true;
        on_decide 0
      end
      else covered := true;
      active
    | Some _ | None -> active
  in
  (* Listen for [k] rounds without competing: only announcements matter. *)
  let listen k = Radio.listen_for ctx k ~on_recv:(fun m -> ignore (handle (R.Recv m) false)) in
  let announce () =
    for _ = 1 to lp do
      ignore (handle (R.sync_p ctx 0.5 (Msg.Mis_announce { src = me; lds = lds () })) false)
    done
  in
  for _epoch = 1 to n_epochs do
    if (not participate) || !in_mis || !covered then begin
      (* Inactive for the competition part: silent, but keep listening so
         the MIS set stays current. *)
      listen (phases * lp);
      (* MIS members re-announce in every epoch's announcement window (the
         robustness measure Section 9 prescribes for late listeners): only
         MIS members speak here, so contention stays constant. *)
      if !in_mis then announce () else listen lp
    end
    else begin
      (* Compete until knocked out: round t of the competition lies in
         phase t / lp. *)
      let competition = phases * lp in
      let t = ref 0 and active = ref true in
      while !active && !t < competition do
        let p = min 0.5 (float_of_int (1 lsl (!t / lp)) /. float_of_int n) in
        active := handle (R.sync_p ctx p (Msg.Contender { src = me; lds = lds () })) true;
        incr t
      done;
      if !active then begin
        in_mis := true;
        Hashtbl.replace mis_set me ();
        on_decide 1;
        announce ()
      end
      else
        (* Knocked out: listen through the rest of the competition and
           the announcement window. *)
        listen (competition - !t + lp)
    end
  done;
  let mis_neighbors =
    Hashtbl.fold
      (fun v () acc -> if v <> me && Radio.in_detector ctx v then v :: acc else acc)
      mis_set []
    |> List.sort compare
  in
  { in_mis = !in_mis; mis_neighbors }

(* Standalone runner: processes output 1 on joining and 0 on learning of a
   detector-neighbour in the MIS. *)
let run ?(params = Params.default) ?(adversary = Rn_sim.Adversary.silent)
    ?(seed = 0) ?b_bits ?sink ~detector dual =
  Params.validate params;
  let cfg = R.config ~adversary ~seed ?b_bits ?sink ~detector dual in
  R.run cfg (fun ctx -> body ~on_decide:(fun v -> R.output ctx v) params ctx)

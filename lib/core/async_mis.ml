(* The asynchronous-start MIS variant of Section 9.

   Processes wake at arbitrary rounds and know only their local round
   number.  Each epoch is prefixed with a listening phase of Θ(log² n)
   rounds during which the process is silent; receiving *any* (filtered)
   message knocks it back to a brand-new epoch, and an MIS announcement
   additionally decides it 0.  A process that survives all competition
   phases joins the MIS and keeps announcing with probability 1/2 forever,
   informing processes that wake later.

   With [classic = true] the algorithm uses no topology information at all
   (every received message is accepted), which is the G = G' configuration
   of Theorem 9.4. *)

module R = Radio
module Ilog = Rn_util.Ilog

type outcome = { in_mis : bool; covered : bool }

exception Knocked
exception Covered

let accept_all _ctx = function R.Recv m -> Some m | R.Own | R.Silence -> None

let body ?(classic = false) ?(on_decide = fun _ -> ()) (params : Params.t) ctx =
  let n = R.n ctx and me = R.me ctx in
  let filter = if classic then accept_all else Radio.recv_from_detector in
  let logn = Ilog.log2_up n in
  let lp = params.c_phase * logn in
  let phases = logn in
  (* Θ(log² n), and at least as long as a whole competition block: a
     knocked-out process must stay silent long enough for its knocker to
     run through all remaining phases and join (Lemma 9.3's argument
     silently requires the listening constant to dominate the competition
     constant). *)
  let listen_len = params.c_listen * phases * lp in
  (* Raise on knock-out or coverage. *)
  let hear recv =
    match filter ctx recv with
    | Some (Msg.Mis_announce _) -> raise Covered
    | Some (Msg.Contender _) -> raise Knocked
    | Some _ | None -> ()
  in
  let listen k = Radio.listen_for ctx k ~on_recv:(fun m -> hear (R.Recv m)) in
  let joined = ref false in
  let covered = ref false in
  (try
     let epoch = ref 0 in
     (* Every restart counts as a started epoch; the budget is a safety
        valve against adversarial livelock, after which the process stops
        competing and waits passively to be covered (MIS members announce
        forever, so coverage eventually arrives w.h.p.). *)
     while (not !joined) && !epoch < params.max_async_epochs do
       incr epoch;
       try
         (* Listening phase: silent; any message restarts the epoch. *)
         listen listen_len;
         (* Competition phases with doubling probabilities. *)
         for ph = 0 to phases - 1 do
           let p = min 0.5 (float_of_int (1 lsl ph) /. float_of_int n) in
           for _ = 1 to lp do
             hear (R.sync_p ctx p (Msg.Contender { src = me; lds = None }))
           done
         done;
         joined := true
       with Knocked -> ()
     done;
     (* Passive wait: parked until a message arrives. *)
     if not !joined then
       while true do
         listen max_int
       done
   with Covered ->
     covered := true;
     on_decide 0);
  if !joined then begin
    on_decide 1;
    (* Announce forever so late wakers learn of us; the engine's stop
       condition (All_decided) ends the run. *)
    while true do
      ignore (R.sync_p ctx 0.5 (Msg.Mis_announce { src = me; lds = None }))
    done
  end;
  { in_mis = !joined; covered = !covered }

(* Standalone runner with per-process wake rounds. *)
let run ?(params = Params.default) ?(adversary = Rn_sim.Adversary.silent)
    ?(seed = 0) ?(classic = false) ?wake ?(max_rounds = 2_000_000) ~detector dual =
  Params.validate params;
  let cfg =
    R.config ~adversary ~seed ?wake ~stop:R.All_decided ~max_rounds ~detector dual
  in
  R.run cfg (fun ctx -> body ~classic ~on_decide:(fun v -> R.output ctx v) params ctx)

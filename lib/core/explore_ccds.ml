(* The exploration-based CCDS of Section 6 — and, with τ = 0, exactly the
   "simple approach" baseline the banned-list algorithm of Section 5 is
   measured against (each dominator gives *every* neighbour a chance to
   report, costing O(Δ) explorations regardless of message size).

   Structure: build a dominating set (plain MIS for τ = 0; the iterated
   MIS with H-filtering for τ > 0), then

   Phase 1 — every dominator polls each of its link-detector neighbours in
   turn (plus itself); the polled process announces its id and master (its
   own id marked as dominator, or one dominator covering it).

   Phase 2 — the same schedule again, with each polled process gossiping
   everything it heard in phase 1 (chunked under a message-size bound).

   After phase 2 a dominator u has, for every dominator t within 3 hops, an
   evidence path: t heard directly, t's announcement relayed by a
   neighbour v (u–v–t), or a gossiped entry (x, master = t) giving
   u–v–x–t.  Phases 3 and 4 broadcast the chosen relays so the path nodes
   join the CCDS.  The paper sketches phases 1–2 and notes they suffice to
   build the structure; the selection/join phases are the natural
   completion and add only O(polylog n) rounds.

   The connection machinery ([connect]) is shared with the localized
   repair protocol of [Repair] (Section 8 future work). *)

module R = Radio
module Bitset = Rn_util.Bitset
module Ilog = Rn_util.Ilog

type path = Direct | Via of int | Via2 of int * int

type outcome = {
  dominator : bool;
  in_ccds : bool;
  targets : (int * path) list; (* dominators discovered, with evidence *)
}

let path_len = function Direct -> 1 | Via _ -> 2 | Via2 _ -> 3

(* Detector-set label of announcement/gossip messages. *)
let announce_lds = function
  | Msg.Announce { lds; _ } | Msg.Gossip { lds; _ } -> lds
  | _ -> None

(* Entries fitting in one gossip message under the bound b (raises if b
   is too small for labelled gossip).  The label estimate assumes
   detector sets of at most delta_bound + 2 ids; for τ > 2 under a
   bounded b, provide b = Ω((Δ+τ)·log n) or the engine will reject an
   oversized labelled message at send time (loud, not silent). *)
let gossip_capacity ctx ~mutual =
  let n = R.n ctx in
  let id = Msg.id_bits ~n in
  match R.b_bits ctx with
  | None -> max_int
  | Some b ->
    let label = if mutual then (R.delta_bound ctx + 2) * id else 1 in
    let avail = b - Msg.tag_bits - id - label in
    let cap = avail / ((2 * id) + 1) in
    if cap < 1 then
      invalid_arg "Explore_ccds: b too small for gossip (need b = Omega(Delta log n) with labels)"
    else cap

(* The announce/gossip/select machinery: connects every pair of dominators
   within 3 hops by making the evidence-path relays call [on_join].  All
   processes execute it in lock step; dominators additionally drive the
   poll schedule.  Returns the evidence table of this dominator (empty for
   covered processes). *)
let connect ?(mutual = false) ?(on_join = fun () -> ()) (params : Params.t) ctx
    ~dominator ~my_master =
  let me = R.me ctx in
  let lds () = if mutual then Some (Radio.detector_list ctx) else None in
  let bb msg ~on_recv =
    Subroutines.bounded_broadcast params ctx ~delta:params.delta_bb msg ~on_recv
  in
  (* Detector filtering for control traffic; mutual H-filtering for
     announcements and gossip when τ > 0. *)
  let ctl on_msg m = if Radio.in_detector ctx (Msg.src m) then on_msg m in
  let data on_msg m =
    if Radio.in_detector ctx (Msg.src m) then
      if mutual then begin
        match announce_lds m with
        | Some l when List.mem me l -> on_msg m
        | Some _ | None -> ()
      end
      else on_msg m
  in
  let poll_list =
    if dominator then Array.of_list (List.sort compare (me :: Radio.detector_list ctx))
    else [||]
  in
  let slots = R.delta_bound ctx + 1 in
  let heard1 : (int, int option) Hashtbl.t = Hashtbl.create 16 in
  (* Run one poll sub-slot; [answer] builds the polled process's response
     rounds. *)
  let run_poll_slot k ~answer =
    let poll_msg =
      if dominator && k < Array.length poll_list && poll_list.(k) <> me then
        Some (Msg.Poll { src = me; who = poll_list.(k) })
      else None
    in
    let due = ref (dominator && k < Array.length poll_list && poll_list.(k) = me) in
    bb poll_msg ~on_recv:(fun m ->
        ctl (function Msg.Poll { src = _; who } when who = me -> due := true | _ -> ()) m);
    answer !due
  in
  (* ---------------- Phase 1: announcements ---------------- *)
  for k = 0 to slots - 1 do
    run_poll_slot k ~answer:(fun due ->
        let msg =
          if due && (dominator || my_master <> None) then
            Some
              (Msg.Announce
                 { src = me; master = (if dominator then None else my_master); lds = lds () })
          else None
        in
        bb msg ~on_recv:(fun m ->
            data
              (function
                | Msg.Announce { src; master; _ } -> Hashtbl.replace heard1 src master
                | _ -> ())
              m))
  done;
  (* ---------------- Phase 2: gossip ---------------- *)
  let cap = gossip_capacity ctx ~mutual in
  let gossip_slots = if cap = max_int then 1 else Ilog.cdiv (R.delta_bound ctx + 2) cap in
  (* Evidence per target dominator, preferring shorter paths. *)
  let evidence : (int, path) Hashtbl.t = Hashtbl.create 8 in
  let record target p =
    if target <> me then begin
      match Hashtbl.find_opt evidence target with
      | Some old when path_len old <= path_len p -> ()
      | _ -> Hashtbl.replace evidence target p
    end
  in
  Hashtbl.iter
    (fun p master ->
      match master with None -> record p Direct | Some m -> record m (Via p))
    heard1;
  for k = 0 to slots - 1 do
    run_poll_slot k ~answer:(fun due ->
        let my_entries =
          if due then
            Hashtbl.fold (fun pid master acc -> { Msg.pid; master } :: acc) heard1 []
          else []
        in
        let chunks = if cap = max_int then [ my_entries ] else Radio.chunks ~cap my_entries in
        for slot = 0 to gossip_slots - 1 do
          let msg =
            match List.nth_opt chunks slot with
            | Some (_ :: _ as entries) -> Some (Msg.Gossip { src = me; entries; lds = lds () })
            | Some [] | None -> None
          in
          bb msg ~on_recv:(fun m ->
              data
                (function
                  | Msg.Gossip { src = v; entries; _ } ->
                    List.iter
                      (fun { Msg.pid = x; master } ->
                        if x <> me then begin
                          match master with
                          | None -> record x (Via v)
                          | Some m ->
                            (* m = v means the gossiper itself is a
                               dominator and an H-neighbour: no relay. *)
                            if m = v then record m Direct else record m (Via2 (v, x))
                        end)
                      entries
                  | _ -> ())
                m)
        done)
  done;
  (* ---------------- Phase 3: path selection ---------------- *)
  let picks =
    if dominator then
      Hashtbl.fold
        (fun _target p acc ->
          match p with
          | Direct -> acc
          | Via v -> (v, None) :: acc
          | Via2 (v, x) -> (v, Some x) :: acc)
        evidence []
      |> List.sort_uniq compare
    else []
  in
  (* Selection messages are chunked under the bound b like everything
     else; slot counts are functions of the global (n, Δ, b) only, keeping
     all processes phase-aligned. *)
  let id = Msg.id_bits ~n:(R.n ctx) in
  let pick_cap, xs_cap =
    match R.b_bits ctx with
    | None -> (max_int, max_int)
    | Some b ->
      let avail = b - Msg.tag_bits - id in
      (max 1 (avail / ((2 * id) + 1)), max 1 (avail / id))
  in
  let pick_slots =
    if pick_cap = max_int then 1 else Ilog.cdiv (R.delta_bound ctx + 2) pick_cap
  in
  let relay_xs = ref [] in
  let pick_chunks = if pick_cap = max_int then [ picks ] else Radio.chunks ~cap:pick_cap picks in
  for slot = 0 to pick_slots - 1 do
    let msg =
      match List.nth_opt pick_chunks slot with
      | Some (_ :: _ as picks) -> Some (Msg.Path_select { src = me; picks })
      | Some [] | None -> None
    in
    bb msg ~on_recv:(fun m ->
        ctl
          (function
            | Msg.Path_select { src = _; picks } ->
              List.iter
                (fun (v, x) ->
                  if v = me then begin
                    on_join ();
                    match x with Some x -> relay_xs := x :: !relay_xs | None -> ()
                  end)
                picks
            | _ -> ())
          m)
  done;
  (* ---------------- Phase 4: second-hop relays ---------------- *)
  let xs = List.sort_uniq compare !relay_xs in
  let xs_chunks = if xs_cap = max_int then [ xs ] else Radio.chunks ~cap:xs_cap xs in
  for slot = 0 to pick_slots - 1 do
    let msg =
      match List.nth_opt xs_chunks slot with
      | Some (_ :: _ as xs) -> Some (Msg.Relay_select { src = me; xs })
      | Some [] | None -> None
    in
    bb msg ~on_recv:(fun m ->
        ctl
          (function
            | Msg.Relay_select { src = _; xs } -> if List.mem me xs then on_join ()
            | _ -> ())
          m)
  done;
  List.sort compare (Hashtbl.fold (fun t p acc -> (t, p) :: acc) evidence [])

let body ?(on_decide = fun _ -> ()) (params : Params.t) ~tau ctx =
  if tau < 0 then invalid_arg "Explore_ccds.body: negative tau";
  let mutual = tau > 0 in
  (* --- dominating structure --- *)
  let dominator, masters =
    if tau = 0 then
      let o = Mis.body params ctx in
      (o.in_mis, o.mis_neighbors)
    else
      let o = Iterated_mis.body params ~tau ctx in
      (o.dominator, o.masters)
  in
  let in_ccds = ref dominator in
  if dominator then on_decide 1;
  let on_join () =
    if not !in_ccds then begin
      in_ccds := true;
      on_decide 1
    end
  in
  let my_master = match masters with [] -> None | m :: _ -> Some m in
  let targets = connect ~mutual ~on_join params ctx ~dominator ~my_master in
  if not !in_ccds then on_decide 0;
  { dominator; in_ccds = !in_ccds; targets }

(* Standalone runner (τ = 0 gives the naive exploration baseline). *)
let run ?(params = Params.default) ?(adversary = Rn_sim.Adversary.silent)
    ?(seed = 0) ?b_bits ~tau ~detector dual =
  Params.validate params;
  let cfg = R.config ~adversary ~seed ?b_bits ~detector dual in
  R.run cfg (fun ctx -> body ~on_decide:(fun v -> R.output ctx v) params ~tau ctx)

(* A deterministic O(n)-round CCDS in the style of the paper's reference
   [19] (Wan-Alzoubi-Frieder): id-indexed TDMA frames.

   In every round exactly one process (the round's slot owner) may speak,
   so there are never collisions — which also makes the algorithm immune
   to the gray-edge adversary: a solo broadcast is delivered on every
   reliable link no matter which unreliable links are switched on.  With a
   0-complete detector this gives a deterministic dual-graph CCDS.

   Frames (n rounds each):
     A. greedy MIS by id: a process joins iff no smaller-id detector
        neighbour announced joining earlier in the frame;
     B. every process announces (id, master);
     C. gossip of everything heard in B (chunked over ⌈Δ/cap⌉ frames under
        a message bound);
     D. dominators announce their evidence-path picks;
     E. selected relays announce their second hops.

   The evidence/paths logic mirrors [Explore_ccds]; the contrast the A5
   experiment draws: Θ(n) deterministic rounds versus the randomized
   polylog/Δ schedules — the crossover the paper's related-work section
   talks about, with the w.h.p. constants made visible. *)

module R = Radio
module Ilog = Rn_util.Ilog

type outcome = {
  dominator : bool;
  in_ccds : bool;
  targets : (int * Explore_ccds.path) list;
}

let frames_for ctx =
  let id = Msg.id_bits ~n:(R.n ctx) in
  let payload = R.delta_bound ctx + 2 in
  let chunked avail_per =
    match R.b_bits ctx with
    | None -> 1
    | Some b ->
      let cap = (b - Msg.tag_bits - id) / avail_per in
      if cap < 1 then invalid_arg "Tdma_ccds: b too small" else Ilog.cdiv payload cap
  in
  let gossip_frames = chunked ((2 * id) + 1) in
  let pick_frames = chunked ((2 * id) + 1) in
  (gossip_frames, pick_frames)

(* Total fixed schedule length. *)
let schedule_rounds ctx =
  let gossip_frames, pick_frames = frames_for ctx in
  R.n ctx * (3 + gossip_frames + (2 * pick_frames))

let body ?(on_decide = fun _ -> ()) (_params : Params.t) ctx =
  let n = R.n ctx and me = R.me ctx in
  let keep m = if Radio.in_detector ctx (Msg.src m) then Some m else None in
  (* One TDMA frame: [speak] builds my slot's message, [hear] sees every
     detector-filtered reception.  Slots other than mine are pure
     listening, so the fiber parks through them. *)
  let frame ~speak ~hear =
    let on_recv m = match keep m with Some m -> hear m | None -> () in
    Radio.listen_for ctx me ~on_recv;
    (match R.sync ctx (speak ()) with R.Recv m -> on_recv m | R.Own | R.Silence -> ());
    Radio.listen_for ctx (n - 1 - me) ~on_recv
  in
  (* ---- frame A: greedy MIS by id ---- *)
  let mis_nbrs = ref [] in
  let joined = ref false in
  frame
    ~speak:(fun () ->
      if !mis_nbrs = [] then begin
        joined := true;
        Some (Msg.Mis_announce { src = me; lds = None })
      end
      else None)
    ~hear:(function
      | Msg.Mis_announce { src; _ } -> mis_nbrs := src :: !mis_nbrs
      | _ -> ());
  let dominator = !joined in
  let in_ccds = ref dominator in
  if dominator then on_decide 1;
  let join () =
    if not !in_ccds then begin
      in_ccds := true;
      on_decide 1
    end
  in
  let my_master = match List.rev !mis_nbrs with m :: _ -> Some m | [] -> None in
  (* ---- frame B: announce (id, master) ---- *)
  let heard1 : (int, int option) Hashtbl.t = Hashtbl.create 16 in
  frame
    ~speak:(fun () ->
      Some (Msg.Announce { src = me; master = (if dominator then None else my_master); lds = None }))
    ~hear:(function
      | Msg.Announce { src; master; _ } -> Hashtbl.replace heard1 src master
      | _ -> ());
  (* ---- frames C: gossip ---- *)
  let gossip_frames, pick_frames = frames_for ctx in
  let evidence : (int, Explore_ccds.path) Hashtbl.t = Hashtbl.create 8 in
  let record target p =
    if target <> me then begin
      match Hashtbl.find_opt evidence target with
      | Some old when Explore_ccds.path_len old <= Explore_ccds.path_len p -> ()
      | _ -> Hashtbl.replace evidence target p
    end
  in
  Hashtbl.iter
    (fun p master ->
      match master with
      | None -> record p Explore_ccds.Direct
      | Some m -> record m (Explore_ccds.Via p))
    heard1;
  let my_entries =
    Hashtbl.fold (fun pid master acc -> { Msg.pid; master } :: acc) heard1 []
  in
  let cap = Ilog.cdiv (List.length my_entries) (max 1 gossip_frames) in
  let chunks = Radio.chunks ~cap:(max 1 cap) my_entries in
  for f = 0 to gossip_frames - 1 do
    frame
      ~speak:(fun () ->
        match List.nth_opt chunks f with
        | Some (_ :: _ as entries) -> Some (Msg.Gossip { src = me; entries; lds = None })
        | Some [] | None -> None)
      ~hear:(function
        | Msg.Gossip { src = v; entries; _ } ->
          List.iter
            (fun { Msg.pid = x; master } ->
              if x <> me then begin
                match master with
                | None -> record x (Explore_ccds.Via v)
                | Some m ->
                  if m = v then record m Explore_ccds.Direct
                  else record m (Explore_ccds.Via2 (v, x))
              end)
            entries
        | _ -> ())
  done;
  (* ---- frames D: picks ---- *)
  let picks =
    if dominator then
      Hashtbl.fold
        (fun _t p acc ->
          match p with
          | Explore_ccds.Direct -> acc
          | Explore_ccds.Via v -> (v, None) :: acc
          | Explore_ccds.Via2 (v, x) -> (v, Some x) :: acc)
        evidence []
      |> List.sort_uniq compare
    else []
  in
  let pick_cap = Ilog.cdiv (List.length picks) (max 1 pick_frames) in
  let pick_chunks = Radio.chunks ~cap:(max 1 pick_cap) picks in
  let relay_xs = ref [] in
  for f = 0 to pick_frames - 1 do
    frame
      ~speak:(fun () ->
        match List.nth_opt pick_chunks f with
        | Some (_ :: _ as picks) -> Some (Msg.Path_select { src = me; picks })
        | Some [] | None -> None)
      ~hear:(function
        | Msg.Path_select { src = _; picks } ->
          List.iter
            (fun (v, x) ->
              if v = me then begin
                join ();
                match x with Some x -> relay_xs := x :: !relay_xs | None -> ()
              end)
            picks
        | _ -> ())
  done;
  (* ---- frames E: second-hop relays ---- *)
  let xs = List.sort_uniq compare !relay_xs in
  let xs_cap = Ilog.cdiv (List.length xs) (max 1 pick_frames) in
  let xs_chunks = Radio.chunks ~cap:(max 1 xs_cap) xs in
  for f = 0 to pick_frames - 1 do
    frame
      ~speak:(fun () ->
        match List.nth_opt xs_chunks f with
        | Some (_ :: _ as xs) -> Some (Msg.Relay_select { src = me; xs })
        | Some [] | None -> None)
      ~hear:(function
        | Msg.Relay_select { src = _; xs } -> if List.mem me xs then join ()
        | _ -> ())
  done;
  if not !in_ccds then on_decide 0;
  {
    dominator;
    in_ccds = !in_ccds;
    targets = List.sort compare (Hashtbl.fold (fun t p acc -> (t, p) :: acc) evidence []);
  }

let run ?(params = Params.default) ?(adversary = Rn_sim.Adversary.silent)
    ?(seed = 0) ?b_bits ?sink ~detector dual =
  Params.validate params;
  let cfg = R.config ~adversary ~seed ?b_bits ?sink ~detector dual in
  R.run cfg (fun ctx -> body ~on_decide:(fun v -> R.output ctx v) params ctx)

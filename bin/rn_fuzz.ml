(* Continuous randomized validation: generate random instances, run a
   random algorithm under a random adversary, verify the output against
   the Section 3 definitions, and report any violation with its full
   recipe (seed, size, degree, τ, adversary) so it can be replayed with
   rn_cli.  The verified adversary is one of four policies (silent,
   Bernoulli 0.3/0.5, harassing 0.5) under which every algorithm must
   pass.  Each trial also runs the same algorithm on the same instance
   under a policy drawn from all seven, through [run] and
   [run_reference], and fails unless the two results are identical.

     dune exec bin/rn_fuzz.exe            # run until interrupted
     dune exec bin/rn_fuzz.exe -- 200     # exactly 200 trials
*)

module Rng = Rn_util.Rng
module Dual = Rn_graph.Dual
module Detector = Rn_detect.Detector
module Verify = Rn_verify.Verify
module R = Core.Radio

type recipe = {
  seed : int;
  n : int;
  degree : int;
  tau : int;
  adv_name : string;
  adversary : Rn_sim.Adversary.t;
  algo : string;
  ref_name : string; (* the policy of the run = run_reference check *)
  ref_adversary : Rn_sim.Adversary.t;
}

(* Every built-in policy, for the run = run_reference check. *)
let all_policies =
  [|
    ("silent", Rn_sim.Adversary.silent);
    ("all", Rn_sim.Adversary.all_gray);
    ("spiteful", Rn_sim.Adversary.spiteful);
    ("jamming", Rn_sim.Adversary.jamming);
    ("bernoulli:0.3", Rn_sim.Adversary.bernoulli 0.3);
    ("bernoulli:0.5", Rn_sim.Adversary.bernoulli 0.5);
    ("harassing:0.5", Rn_sim.Adversary.harassing 0.5);
  |]

(* [ref_rng] draws the check's policy, so [rng]'s recipes stay those of
   the verification-only fuzzer. *)
let random_recipe rng ref_rng trial =
  let seed = 100_000 + trial in
  let n = 24 + Rng.int rng 96 in
  let degree = 6 + Rng.int rng 10 in
  let adversaries =
    [|
      ("silent", Rn_sim.Adversary.silent);
      ("bernoulli:0.3", Rn_sim.Adversary.bernoulli 0.3);
      ("bernoulli:0.5", Rn_sim.Adversary.bernoulli 0.5);
      ("harassing:0.5", Rn_sim.Adversary.harassing 0.5);
    |]
  in
  let adv_name, adversary = Rng.choose rng adversaries in
  let algos = [| "mis"; "ccds-banned"; "ccds-explore"; "ccds-tdma" |] in
  let algo = Rng.choose rng algos in
  let tau = if algo = "ccds-explore" then Rng.int rng 3 else 0 in
  let ref_name, ref_adversary = Rng.choose ref_rng all_policies in
  { seed; n; degree; tau; adv_name; adversary; algo; ref_name; ref_adversary }

let run_recipe r =
  let dual = Rn_harness.Harness.geometric ~seed:r.seed ~n:r.n ~degree:r.degree () in
  let det =
    if r.tau = 0 then Detector.perfect (Dual.g dual)
    else Detector.tau_complete ~rng:(Rng.create (r.seed + 77)) ~tau:r.tau dual
  in
  let h = Detector.h_graph det in
  let detector = Detector.static det in
  let ok_mis outputs =
    let c = Verify.Mis_check.check ~g:(Dual.g dual) ~h outputs in
    (Verify.Mis_check.ok c, c.violations)
  in
  let ok_ccds outputs =
    let c = Verify.Ccds_check.check ~h ~g':(Dual.g' dual) outputs in
    (Verify.Ccds_check.ok c, c.violations)
  in
  (* Verify [body]'s outputs under the recipe's policy with [ok], and
     check run = run_reference under the check's policy. *)
  let trial ok body =
    let cfg adversary = R.config ~adversary ~seed:r.seed ~detector dual in
    let ok, violations = ok (R.run (cfg r.adversary) body).R.outputs in
    let check = cfg r.ref_adversary in
    if R.run check body = R.run_reference check body then (ok, violations)
    else (false, violations @ [ Printf.sprintf "run <> run_reference under %s" r.ref_name ])
  in
  let params = Core.Params.default in
  match r.algo with
  | "mis" -> trial ok_mis (fun ctx -> Core.Mis.body ~on_decide:(R.output ctx) params ctx)
  | "ccds-banned" ->
    trial ok_ccds (fun ctx -> Core.Ccds.body ~on_decide:(R.output ctx) params ctx)
  | "ccds-explore" ->
    trial ok_ccds (fun ctx ->
        Core.Explore_ccds.body ~on_decide:(R.output ctx) params ~tau:r.tau ctx)
  | "ccds-tdma" ->
    trial ok_ccds (fun ctx -> Core.Tdma_ccds.body ~on_decide:(R.output ctx) params ctx)
  | _ -> assert false

let () =
  let max_trials =
    if Array.length Sys.argv > 1 then int_of_string_opt Sys.argv.(1) else None
  in
  let rng = Rng.create 20260705 and ref_rng = Rng.create 20261019 in
  let trial = ref 0 and failures = ref 0 in
  let continue () = match max_trials with Some m -> !trial < m | None -> true in
  while continue () do
    incr trial;
    let r = random_recipe rng ref_rng !trial in
    let ok, violations = run_recipe r in
    if not ok then begin
      incr failures;
      Printf.printf "FAIL trial=%d algo=%s n=%d degree=%d tau=%d adversary=%s seed=%d\n"
        !trial r.algo r.n r.degree r.tau r.adv_name r.seed;
      List.iter (fun v -> Printf.printf "   %s\n" v) violations;
      Printf.printf "   replay: rn_cli %s -n %d --degree %d --tau %d --adversary %s --seed %d\n%!"
        (if r.algo = "mis" then "mis"
         else if r.algo = "ccds-banned" then "ccds --algo banned"
         else if r.algo = "ccds-explore" then "ccds --algo explore"
         else "ccds")
        r.n r.degree r.tau r.adv_name r.seed
    end;
    if !trial mod 25 = 0 then
      Printf.printf "[%d trials, %d failures]\n%!" !trial !failures
  done;
  Printf.printf "done: %d trials, %d failures\n" !trial !failures;
  if !failures > 0 then exit 1

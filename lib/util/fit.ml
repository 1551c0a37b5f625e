(* Least-squares fitting of simple scaling models.

   The experiment harness validates theorem shapes (e.g. "MIS rounds grow as
   log^3 n", "tau=1 CCDS rounds grow linearly in Delta") by fitting measured
   series to candidate models and comparing goodness of fit. *)

type line = { slope : float; intercept : float; r2 : float }

(* Ordinary least squares y = slope * x + intercept. *)
let linear xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Fit.linear: length mismatch";
  if n < 2 then invalid_arg "Fit.linear: need at least two points";
  let nf = float_of_int n in
  let sx = Array.fold_left ( +. ) 0.0 xs and sy = Array.fold_left ( +. ) 0.0 ys in
  let sxx = ref 0.0 and sxy = ref 0.0 in
  for i = 0 to n - 1 do
    sxx := !sxx +. (xs.(i) *. xs.(i));
    sxy := !sxy +. (xs.(i) *. ys.(i))
  done;
  let denom = (nf *. !sxx) -. (sx *. sx) in
  if abs_float denom < 1e-12 then invalid_arg "Fit.linear: degenerate xs";
  let slope = ((nf *. !sxy) -. (sx *. sy)) /. denom in
  let intercept = (sy -. (slope *. sx)) /. nf in
  let ymean = sy /. nf in
  let ss_tot = ref 0.0 and ss_res = ref 0.0 in
  for i = 0 to n - 1 do
    let pred = (slope *. xs.(i)) +. intercept in
    ss_res := !ss_res +. ((ys.(i) -. pred) ** 2.0);
    ss_tot := !ss_tot +. ((ys.(i) -. ymean) ** 2.0)
  done;
  let r2 = if !ss_tot < 1e-12 then 1.0 else 1.0 -. (!ss_res /. !ss_tot) in
  { slope; intercept; r2 }

(* Fit y = a * x^p by regressing log y on log x; returns (exponent, r2).
   All data must be strictly positive. *)
let power_law xs ys =
  let lx = Array.map log xs and ly = Array.map log ys in
  let l = linear lx ly in
  (l.slope, l.r2)

(* Fit y = a * (log2 x)^p: regress log y on log (log2 x). *)
let polylog_exponent xs ys =
  let lx = Array.map (fun x -> log (log x /. log 2.0)) xs in
  let ly = Array.map log ys in
  let l = linear lx ly in
  (l.slope, l.r2)

(* Descriptive statistics over float samples, used by the experiment
   harness to aggregate repeated runs. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p90 : float;
}

let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

(* Percentile by linear interpolation between closest ranks. *)
let percentile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.percentile: q outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) and hi = int_of_float (ceil pos) in
  if lo = hi then sorted.(lo)
  else begin
    let w = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. w)) +. (sorted.(hi) *. w)
  end

let median xs = percentile xs 0.5

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty";
  {
    count = n;
    mean = mean xs;
    stddev = stddev xs;
    min = Array.fold_left min xs.(0) xs;
    max = Array.fold_left max xs.(0) xs;
    median = median xs;
    p90 = percentile xs 0.9;
  }

let of_ints xs = Array.map float_of_int xs

(* Half-width of a normal-approximation 95% confidence interval for the
   mean (0 for fewer than two samples). *)
let ci95 xs =
  let n = Array.length xs in
  if n < 2 then 0.0 else 1.96 *. stddev xs /. sqrt (float_of_int n)

let pp_summary ppf s =
  Fmt.pf ppf "n=%d mean=%.1f sd=%.1f med=%.1f p90=%.1f min=%.1f max=%.1f"
    s.count s.mean s.stddev s.median s.p90 s.min s.max

(* One glyph per window: [xs] cut into [buckets] equal windows (they
   repeat samples when there are fewer samples than windows), each
   window's mean scaled to the largest, from " " (zero) to a full
   block. *)
let sparkline ~buckets xs =
  let n = Array.length xs in
  if n = 0 || buckets < 1 then ""
  else begin
    let means =
      Array.init buckets (fun b ->
          let lo = b * n / buckets in
          let hi = max (((b + 1) * n / buckets) - 1) lo in
          mean (Array.sub xs lo (hi - lo + 1)))
    in
    let top = Array.fold_left max 0.0 means in
    let glyphs = [| " "; "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |] in
    let pick v =
      if top <= 0.0 then glyphs.(0) else glyphs.(min 8 (int_of_float (ceil (v /. top *. 8.0))))
    in
    String.concat "" (Array.to_list (Array.map pick means))
  end

(** Descriptive statistics over float samples. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p90 : float;
}

(** Arithmetic mean. Raises on empty input. *)
val mean : float array -> float

(** Sample (unbiased) variance; [0.] for fewer than two samples. *)
val variance : float array -> float

val stddev : float array -> float

(** [percentile xs q] with [q] in [\[0,1\]], linear interpolation. *)
val percentile : float array -> float -> float

val median : float array -> float

val summarize : float array -> summary

val of_ints : int array -> float array

(** Half-width of a 95% confidence interval for the mean (normal
    approximation; [0.] for fewer than two samples). *)
val ci95 : float array -> float

val pp_summary : Format.formatter -> summary -> unit

(** [sparkline ~buckets xs]: one unicode glyph per window of [xs] cut
    into [buckets] equal windows, the window's mean scaled to the
    largest window mean (a blank for zero, a full block for the
    largest).  [""] when [xs] is empty or [buckets < 1]. *)
val sparkline : buckets:int -> float array -> string

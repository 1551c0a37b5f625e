(** Least-squares fitting of scaling models for experiment validation. *)

type line = { slope : float; intercept : float; r2 : float }

(** Ordinary least squares [y = slope*x + intercept] with R². *)
val linear : float array -> float array -> line

(** Fit [y = a·x^p] in log-log space; returns [(p, r2)].  Inputs must be
    strictly positive. *)
val power_law : float array -> float array -> float * float

(** Fit [y = a·(log₂ x)^p]; returns [(p, r2)].  Inputs must exceed 1. *)
val polylog_exponent : float array -> float array -> float * float

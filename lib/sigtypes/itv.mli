(** Closed float intervals: the one interval domain of the static
    analyses. The block-diagram range analysis (FXP rules) and the MIR
    saturation prover (MIR004) both compute with it.

    An interval bounds the finite values a signal can take; a bound may
    be infinite. On valid operands no operation yields an inverted
    interval or a NaN bound: a NaN (from [inf - inf] or [inf / inf])
    means the bound is unknown, and {!make} maps it to {!top}. A zero
    factor gives 0 even against an infinite bound ([0 * inf = 0]), the
    product the engine computes for any finite value. *)

type t = { lo : float; hi : float }

val top : t

val make : float -> float -> t
(** [make lo hi]; {!top} when either bound is NaN. *)

val point : float -> t
val hull : t -> t -> t

val widen : old:t -> t -> t
(** A bound that moved past [old]'s goes to the matching infinity. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** [0 / y = 0]; {!top} when the divisor contains 0. *)

val abs : t -> t

val clamp : bounds:t -> t -> t
(** Saturation: a value outside [bounds] lands on the nearer bound, so
    an interval wholly outside gives that bound's point. *)

val wrap : bounds:t -> t -> t
(** A wrapping conversion: the interval when it fits in [bounds],
    otherwise all of [bounds]. *)

type verdict =
  | Never  (** every value lies inside the bounds *)
  | May
  | Always  (** every value lies outside the bounds *)

val classify : bounds:t -> t -> verdict
(** Whether a saturation to [bounds] changes the values of the interval.
    Intervals over-approximate, so [Never] and [Always] are sound claims
    and [May] means "cannot prove". *)

val to_string : t -> string
(** [[lo, hi]], each bound as [%g]. *)

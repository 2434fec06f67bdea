(** Summary statistics over measurement samples (execution times, jitter,
    latencies) collected by the PIL profiler and the experiment harness. *)

type summary = {
  n : int;
  mean : float;
  stdev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val summarize : float list -> summary
(** @raise Invalid_argument on an empty sample list. *)

val summary_or_zero : float list -> summary
(** [summarize], or a summary of zeros for an empty sample list. *)

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in 0..1 over an ascending-sorted array,
    with linear interpolation. *)

val mean : float list -> float
val stdev : float list -> float

val jitter : float list -> float
(** Peak-to-peak variation, [max - min]; the paper's notion of sampling
    jitter observed during PIL simulation (§6). *)

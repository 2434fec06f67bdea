(** Fixed-priority response-time analysis.

    The paper motivates tools that capture "the response time" alongside
    control performance (§1) and cites the co-design surveys where
    schedulability analysis is the standard static counterpart of the PIL
    measurement. This module implements the classic exact analysis for
    periodic tasks under fixed priorities — preemptive, and non-preemptive
    (the regime of PEERT's generated code, where each ISR runs to
    completion) — so a generated schedule can be validated before any
    simulation, and the PIL/HIL measurements can be checked against a
    sound bound. *)

type task = {
  tname : string;
  period : float;  (** also the deadline (implicit-deadline model) *)
  wcet : float;  (** worst-case execution time, seconds *)
  prio : int;  (** smaller = more important (matches {!Machine}) *)
}

type verdict = {
  task : task;
  response : float;  (** worst-case response time; [infinity] if unbounded *)
  schedulable : bool;  (** [response <= period] *)
}

val utilization : task list -> float
(** Total CPU demand, sum of wcet/period. *)

val rm_bound : int -> float
(** The Liu–Layland rate-monotonic sufficient bound [n(2^(1/n)-1)]. *)

val preemptive : task list -> verdict list
(** Exact response-time iteration [R = C + sum ceil(R/Tj) Cj] over
    higher-priority interference. Results in input order.
    @raise Invalid_argument on duplicate priorities or non-positive
    parameters. *)

val non_preemptive : task list -> verdict list
(** The non-preemptive variant: each response additionally suffers the
    longest lower-priority execution already in flight (blocking term),
    and interference accumulates until the task {e starts} rather than
    finishes. Every job of the level-i busy period is analysed, not only
    the first: a job pushed back by its predecessor's non-preemptable
    run can respond later (Davis, Burns, Bril & Lukkien 2007). *)

val analyze :
  preemptive:bool -> task list -> (verdict list, string) result
(** Run the matching analysis and fail with a message naming the first
    unschedulable task, if any. *)

(** Fixed-step simulation engine (model-in-the-loop).

    Executes a compiled model: at every major step the engine runs the
    output pass over the blocks scheduled at that instant, then the
    discrete update pass, then integrates all continuous states over the
    step with classical RK4 (minor steps re-evaluate only the continuous
    subgraph, with discrete outputs held — Simulink fixed-step
    semantics). Events fired by blocks execute their function-call group
    immediately and atomically, reproducing the event-driven tasks of the
    paper's execution model (§5). *)

type t

val create : ?solver_substeps:int -> Compile.t -> t
(** Instantiate every block behaviour and plan the step once: per-block
    input slots, each block's index among the model's distinct rates
    (a step evaluates each rate's sample hit once), the continuous-rate
    sub-order and the RK4 (ode4) workspace. [solver_substeps] (default
    1) integrates the continuous states with that many sub-steps per
    major step — needed when a slow discrete base rate meets fast
    continuous dynamics (stiffness). *)

val reset : t -> unit
(** Back to time zero and initial block states. *)

val time : t -> float
val base_dt : t -> float
val compiled : t -> Compile.t

val probe : t -> Model.blk * int -> unit
(** Record the signal at an output port at every major step. *)

val probe_named : t -> string -> int -> unit
(** [probe_named sim block_name port]. @raise Not_found on a bad name. *)

val step : t -> unit
(** Advance one major step. *)

val run : t -> ?steps:int -> until:float -> unit -> unit
(** Step until [time >= until] (or at most [steps] steps). *)

val value : t -> Model.blk * int -> Value.t
(** Current signal at an output port. *)

val value_named : t -> string -> int -> Value.t

val trace : t -> Model.blk * int -> (float * float) list
(** Recorded probe samples as (time, numeric value), oldest first.
    @raise Not_found if the port was never probed. *)

val trace_named : t -> string -> int -> (float * float) list

val fire_group : t -> Model.group -> unit
(** Manually fire a function-call group (used by test harnesses and the
    PIL target executive). *)

val override_output : t -> Model.blk * int -> Value.t option -> unit
(** Force an output port to a fixed value (or release it with [None]) —
    the mechanism the PIL harness uses to redirect peripheral blocks to
    communication buffers, as PEERT_PIL does in §6. *)

val set_fault_hook :
  t -> ((Model.blk * int) * (time:float -> Value.t -> Value.t)) list -> unit
(** Install a set of fault-injection hooks, replacing any installed
    before ([[]] clears them all). Each hook perturbs the value written
    to its one output port (after {!override_output} overrides), at
    every write, with [time] the current major-step time. Ports are
    resolved here, so a port without a hook pays nothing per write.
    This is the MIL attachment point of the fault campaign subsystem.
    @raise Invalid_argument on a port outside the model's blocks or past
    a block's outputs, or on a port listed twice; the installed set is
    then unchanged. *)

val step_events : t -> int
(** Number of events fired during the last major step. *)

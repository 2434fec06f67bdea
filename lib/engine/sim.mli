(** Fixed-step simulation engine (model-in-the-loop).

    Executes a compiled model: at every major step the engine runs the
    output pass over the blocks scheduled at that instant, then the
    discrete update pass, then integrates all continuous states over the
    step with classical RK4 (minor steps re-evaluate only the continuous
    subgraph, with discrete outputs held — Simulink fixed-step
    semantics). The engine owns the continuous states: one packed
    vector, advanced in place, which each block's float kernel
    ({!Block.kernel}) reads at a planned offset. Events fired by blocks
    execute their function-call group immediately and atomically,
    reproducing the event-driven tasks of the paper's execution model
    (§5). *)

type t

val create : ?solver_substeps:int -> Compile.t -> t
(** Instantiate every block behaviour and plan the step once: per-block
    input slots, each block's index among the model's distinct rates
    (a step evaluates each rate's sample hit once) and the
    continuous-time kernel: the state vector with each owner's offset,
    float arrays for the signals between continuous blocks, and the RK4
    (ode4) workspace. The step itself is built here as closures over
    each block's own arrays: one per block for the major pass and for
    the update pass, and one RK4 stage function over the continuous
    kernels. A continuous-rate block without a float kernel runs its
    boxed [out] at every stage, and so does a kernel whose row it reads
    or whose ports carry a fault hook or an override; every other
    continuous output reaches its Value row once a step, after the last
    stage. [solver_substeps] (default 1) integrates the continuous
    states with that many sub-steps per major step — needed when a slow
    discrete base rate meets fast continuous dynamics (stiffness). *)

val reset : t -> unit
(** Back to time zero, every behaviour's [reset], and each kernel's
    initial conditions ([x0]) into the state vector. *)

type snapshot
(** A captured simulation state: see {!save}. *)

val save : t -> snapshot
(** Capture the simulation's state: every signal, the time and step
    count, the packed continuous state, every probe's samples so far,
    and each block behaviour's state through its [Block.beh] [save].
    Fault hooks and output overrides are configuration, not state, and
    are not captured.
    @raise Invalid_argument naming the block when a behaviour overrides
    [reset] but not [save]: its state could not be put back. *)

val restore : t -> snapshot -> unit
(** Put a {!save}d state back. A snapshot can be restored any number of
    times; stepping on from it is bit-identical to stepping on from the
    moment it was taken, given the same fault hooks and overrides.
    @raise Invalid_argument on a snapshot of another simulation. *)

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

val override_output : t -> Model.blk * int -> Value.t option -> unit
(** Force an output port to a fixed value (or release it with [None]) —
    the mechanism the PIL harness uses to redirect peripheral blocks to
    communication buffers, as PEERT_PIL does in §6. Switching a port
    between forced and free re-plans the step; a new value for a port
    already forced costs no more than the write. *)

val set_fault_hook :
  t -> ((Model.blk * int) * (time:float -> Value.t -> Value.t)) list -> unit
(** Install a set of fault-injection hooks, replacing any installed
    before ([[]] clears them all). Each hook perturbs the value written
    to its one output port (after {!override_output} overrides), at
    every write, with [time] the current major-step time. Ports are
    resolved and the step re-planned here, so a block without a hook
    pays nothing per write.
    This is the MIL attachment point of the fault campaign subsystem.
    @raise Invalid_argument on a port outside the model's blocks or past
    a block's outputs, or on a port listed twice; the installed set is
    then unchanged. *)

val step_events : t -> int
(** Number of events fired during the last major step. *)

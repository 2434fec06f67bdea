(** Block definitions: the s-function interface of the environment.

    A block couples static metadata (kind, ports, parameters, sample-time
    spec, feedthrough and type information — everything the code generator
    needs) with a behaviour factory producing the simulation callbacks
    (everything the MIL engine needs). This split mirrors the paper's
    architecture where each Simulink block is an s-function for simulation
    plus a TLC script for code generation (§3). *)

(** How an output port's data type is derived. *)
type out_type =
  | Fixed_type of Dtype.t  (** statically known *)
  | Same_as of int  (** copies the type of input port [i] *)
  | Type_fn of (Dtype.t option array -> Dtype.t option)
      (** computed from (partially) known input types; [None] when not yet
          determinable during fixpoint propagation *)

(** Instantiation context handed to the behaviour factory. *)
type ctx = {
  base_dt : float;  (** fundamental step of the compiled model *)
  block_dt : float;  (** resolved period of this block; 0. for continuous *)
  fire : int -> unit;
      (** fire the block's event output port [k]; the engine immediately
          executes the function-call group wired to it *)
  in_dtypes : Dtype.t array;  (** resolved input port types *)
  out_dtypes : Dtype.t array;  (** resolved output port types *)
}

(** A block's continuous-time float kernel. The engine owns the
    continuous states: it packs every owner's states into one vector,
    gives each owner a planned offset [off] in it, and hands the kernel
    whichever vector holds the states being evaluated (the integrated
    state or an RK4 stage state). Inputs [u] and outputs [y] are floats,
    indexed by port, in engine-owned arrays valid only during the call.
    A kernel keeps no state of its own. *)
type kernel = {
  x0 : float array;
      (** initial conditions; its length is the number of continuous
          states ([[||]] for a stateless kernel). The engine writes them
          at creation and at [Sim.reset], and saves and restores the
          states with its vector: the behaviour's [reset] and [save] do
          not see them. *)
  outputs : float array -> int -> float array -> float array -> unit;
      (** [outputs x off u y] writes every output into [y] from the
          states at [x.(off) ..] and the inputs [u]. *)
  deriv : float array -> float array -> int -> float array -> float array -> unit;
      (** [deriv tc x off u dx] writes d/dt of the states at
          [x.(off) ..] into [dx.(off) ..], at the time [tc.(0)]: the
          solver's stage-time cell, read in place so that no float is
          boxed per stage. Never called for a stateless kernel. *)
}

(** Simulation behaviour of one block instance. All arrays indexed by
    port. The input array handed to [out] and [update] is owned by the
    engine, which refills it before every call: it is valid only during
    the call, and a behaviour must copy what it keeps. *)
type beh = {
  out : minor:bool -> time:float -> Value.t array -> Value.t array;
      (** compute outputs from inputs; [minor] marks solver sub-steps where
          discrete state must not be touched. Not called for a behaviour
          with a [kernel]. *)
  update : time:float -> Value.t array -> unit;
      (** advance discrete state after all outputs of the step are up.
          The engine never calls [no_beh_state]'s, which does nothing. *)
  kernel : kernel option;
      (** the float kernel, which the engine evaluates in place of [out]
          at every step and every solver stage; the only way to own
          continuous states *)
  reset : unit -> unit;  (** back to initial conditions *)
  save : unit -> unit -> unit;
      (** [save ()] captures the behaviour's current state — everything
          [reset] would overwrite — and returns a restorer that puts that
          state back. The restorer can be called any number of times,
          after any steps or resets in between, and the behaviour then
          continues bit-identically to how it continued from the capture.
          A behaviour that overrides [reset] must override [save] too
          ([Sim.save] refuses a model that holds one that does not); the
          stateless default captures nothing. *)
}

(** Static block definition. *)
type spec = {
  kind : string;  (** block type tag, the codegen dispatch key *)
  params : Param.t;
  n_in : int;
  n_out : int;
  feedthrough : bool array;
      (** per input: does it influence outputs within the same step? *)
  out_types : out_type array;
  sample : Sample_time.spec;
  event_outs : string array;  (** names of event (function-call) outputs *)
  make : ctx -> beh;
}

val stateless :
  kind:string ->
  ?params:Param.t ->
  n_in:int ->
  n_out:int ->
  ?out_types:out_type array ->
  ?sample:Sample_time.spec ->
  (ctx -> Value.t array -> Value.t array) ->
  spec
(** Convenience constructor for memoryless feedthrough blocks: [f] maps
    inputs to outputs. Default sample time [Inherited]; default output
    types [Same_as 0] (or [Fixed_type Double] for sources). *)

val no_beh_state : beh
(** A behaviour skeleton with no state and identity-free callbacks, to be
    overridden with [{no_beh_state with out = ...}]. *)

val pp_spec : Format.formatter -> spec -> unit

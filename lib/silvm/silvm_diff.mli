(** MIL <-> SIL differential execution.

    Runs the same compiled diagram through the simulation engine and
    through the generated application in lock-step, feeding
    both the identical sensor stimulus each control period, and reports
    the first step/signal where they disagree. This is the back-to-back
    model-versus-code check the paper's MIL->PIL chain implies but never
    mechanises: every block output of every step is compared, so a
    codegen bug surfaces with the block name and both values in hand. *)

type float_mode =
  | Exact  (** IEEE equality; +0/-0 identified, NaN equal to NaN *)
  | Ulp of int  (** tolerate a few representable values of drift *)

type engine =
  | Interp  (** the reference engine, {!Mir_eval} on the lifted MIR *)
  | Compiled  (** closure-compiled execution (the default) *)
  | Both
      (** tri-lockstep: MIL vs compiled, plus a shadow reference engine
          the compiled engine must match bit-for-bit; an engine mismatch is
          reported as a divergence with [d_mil] prefixed ["interp:"] *)

type divergence = {
  d_step : int;
  d_time : float;
  d_block : string;
  d_port : int;
  d_mil : string;  (** the engine's value, printed exactly *)
  d_sil : string;  (** the SIL engine's value, printed exactly *)
  d_faults : string list;
      (** names of the injected faults active at the divergence step
          (empty when no injector was armed) *)
}

type report = {
  steps_run : int;  (** lock-steps completed without divergence *)
  steps_requested : int;
  signals : int;  (** block output signals compared per step *)
  divergence : divergence option;
  mil_seconds : float;  (** CPU time spent in [Sim.step] *)
  sil_seconds : float;  (** CPU time spent in the SIL engine *)
}

type plant = Plant : 'p * 'p Pil_cosim.plant_driver -> plant
(** A plant plus its PIL driver, packaged so heterogeneous plants fit
    one argument. The plant is driven from the {e SIL} actuator buffer
    (the generated application's own output), so both sides see the
    identical sensor stream. *)

type injector = {
  inj_sensors : step:int -> time:float -> int array -> int array;
      (** perturb the raw sensor codes; applied to the stream {e both}
          sides consume, so faults exercise recovery paths without
          breaking lock-step equality *)
  inj_active : time:float -> string list;
      (** fault names active at a time, for the divergence report *)
}

val run :
  ?steps:int ->
  ?float_mode:float_mode ->
  ?opt:bool ->
  ?engine:engine ->
  ?plant:plant ->
  ?stimulus:(int -> int array) ->
  ?injector:injector ->
  name:string ->
  project:Bean_project.t ->
  Compile.t ->
  report
(** Compare [steps] (default 1000) lock-steps at [float_mode] (default
    {!Exact}) on [engine] (default {!Compiled}). Sensor values come
    either from [plant] (closed loop) or from [stimulus] (raw 16-bit
    codes per sensor slot, indexed like [Target.schedule.sensor_slots]);
    with neither, source blocks drive the model on both sides. [opt]
    runs the SIL side on the MIR-optimized model unit — the differential
    run is then the bit-exactness oracle for the optimization passes. *)

(** Hardware-in-the-loop stage (§6).

    "More precise results can be obtained by the simulation of the
    complete hardware of the control unit in the loop with a simulator of
    the plant (so called hardware in the loop simulation — HIL) … the
    final version of the code is used."

    Unlike {!Pil_cosim}, nothing is redirected: the deployment build's
    execution model runs on the virtual MCU with its real peripherals —
    the TimerInt bean's {!Timer_periph} raises the periodic interrupt,
    the controller reads the {!Qdec_periph} position register and writes
    the {!Pwm_periph} duty register, whose ratio drives the plant
    continuously between interrupts. The button input is no peripheral:
    the run sets the controller's button blocks from its [button]
    closure at every step. The remaining gap to silicon is the
    block-level cycle cost model.

    The rig is shaped for the paper's servo case study (PWM out,
    quadrature + button in); the coupling callbacks keep the plant model
    generic. *)

type profile = {
  target : Machine.profile;
      (** the fold over the control ISR's jobs: release delays (timer
          tick to ISR start) and their jitter, utilisation, stack, and
          overruns (ticks that found the previous step still pending) *)
  controller_exec : float;  (** seconds per step *)
  watchdog_bites : int;
      (** expiries of the optional watchdog (0 when none is armed) *)
}

type 'p result = {
  profile : profile;
  trace : (float * (string * float) list) list;
}

val run :
  ?preemptive:bool ->
  ?button:(float -> bool) ->
  ?background_load:float ->
  ?watchdog:float ->
  mcu:Mcu_db.t ->
  schedule:Target.schedule ->
  controller:Sim.t ->
  plant:'p ->
  advance:('p -> dt:float -> duty:float -> unit) ->
  angle_of:('p -> float) ->
  observe:('p -> (string * float) list) ->
  encoder:Encoder.t ->
  periods:int ->
  unit ->
  'p result
(** The plant and the peripherals are coupled 16 times per control
    period. [background_load] (default 0) adds a competing background
    ISR consuming that fraction of the CPU, for stress runs. [watchdog]
    arms a {!Wdog_periph} with that timeout; the control step refreshes
    it exactly as generated code calls [WD1_Clear], so starved steps
    show up as bites.
    @raise Invalid_argument when the timer bean's period is unattainable
    on the MCU. *)

val servo_run :
  ?preemptive:bool ->
  ?button:(float -> bool) ->
  ?background_load:float ->
  ?watchdog:float ->
  built_mcu:Mcu_db.t ->
  schedule:Target.schedule ->
  controller:Sim.t ->
  motor:Dc_motor.params ->
  load:Load_profile.t ->
  encoder:Encoder.t ->
  periods:int ->
  unit ->
  Dc_motor.state result
(** The case-study instantiation: DC motor + ideal power stage. *)

(** The paper's case study (§7): speed control of a mechanically
    commutated DC motor.

    "The motor is actuated by a power transistor switched by a pulse
    width modulated signal from the MCU. The feedback is provided by an
    incremental rotating encoder … These signals are handled by the MCU
    counters. A few button keyboard is used to set the speed set-point
    and switch between the manual and the automatic control mode. The MCU
    is 16-bit Hybrid Controller (DSP and MCU functionality) MC56F8367."

    This module builds the whole experiment: the Processor Expert project
    (TimerInt, PWM, QuadDecoder, BitIO, AsynchroSerial beans), the
    controller sub-model with PE blocks, the plant sub-model, the single
    closed-loop model of Fig 7.1, and the PIL plant driver — shared by
    the examples, tests and the benchmark harness. *)

type variant = Float_pid | Fixed_pid
(** Controller arithmetic: ideal double, or the Q15 realisation a 16-bit
    MCU without an FPU needs (§7's fixed-point discussion). *)

type block_set = Pe_blocks | Autosar_blocks
(** Which peripheral block-set variant the controller uses (§8): blocks
    representing PE beans, or blocks representing AUTOSAR peripherals —
    "the same from the functional point of view, but they differ in HW
    settings and the API of generated code". *)

type config = {
  mcu : Mcu_db.t;
  control_period : float;  (** controller rate, s (default 1 ms) *)
  pwm_freq : float;  (** PWM carrier, Hz (default 20 kHz) *)
  encoder_lines : int;  (** IRC lines/rev (the paper's 100) *)
  variant : variant;
  setpoints : (float * float) list;  (** (time, rad/s) schedule *)
  load : Load_profile.t;
  motor : Dc_motor.params;
  baud : int;  (** PIL serial line rate *)
  with_mode_logic : bool;  (** include the manual/auto chart + button *)
  block_set : block_set;
  with_supervisor : bool;
      (** insert the {!Supervisor} safe-state block between the
          controller and the PWM, plus a WD1 watchdog bean it services *)
}

val default_config : config
(** MC56F8367, 1 kHz control, 20 kHz PWM, 100-line encoder, float PID,
    set-points 50/100/150 rad/s at 0/0.4/0.8 s, load step at 1.2 s,
    115200 baud, mode logic on. *)

type built = {
  config : config;
  project : Bean_project.t;  (** the verified PE project *)
  controller : Model.t;  (** standalone controller sub-model (codegen input) *)
  closed_loop : Model.t;  (** the single model: plant + controller inlined *)
  gains : Pid.gains;  (** the tuned speed-loop gains *)
  speed_block : string;  (** closed-loop block name carrying motor speed *)
  duty_block : string;  (** closed-loop block name carrying the PWM duty *)
  setpoint_block : string;
  supervisor_block : string option;
      (** closed-loop name of the safe-state supervisor (port 1 = mode),
          when [with_supervisor] is set *)
}

val mode_chart_factory :
  unit ->
  (time:float -> float array -> float array)
  * (unit -> unit)
  * (unit -> unit -> unit)
(** The manual/auto mode chart of the case study as a {!Chart_block}
    factory: starts in Auto, toggles on each button rising edge. *)

val plant_model : config -> Model.t
(** The standalone plant sub-model (Inport 0 = duty ratio; Outport 0 =
    shaft angle, Outport 1 = speed) — the input of the Linux simulator
    target ({!Sim_target}). *)

val build : ?config:config -> unit -> built
(** Construct and verify everything.
    @raise Invalid_argument when the bean project does not verify. *)

val faultsim_subject :
  ?config:config ->
  scenario:Fault_scenario.t ->
  unit ->
  Fault_campaign.subject * built
(** Build the servo closed loop as a fault-campaign subject: forces
    [with_supervisor] on, folds the scenario's [Load_torque] faults into
    the plant's load profile (and lists them as the subject's [loads]),
    and maps the campaign ports (sensor slot 0
    = the quadrature count, the duty junction, the supervisor mode, the
    motor speed and the set-point). *)

val mil_run :
  built -> t_end:float -> (float * float) list * (float * float) list
(** Closed-loop MIL simulation: returns the (time, speed) and
    (time, duty-ratio) trajectories.
    @raise Supervise.Bad_request when [t_end] fails
    {!Seed_sweep.horizon_steps}, before any step. *)

val mil_speed_at : built -> t_end:float -> float
(** Final speed of a MIL run (convergence checks). *)

(** The PIL-side physical plant: motor + power stage + encoder register,
    advanced by the host between packet exchanges. *)
type pil_plant

val pil_plant : built -> pil_plant
val pil_driver : built -> pil_plant Pil_cosim.plant_driver
(** Driver matching the controller's PIL slot layout (quadrature count
    and button in, PWM ratio out). [read_sensors] returns the plant's
    own array, and a period (read, apply, advance) allocates nothing. *)

val pil_speed_trace :
  (float * (string * float) list) list -> (float * float) list
(** Extract the (time, speed) series from a PIL trace. *)

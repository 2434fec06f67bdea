(** Processor-in-the-loop co-simulation (Fig 6.2).

    The host PC ("simulator PC" running the plant model generated for the
    xPC target) and the development board exchange one packet pair per
    control period over the RS-232 line: sensors down, actuators back.
    Here the development board is the {!Machine} virtual MCU executing
    the controller's generated schedule — behaviourally by stepping the
    very same compiled model through the MIL engine with peripheral
    outputs overridden from the communication buffer (what PEERT_PIL's
    generated code does), and temporally by charging the generated code's
    cycle costs, the per-byte ISR costs and the line's baud rate.

    Everything the paper says PIL reveals is measured: "the execution
    times of the implemented controller code, interrupts response times,
    sampling jitters, memory and stack requirements" (§6). *)

(** How the host side couples the plant to the link. Sensor and actuator
    arrays are indexed by the PIL buffer slots of the {!Target.schedule}
    (16-bit raw values, exactly what the wire carries). *)
type 'p plant_driver = {
  read_sensors : 'p -> time:float -> int array;
      (** the plant's sensor words now; the array may be the plant's
          own, valid until the next call *)
  apply_actuators : 'p -> int array -> unit;
  advance : 'p -> dt:float -> unit;
  observe : 'p -> (string * float) list;
      (** named probes recorded once per control period *)
}

type profile = {
  target : Machine.profile;
      (** the fold over the jobs that ran a step: their start jitter
          within the control period, CPU utilisation and stack *)
  controller_exec : float;  (** seconds per step, on the target *)
  response_latency : Stats.summary;
      (** period start to the host's receipt of the actuator reply,
          seconds *)
  comm_bytes_per_period : int;
  comm_time_per_period : float;  (** wire time of both packets, seconds *)
  overruns : int;  (** periods without a reply: the host holds the last *)
  crc_errors : int;
  sci_rx_overruns : int;
}

type result = {
  profile : profile;
  trace : (float * (string * float) list) list;
      (** per-period host observations, oldest first *)
}

val run :
  ?baud:int ->
  ?preemptive:bool ->
  ?error_rate:float ->
  ?dup_frames:bool ->
  mcu:Mcu_db.t ->
  schedule:Target.schedule ->
  controller:Sim.t ->
  plant:'p ->
  driver:'p plant_driver ->
  periods:int ->
  unit ->
  result
(** Run [periods] control periods. [baud] defaults to 115200 (the
    paper's RS-232 link; sweep it for experiment E5). [error_rate] is a
    per-byte corruption probability on the sensor frames, applied by
    {!Faulty} (seed 1, so a run replays exactly), exercising the CRC
    path. [dup_frames] transmits every sensor frame twice, exercising
    the target's sequence-number deduplication (a duplicated frame must
    not step the controller twice). [preemptive] configures the
    interrupt controller (E7 ablation). The target's SCI receive ISR
    costs 80 cycles a byte; the one that completes a frame also runs
    the step and spends 40 more starting the reply.
    @raise Invalid_argument when a period cannot even carry the two
    packets at the given baud rate (the feasibility boundary — the error
    message carries the minimum period). *)

val wire_bytes_per_period : schedule:Target.schedule -> int
(** Size of one sensor plus one actuator packet before stuffing. *)

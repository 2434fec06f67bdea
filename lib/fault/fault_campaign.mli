(** Fault campaigns: sweep a scenario over seeds on a MIL closed loop
    and measure how the safe-state supervisor rides out the fault.

    A campaign binds a scenario to a {e subject} — a closed-loop
    simulation plus the ports that carry its sensor codes, commanded
    duty, supervisor mode, measured speed and set-point — then runs it
    once per seed with a virtual MCU and watchdog alongside, each run
    starting from their power-on state, and reports recovery metrics
    per run: detection latency, recovery time
    after the fault clears, steps spent degraded / safe-stopped, the
    residual control error once nominal again, and watchdog bites. *)

type ports = {
  sensor_ports : (Model.blk * int) array;
      (** output port carrying sensor slot [i]'s raw code *)
  duty_port : (Model.blk * int) option;  (** commanded duty (float) *)
  mode_port : Model.blk * int;
      (** supervisor mode output: 0 nominal, 1 degraded, 2 safe-stop *)
  speed_port : Model.blk * int;  (** controlled variable *)
  setpoint_port : (Model.blk * int) option;
      (** reference for the residual error ([None] = reference 0) *)
}

type subject = {
  sim : Sim.t;
  ports : ports;
  mcu : Mcu_db.t;
  loads : Fault.t list;
      (** the load faults folded into the plant, as
          {!Servo_system.faultsim_subject} does: the only ones a campaign
          on this subject can apply *)
}

type run_result = {
  seed : int;
  detected : bool;
      (** the supervisor left Nominal after onset, or the watchdog bit *)
  detection_s : float option;  (** onset → first non-Nominal mode *)
  recovered : bool;
      (** back in Nominal (and staying there) after the fault cleared;
          trivially true when the fault never perturbed the loop *)
  recovery_s : float option;  (** fault clear → Nominal for good *)
  steps_degraded : int;
  steps_safestop : int;
  max_mode : int;
  residual_rms : float;
      (** RMS control error over the last eighth of the run *)
  wdog_bites : int;
}

type result = {
  scenario : Fault_scenario.t;
  t_end : float;
  period : float;
  runs : run_result list;
  failures : (int * Supervise.error) list;
      (** supervised campaigns only: seeds whose run ended in an error
          record (timeout, crash, ...) instead of metrics, in seed
          order. Empty when no policy is given. *)
  steps_per_run : int;
  wall_s : float;
}

val arm : subject -> ?seed:int -> Fault_scenario.t -> Fault_inject.t
(** Install an injector on the subject's simulation (outside a campaign —
    e.g. for a one-off faulted run). *)

val disarm : subject -> unit

val sweep :
  ?t_end:float ->
  ?seeds:int ->
  ?on_run:(run_result -> unit) ->
  ?policy:Supervise.policy ->
  ?jobs:int ->
  ?track_base:int ->
  scenario:Fault_scenario.t ->
  (unit -> subject) ->
  result
(** Run the campaign through {!Seed_sweep.run}: [seeds] runs (seeds
    1..N, default 5) of [t_end] seconds (default 2.0) each, every run
    starting from a reset simulation — or from a checkpoint of one.
    The watchdog times out after 8 control periods; it is serviced once
    per control step unless the scenario suppresses it; injected overruns stretch the
    step's cycle budget so a long enough burst starves the watchdog
    exactly as it would on the bench.

    - With [jobs] (default 1) at 1 every run uses one subject built on
      this domain. Above 1 the seeds shard over up to [jobs] domains
      ({!Seed_sweep.run}), each other domain building its own subject
      through the factory. Results merge in seed order, so the report
      equals the sequential one field-for-field except [wall_s] (set
      [ECSD_WALL_ZERO=1] to zero that too and compare bytes).
    - A run is the same bits for every seed up to the first step at
      which a fault that samples the injector's RNG is on
      ({!Fault_inject.draws}); for a scenario with no such fault that is
      the whole run. A domain simulates that stretch once per sweep: its
      first seed runs in full and, once it completes, leaves a
      checkpoint there ({!Sim.save}, {!Machine.save} and
      {!Wdog_periph.save} of the domain's one virtual MCU, the run
      metrics so far, {!Fault_inject.save}, the stretch's flight
      events); every later seed on that domain re-records those events
      under its own track, restores the injector, the simulation and
      the MCU, and simulates only the rest. A scenario with no such
      fault runs on this domain whatever [jobs] is: its later seeds
      simulate nothing, so another domain would only repeat the run.
      Results, flight bundles and the [fault.*] counters are those of
      simulating every step; [sim.steps] counts the steps simulated.
    - [on_run] fires after each completed run, on the domain that ran
      it, one call at a time — the CLI uses it to keep a partial report
      it can flush if a later run dies.
    - [policy] turns on supervised execution: each seed's run gets a
      {!Supervise} deadline envelope, a failing seed lands in
      [failures] instead of aborting the campaign, and [on_run] fires
      only for successful runs. A seed's failure is a function of the
      seed, so the report stays byte-identical whatever [jobs] is
      (unless a deadline, a wall-clock limit, fires).
      Without a [policy] any exception propagates.
    - Seed [s] records its flight track under id [track_base + s]
      ([track_base] defaults to 0), so campaigns run side by side in one
      process (serve's jobs) keep their bundles apart.

    @raise Supervise.Bad_request when [seeds < 1], when
    [jobs > Exec_pool.max_jobs], when [t_end] is not finite or shorter
    than one control period, or when a sensor fault's slot is not one of
    the subject's [sensor_ports], an actuator fault meets a subject
    without a [duty_port] or a load fault is not one of the subject's
    [loads] ({!Fault_scenario.check_hooks}). *)

val run :
  ?t_end:float ->
  ?seeds:int ->
  ?policy:Supervise.policy ->
  ?track_base:int ->
  scenario:Fault_scenario.t ->
  subject ->
  result
(** {!sweep} on this domain, over the one given subject. *)

val throughput : ?scenario:Fault_scenario.t -> steps:int -> subject -> float
(** Steps per second over a fresh run, armed with [scenario] when given
    and unarmed otherwise: perfbench's [fault.armed_ratio] measures the
    injection hooks' overhead with it. *)

val all_detected : result -> bool
val all_recovered : result -> bool

val to_json : model:string -> result -> Bench_json.t
(** The [FAULT_<model>.json] document (schema ["ecsd-fault-1"]): per-run
    rows plus detection/recovery aggregates. *)

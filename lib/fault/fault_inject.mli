(** Seeded fault injector: evaluates a {!Fault_scenario.t} against
    simulation time and perturbs the signals that cross the
    controller/world boundary.

    One injector = one armed run. All randomness (noise amplitudes,
    glitch occurrences) comes from a SplitMix64 stream derived from the
    seed, so a campaign run is replayed exactly by re-arming with the
    same seed. The injector itself is engine-agnostic: the MIL engine
    attaches it through {!sim_hook}, the SIL/PIL harnesses call
    {!sensor} / {!overrun_cycles} / {!wdog_suppressed} directly.

    The per-query activity scan is hoisted out of the hot path: the
    injector caches the scenario-ordered active sublist together with
    the exact window edge ({!Fault.next_transition}) up to which it
    stays valid, so an armed run pays one filter per window transition
    (one-shot faults) or per step (periodic faults) instead of one
    fold over the whole scenario per port write. The cache changes
    neither results nor the RNG stream. *)

type t

val arm : ?seed:int -> Fault_scenario.t -> t
(** Default seed 1. *)

val scenario : t -> Fault_scenario.t
val seed : t -> int

val draws : Fault.kind -> bool
(** Whether {!sensor} applies the kind by sampling the RNG
    ([Sensor_noise], [Encoder_glitch]). An injector draws nothing before
    the first fault of such a kind turns on, so up to that instant every
    seed's run is the same. *)

type saved
(** What a run has left in its injector, but the RNG: the stuck-sensor
    table (the last code {!sensor} returned per slot while no stuck
    fault was active), the active-set cache, and the run's tallies of
    the four [fault.*] counters. *)

val save : t -> saved

val restore : t -> saved -> unit
(** Make an injector armed with the same scenario resume where the saved
    one stood — valid while the saved run has drawn nothing, i.e. before
    the first {!draws} fault turned on. The saved tallies are added to
    the [fault.*] counters, so the restored stretch counts as if run. *)

val sensor : t -> slot:int -> time:float -> int -> int
(** Perturb one raw sensor code. Applies every active sensor fault bound
    to [slot], in scenario order. [Sensor_stuck] freezes the code at the
    last value this function returned for the slot while the fault was
    inactive. The result is not masked — callers that model a 16-bit
    peripheral register mask it themselves. *)

val duty : t -> time:float -> float -> float
(** Perturb the commanded actuator duty (jam / saturation). *)

val load_torque : t -> time:float -> float
(** Extra shaft load torque at [time] (sum of active [Load_torque]). *)

val overrun_cycles : t -> time:float -> int
(** Extra CPU cycles the control step burns at [time] (sum of active
    [Overrun] faults). *)

val wdog_suppressed : t -> time:float -> bool
(** Whether the watchdog service call is lost at [time]. *)

val replay_timing : t -> time:float -> int * bool
(** {!overrun_cycles} and {!wdog_suppressed} at [time], read from the
    fault windows alone: no Flight fire/clear event, no counter, and the
    active-set cache is left as it is — to re-advance a virtual MCU over
    a stretch whose events and counts a {!restore} already carries. *)

val comm_config : t -> Faulty.config option
(** The serial-line fault model, if the scenario carries one ([Comm]
    faults arm the line for the whole run — the window is ignored). *)

val active_names : t -> time:float -> string list

val sim_hook :
  t ->
  sensor_ports:(Model.blk * int) array ->
  ?duty_port:Model.blk * int ->
  unit ->
  ((Model.blk * int) * (time:float -> Value.t -> Value.t)) list
(** The per-port hooks to install with {!Sim.set_fault_hook}:
    [sensor_ports.(slot)] is the output port carrying sensor slot
    [slot]'s raw code, [duty_port] the commanded duty. Returns [[]] for
    an empty scenario (nothing to arm). *)

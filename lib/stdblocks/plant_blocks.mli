(** Plant blocks wrapping the physical models of {!Dc_motor} and friends
    into the block diagram — the "plant subsystem" of Fig 7.1. *)

val dc_motor :
  ?params:Dc_motor.params -> ?load:Load_profile.t -> unit -> Block.spec
(** Continuous DC-motor block. Input 0: armature voltage (V). Outputs:
    0 speed (rad/s), 1 shaft angle (rad), 2 armature current (A). The load
    torque profile is part of the block. *)

val power_stage : Power_stage.t -> Block.spec
(** Inputs: 0 duty ratio (0..1), 1 armature current (A, for the resistive
    drop). Output: averaged bridge voltage (V). *)

val thermal_plant : ?params:Thermal.params -> unit -> Block.spec
(** Discrete-exact first-order thermal plant; input heater power (W),
    output temperature (degC). Runs at the model base rate. *)

(** Load-torque profiles applied to the motor shaft during experiments. *)

type t =
  | No_load
  | Constant of float  (** constant torque, N.m *)
  | Viscous of float  (** torque = k * w *)
  | Step of { at : float; torque : float }
      (** torque applied from time [at] on — the disturbance-rejection
          workload of experiment E1 *)
  | Pulse of { start : float; stop : float; torque : float }
  | Periodic of { at : float; every : float; duration : float; torque : float }
      (** torque applied in the windows [[at + k*every, at + k*every +
          duration)], k >= 0: exactly when a {!Fault} with [every] is
          active ([time >= at && Float.rem (time - at) every < duration]) *)
  | Sum of t list

val torque : t -> time:float -> w:float -> float
(** Load torque at a simulation time and shaft speed. *)

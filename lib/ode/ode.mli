(** Fixed- and adaptive-step ODE solvers.

    The MIL simulation engine integrates the continuous states of the plant
    model with one of these solvers, exactly as Simulink's fixed-step
    solvers do during the paper's closed-loop simulation (Fig 7.1). The
    derivative function [f t x] returns dx/dt; states are flat float
    arrays. *)

type deriv = float -> float array -> float array

type method_ = Euler | Heun | Rk4
(** Explicit fixed-step methods (Simulink ode1, ode2, ode4). *)

val step : method_ -> deriv -> float -> float array -> float -> float array
(** [step m f t x h] advances [x] from [t] to [t +. h]. The input array is
    not mutated. *)

type rk4_ws
(** Caller-owned RK4 scratch for states of one size: the four stage
    slopes and the stage state. *)

val rk4_workspace : int -> rk4_ws
(** Workspace for states of length [n]. *)

val rk4_into :
  rk4_ws -> (float -> float array -> float array -> unit) -> float ->
  float array -> float -> unit
(** [rk4_into ws f t x h] advances [x] in place from [t] to [t +. h] by
    classical RK4, allocating nothing itself. [f t x dx] writes dx/dt at
    [(t, x)] into [dx]; the [x] it is given (the caller's array or the
    workspace's stage state) is only valid during the call. [step Rk4]
    is this function on a fresh workspace, bit for bit. *)

val integrate :
  method_ ->
  deriv ->
  t0:float ->
  t1:float ->
  h:float ->
  float array ->
  (float * float array) list
(** Dense fixed-step integration from [t0] to [t1]; returns the trajectory
    including both endpoints. The final step is shortened to land exactly
    on [t1]. *)

val rkf45 :
  deriv ->
  t0:float ->
  t1:float ->
  ?h0:float ->
  ?tol:float ->
  ?h_min:float ->
  float array ->
  (float * float array) list
(** Adaptive Runge–Kutta–Fehlberg 4(5) with per-step error control
    (Simulink ode45 equivalent), used to produce reference trajectories
    against which the fixed-step results are validated. *)

val order : method_ -> int
(** Classical convergence order of a method. *)

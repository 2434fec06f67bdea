(** Electro-mechanical model of a mechanically commutated DC motor.

    The plant of the paper's case study (§7): the motor is actuated by a
    power transistor switched by a PWM signal, the feedback is an
    incremental rotary encoder. The standard two-state model is

    {v
      La * di/dt = u - Ra*i - Ke*w
      J  * dw/dt = Kt*i - b*w - tau_load
    v}

    with electrical state [i] (armature current, A) and mechanical state
    [w] (angular velocity, rad/s). *)

type params = {
  ra : float;  (** armature resistance, Ohm *)
  la : float;  (** armature inductance, H *)
  ke : float;  (** back-EMF constant, V.s/rad *)
  kt : float;  (** torque constant, N.m/A *)
  j : float;  (** rotor + load inertia, kg.m^2 *)
  b : float;  (** viscous friction, N.m.s/rad *)
  u_max : float;  (** supply voltage available to the power stage, V *)
}

val default : params
(** A small 24 V servo motor parameterisation (Maxon-class), chosen so the
    closed loop at 1 kHz sampling reproduces the dynamics regime of the
    paper's MC56F8367 servo demo. *)

type state = { i : float; w : float; theta : float }
(** Current, angular velocity, and integrated shaft angle (rad). *)

val initial : state

(** {2 In-place integration}

    The motor state as a [float array] of length 3, advanced in place:
    current at [x_i], speed at [x_w], shaft angle at [x_theta]. *)

val x_i : int
val x_w : int
val x_theta : int

val deriv_into :
  params -> u:float -> tau_load:float -> float array -> float array -> unit
(** [deriv_into p ~u ~tau_load x dx] writes [d/dt] of the state [x] at
    input voltage [u] and load torque [tau_load] into [dx]: [di/dt],
    [dw/dt] and [dtheta/dt = w]. *)

type stepper
(** One motor's RK4 workspace and right-hand side, built once: an
    {!advance} allocates nothing of its own. *)

val stepper : params -> stepper

val advance :
  stepper -> u:float -> tau_load:float -> h:float -> float array -> unit
(** [advance st ~u ~tau_load ~h x] advances the state [x] by [h] seconds
    in place, with the input held constant (the zero-order-hold coupling
    a PWM power stage provides). Integrates [theta] alongside the two
    dynamic states by classical RK4 ({!Ode.rk4_into}) on
    {!deriv_into}. *)

val step : params -> u:float -> tau_load:float -> h:float -> state -> state
(** {!advance} on a fresh stepper and a copy of the state, bit for bit. *)

val steady_state_speed : params -> u:float -> tau_load:float -> float
(** Analytic steady-state speed for a constant voltage, used as a test
    oracle: [w_ss = (Kt*u - Ra*tau) / (Ra*b + Ke*Kt)]. *)

val electrical_time_constant : params -> float
val mechanical_time_constant : params -> float

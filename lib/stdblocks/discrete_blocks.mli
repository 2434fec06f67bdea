(** Discrete-time blocks (states advance at sample hits). *)

val unit_delay : ?init:float -> ?period:float -> unit -> Block.spec
(** One-sample delay, the fundamental state element; breaks algebraic
    loops (no direct feedthrough). Sample time inherited unless [period]
    is given. *)

val zoh : ?offset:float -> period:float -> unit -> Block.spec
(** Zero-order hold: samples its input at [period] (with an optional
    phase [offset] within the period) and holds it — the rate-transition
    block between plant and controller rates. *)

val discrete_integrator :
  ?k:float -> ?init:float -> ?lo:float -> ?hi:float -> unit -> Block.spec
(** Forward-Euler integrator [y(k) = y(k-1) + K*Ts*u(k-1)], with optional
    output clamping. *)

val discrete_derivative : ?k:float -> unit -> Block.spec
(** Difference quotient [K * (u(k) - u(k-1)) / Ts]. *)

val discrete_tf : num:float array -> den:float array -> Block.spec
(** SISO z-domain transfer function in direct form II transposed (see
    {!Ztransfer}); direct feedthrough iff [num] has the full length. *)

val pid : ts:float -> Pid.gains -> Block.spec
(** Floating-point PID with anti-windup (see {!Pid}), two inputs
    (set-point, process value), one output. Runs at its own period
    [ts]. *)

val fix_pid :
  ts:float ->
  in_scale:float ->
  out_scale:float ->
  Pid.gains ->
  Block.spec
(** Bit-exact fixed-point PID (see {!Pid.Fixpoint}) — the controller the
    code generator deploys on a 16-bit MCU without an FPU (§7). *)

val rate_limiter : rising:float -> falling:float -> Block.spec
(** Slew-rate limiter in units per second. *)

val moving_average : int -> Block.spec
(** FIR average over the last [n] samples. *)

val encoder_speed : counts_per_rev:int -> Block.spec
(** Angular-velocity estimate (rad/s) from successive position counts of a
    quadrature decoder, the measurement path of the servo case study.
    Input: count (integer); output: speed (double). *)

val delay_n : int -> Block.spec
(** [delay_n n] delays its input by [n] samples — models input/output
    latency in the E6 timing experiments. *)

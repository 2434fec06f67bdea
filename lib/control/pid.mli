(** Discrete PID controller with anti-windup.

    The controller form used throughout the case study: parallel PID with
    derivative filtering and back-calculation anti-windup, discretised with
    backward Euler at sample period [ts]:

    {v u = Kp*e + Ki*Ts*sum(e) + Kd/Ts*(ef - ef_prev) v}

    Both a floating-point and a Q15 fixed-point execution of the very same
    gains are provided so that experiment E2 can compare them on equal
    terms. *)

type gains = {
  kp : float;
  ki : float;  (** integral gain (1/s) *)
  kd : float;  (** derivative gain (s) *)
  n : float;  (** derivative filter coefficient; the filtered derivative
                  pole is at [n] rad/s. 0 disables filtering. *)
  u_min : float;
  u_max : float;  (** actuator saturation limits, for anti-windup *)
}

val gains : ?kd:float -> ?n:float -> ?u_min:float -> ?u_max:float ->
  kp:float -> ki:float -> unit -> gains
(** Build gains; defaults: [kd = 0], [n = 100], limits infinite. *)

type t
(** Mutable controller state (integrator + derivative filter memory). *)

val create : ts:float -> gains -> t
val reset : t -> unit

val save : t -> unit -> unit
(** [save t] captures the controller's state (integrator, previous
    error and derivative) and returns a restorer for it. *)

val ts : t -> float

val step : t -> sp:float -> pv:float -> float
(** One control period: set-point [sp], process value [pv]; returns the
    saturated actuator command. Anti-windup by conditional integration. *)

(** Fixed-point execution of the same law. Signals are scaled so that the
    physical range [(-scale, +scale)] maps onto the fixed-point range
    [(-1, 1)]: Q15, the native regime of the 16-bit DSP of §7.
    Coefficients and accumulators are Q16.16 in an int32. *)
module Fixpoint : sig
  type fx

  val sig_frac_bits : int
  (** 15: a signal is Q15, a raw int16. *)

  val coef_frac_bits : int
  (** 16: coefficients and accumulators are Q16.16, a raw int32. *)

  val sig_range : float * float
  (** The real span of a Q15 signal, [(-1, 32767/32768)]. *)

  (** The arithmetic of {!step}, rule for rule as the generated C states
      it ([pe_cast_i16], [pe_mul_shift], [pe_sat_add32]). *)

  val quantize_sig : float -> int
  (** A real number as a raw Q15 value: [x * 2^15] rounded half away
      from zero and saturated into [[-32768, 32767]].
      @raise Invalid_argument on NaN. *)

  val quantize_coef : float -> int
  (** The same rule into Q16.16, saturated into the int32 range. *)

  val mul_shift : int -> int -> int -> int
  (** [mul_shift a b s] is [(a*b + 2^(s-1)) asr s] converted to int32:
      a tie rounds up, an overflow wraps. [a*b] must fit in 62 bits. *)

  val sat_add32 : int -> int -> int
  (** Addition saturated at the int32 bounds. *)

  val create :
    ts:float -> in_scale:float -> out_scale:float -> gains -> fx
  (** [in_scale] normalises [sp]/[pv], [out_scale] denormalises the
      command. Gains are quantised to Q16.16 at build time, exactly as
      the code generator bakes them into flash constants. *)

  val reset : fx -> unit

  val save : fx -> unit -> unit
  (** As {!Pid.save}. *)

  val step : fx -> sp:float -> pv:float -> float
  (** Physical-unit interface; all internal arithmetic is on raw
      integers, operation for operation as the generated C computes it:
      the error rounds half away from zero and saturates into Q15 (a NaN
      raises [Invalid_argument]), a product [a*b] shifted right by [s]
      is [(a*b + 2^(s-1)) asr s] converted to int32 (a tie rounds up, an
      overflow wraps), and additions saturate at the int32 bounds. *)

  val quantized_gains : fx -> float * float * float
  (** The [kp, ki, kd] values actually realised after quantisation. *)

  type raw_coefficients = {
    kp_raw : int;
    ki_ts_raw : int;
    kd_c1_raw : int;
    d_decay_raw : int;
    u_min_raw : int;
    u_max_raw : int;
    coef_frac_bits : int;  (** fractional bits of the coefficient format *)
    sig_frac_bits : int;  (** fractional bits of the signal format *)
  }

  val raw_coefficients : fx -> raw_coefficients
  (** The integer constants the code generator bakes into the generated
      fixed-point controller, guaranteeing bit-exact agreement between
      simulation and target code. *)
end

(** PWM generator channel.

    A counter/compare channel: the modulo register fixes the PWM period,
    the compare register the duty. Since the electrical model couples
    through the cycle-averaged voltage (see {!Power_stage}), the channel
    exposes its exact duty ratio rather than edge events. *)

type t

val create : Machine.t -> channel:int -> unit -> t
val set_period_counts : t -> int -> unit
(** @raise Invalid_argument beyond the counter width. *)

val set_ratio16 : t -> int -> unit
(** The Processor Expert PWM bean's [SetRatio16] method: duty as
    0..65535 mapped onto the period register. *)

val set_frequency : t -> hz:float -> unit
(** Pick the period register for a desired PWM frequency.
    @raise Invalid_argument if unattainable within the counter width. *)

val duty_ratio : t -> float
(** Current ratio 0..1. *)

val frequency : t -> float
val period_counts : t -> int
val duty_counts : t -> int
val resolution_bits : t -> int
(** Effective duty resolution at the current period,
    [log2 period_counts]. *)

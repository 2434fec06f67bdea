(** On-chip resource allocator.

    Tracks which pins, timer channels, ADC channels, PWM channels and SCI
    ports the beans of a project have claimed, and rejects conflicts —
    the "useable resources for the needed functionality" bookkeeping of
    §4. Allocation is first-fit when the caller does not pin a specific
    unit. *)

type t
type kind =
  | Timer_ch
  | Adc_ch
  | Pwm_ch
  | Dac_ch
  | Sci_port
  | Pin of string
  | Qdec_unit

val create : Mcu_db.t -> t
val mcu : t -> Mcu_db.t

val claim :
  t -> owner:string -> kind -> ?unit_index:int -> unit -> (int, string) result
(** Claim one unit of a resource for a bean. [unit_index] pins an exact
    channel/port; otherwise the lowest free one is chosen. Pins have no
    index (pass the name in the kind); the returned int is 0 for them.
    Errors name both the resource and the current owner. *)

val release_owner : t -> string -> unit
(** Return everything a bean held (bean deletion in the project). *)

val claims : t -> (string * string) list
(** [(resource description, owner)] pairs, for the project report. *)

(** Watchdog timer.

    The last-line safety mechanism of every production ECU: software must
    refresh ("clear") the watchdog within its timeout or the chip resets.
    In the virtual MCU a bite invokes a callback (and is counted) instead
    of resetting, so co-simulations can both detect overruns the way the
    silicon would and keep running to report them. *)

type t

val create : Machine.t -> timeout:float -> unit -> t
(** [timeout] in seconds. @raise Invalid_argument when non-positive. *)

val enable : t -> unit
(** Arm the watchdog; the countdown starts now. *)

val disable : t -> unit
val refresh : t -> unit
(** The service operation (the HAL's [Clear] method). Ignored while
    disabled. *)

val save : t -> unit -> unit
(** Capture the watchdog now and return its restorer, callable any
    number of times. Its pending expiry is an event on the machine, so
    restore the machine from a capture taken at the same instant
    ({!Machine.save}). *)

val on_bite : t -> (unit -> unit) -> unit
(** Called at each expiry (the reset the real part would perform); the
    watchdog re-arms afterwards. *)

val bites : t -> int
val enabled : t -> bool
val timeout_cycles : t -> int

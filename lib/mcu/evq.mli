(** Event queue of the MCU discrete-event simulator: a binary min-heap of
    actions keyed by (cycle, insertion order), so simultaneous events fire
    in FIFO order. *)

type t

val create : unit -> t
val is_empty : t -> bool
val size : t -> int

val push : t -> cycle:int -> (unit -> unit) -> unit
(** Schedule an action at an absolute cycle. *)

val peek_cycle : t -> int option
(** Cycle of the earliest event. *)

val pop : t -> (int * (unit -> unit)) option
(** Remove and return the earliest event. *)

val clear : t -> unit

val save : t -> unit -> unit
(** Capture the queue now and return its restorer, callable any number
    of times: each call puts back the pending events and the insertion
    counter, so ties after it break exactly as after the capture. *)

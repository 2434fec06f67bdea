(** Event queue of the MCU discrete-event simulator: a binary min-heap of
    events keyed by (cycle, insertion order), so simultaneous events fire
    in FIFO order.

    An event is two ints: the handler it runs, a number its owner gives
    meaning to (the {!Machine} keeps the handlers), and an argument the
    handler is called with. The heap keeps cycles, insertion numbers,
    handlers and arguments in four parallel arrays, so pushing and
    popping allocate nothing once the arrays have grown to the queue's
    peak size. *)

type t

val create : unit -> t
val is_empty : t -> bool

val push : t -> cycle:int -> handler:int -> int -> unit
(** [push t ~cycle ~handler arg] schedules handler [handler] to run with
    [arg] at an absolute cycle. *)

val peek_cycle : t -> int
(** Cycle of the earliest event; [max_int] when the queue is empty. *)

val top_handler : t -> int
val top_arg : t -> int
(** The earliest event's handler and argument.
    @raise Invalid_argument on an empty queue. *)

val pop : t -> unit
(** Remove the earliest event. @raise Invalid_argument on an empty
    queue. *)

val save : t -> unit -> unit
(** Capture the queue now and return its restorer, callable any number
    of times: each call puts back the pending events and the insertion
    counter, so ties after it break exactly as after the capture. The
    capture is a copy of the heap's arrays. *)

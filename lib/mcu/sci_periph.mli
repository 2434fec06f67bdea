(** SCI / UART asynchronous serial channel.

    The PIL transport of §6: "the communication between the simulator PC
    and the development board is provided by RS232 asynchronous serial
    line". Timing is modelled per 10-bit frame (start + 8 data + stop) at
    the configured baud rate; transmit is double-buffered with a shift
    register, receive raises a callback per frame and records overruns
    when software fails to read in time. *)

type t

val create : Machine.t -> ?fifo_depth:int -> baud:int -> unit -> t
(** [fifo_depth] is the software TX queue size (default 64), a ring
    allocated once. *)

val baud : t -> int
val byte_cycles : t -> int
(** CPU cycles per 10-bit frame at the configured baud rate. *)

val byte_seconds : t -> float

(** {2 Transmit} *)

val send_byte : t -> int -> bool
(** Queue one byte (0..255); [false] when the FIFO is full (byte lost,
    counted). Transmission proceeds frame by frame on the machine's
    clock. *)

val send_sub : t -> Bytes.t -> pos:int -> len:int -> int
(** Queue the [len] bytes of the buffer from [pos]; returns how many
    were accepted. *)

val on_tx_byte : t -> (int -> unit) -> unit
(** Wire-side callback: fired when a frame has fully left the shift
    register, with the byte — the hook the serial-line model attaches
    to. *)

val tx_busy : t -> bool
val tx_lost : t -> int

(** {2 Receive} *)

val deliver_byte : t -> int -> unit
(** Called by the line model when a frame arrives at the receiver pin;
    the data register loads and the RX callback fires after one frame
    time. *)

val on_rx : t -> (int -> unit) -> unit
(** Per-frame receive callback (normally raising the RX interrupt). *)

val read_data : t -> int
(** Read the last received byte, clearing the full flag. *)

val rx_overruns : t -> int

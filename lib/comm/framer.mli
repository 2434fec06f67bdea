(** Receive-side framing state machine.

    Feed it one byte at a time (from the SCI receive interrupt); it
    unstuffs, validates the CRC and delivers whole packets. Malformed
    frames are dropped and counted rather than propagated — on a real
    RS-232 link noise hits are routine. *)

type t

val create : on_packet:(Packet.t -> unit) -> t
(** [on_packet] receives the framer's own frame buffer, valid until the
    next byte is fed: copy what must outlive it ({!Packet.blit}). *)

val feed : t -> int -> unit
(** Process one received byte. *)

val feed_sub : t -> Bytes.t -> pos:int -> len:int -> unit
val feed_all : t -> Bytes.t -> unit

val crc_errors : t -> int
val dropped_bytes : t -> int
(** Bytes discarded while hunting for a start flag. *)

val packets_ok : t -> int
val reset : t -> unit

(** PIL link packet format.

    An HDLC-style byte framing over the RS-232 line: a start flag, byte
    stuffing for transparency, and a CRC-16 trailer. One packet carries
    one simulation step's worth of signals in each direction (§6: the
    plant and controller "exchange the simulation data at the end of each
    simulation step"). Wire layout before stuffing:

    {v SOF | type | seq | len | payload[len] | crc_hi | crc_lo v}

    A packet is a reusable frame buffer: its payload has room for the
    largest payload, and the link encodes into and decodes from frames
    and wire buffers allocated once. *)

type t = {
  mutable ptype : int;
  mutable seq : int;
  mutable len : int;  (** payload bytes *)
  payload : Bytes.t;
      (** {!max_payload} bytes; the first [len] are the payload *)
}

val sof : int
(** 0x7E frame delimiter. *)

val esc : int
(** 0x7D escape; the following byte is XORed with 0x20. *)

(** Conventional packet types of the PIL protocol: *)

val ptype_sensor : int
(** host -> target: sensor/peripheral inputs. *)

val ptype_actuator : int
(** target -> host: actuator outputs. *)

val ptype_event : int
(** asynchronous event notification. *)

val ptype_sync : int
(** step synchronisation / handshake. *)

val max_payload : int
(** 255: the length field is one byte. *)

val max_wire : int
(** Wire bytes of the largest packet with every byte stuffed: a buffer
    this long holds any encoding. *)

val create : unit -> t
(** An empty frame (type, sequence and length 0). *)

val make : ptype:int -> seq:int -> string -> t
(** A fresh frame carrying the given payload.
    @raise Invalid_argument if it exceeds {!max_payload} bytes. *)

val blit : src:t -> dst:t -> unit
(** Copy a frame's type, sequence and payload into another. *)

val encode_into : t -> Bytes.t -> int
(** Serialise to wire bytes (stuffed, CRC appended) at the start of the
    buffer, returning their count; {!max_wire} bytes always suffice.
    @raise Invalid_argument if [len] is outside 0..255, the type or the
    sequence number outside 0..255, or the buffer too short. *)

val encode : t -> Bytes.t
(** [encode_into] a fresh buffer of exactly the wire length. *)

val wire_length : t -> int
(** Number of wire bytes [encode] produces (the comm-overhead metric). *)

(** {2 Payload packing (big endian)} *)

val set_u16 : t -> int -> int -> unit
(** [set_u16 p off v] writes [v]'s low 16 bits at byte offset [off],
    leaving [len] alone. *)

val get_u16 : t -> int -> int
(** The 16-bit value at byte offset [off].
    @raise Invalid_argument past the payload's [len] bytes. *)

val u16_to_signed : int -> int
(** Reinterpret a 16-bit value as two's-complement. *)

val signed_to_u16 : int -> int

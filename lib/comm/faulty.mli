(** Seeded fault injection for the framed RS-232 byte stream.

    Wraps any byte sink with a deterministic noise source: each byte
    pushed through the wrapper may be corrupted, dropped, duplicated or
    held back one byte (reordered), with independent per-byte
    probabilities drawn from a {!Splitmix} generator. Every run with the
    same seed injects the same fault pattern, so a CRC/framer failure
    found under noise replays exactly.

    This is the one line-noise model of the serial link: {!Pil_cosim}'s
    [error_rate] sends its bytes through it, and the comm tests use it
    to prove the CRC16 + framing layer rejects (never mis-parses)
    damaged frames and recovers on the next clean one. *)

type config = {
  corrupt_rate : float;
      (** probability a byte is corrupted (XORed with [0x55]); one draw
          per byte *)
  drop_rate : float;  (** probability a byte vanishes *)
  dup_rate : float;  (** probability a byte is sent twice *)
  delay_rate : float;
      (** probability a byte is held back and emitted after the
          following byte (one-byte reorder) *)
  seed : int;
}

val clean : config
(** All rates zero, seed 1: the identity channel. *)

type t

val create : config -> sink:(int -> unit) -> t
(** [create cfg ~sink] wraps [sink] with the fault model. *)

val send_sub : t -> Bytes.t -> pos:int -> len:int -> unit
(** Push the [len] bytes of the buffer from [pos] through the channel,
    in order. *)

val send_all : t -> Bytes.t -> unit

val flush : t -> unit
(** Emit any byte still held back by a delay fault (end of stream). *)

(** Fault counters, for assertions and reporting: *)

val corrupted : t -> int

val dropped : t -> int

val duplicated : t -> int

val delayed : t -> int

(** CRC-16/CCITT-FALSE, the frame check sequence of the PIL link. *)

val init : int
(** Initial register value (0xFFFF). *)

val update : int -> int -> int
(** [update crc byte] folds one byte (0..255) into the register. *)

val of_sub : Bytes.t -> pos:int -> len:int -> int
(** The CRC of the [len] bytes from [pos]. *)

val of_string : string -> int

(** Signal data types of the block-diagram language.

    These mirror the Simulink built-in types plus fixed-point formats. The
    paper stresses (§7) that the default [double] is inappropriate on a
    16-bit MCU without an FPU and that an appropriate fixed-point
    representation must be chosen and validated in the model; data types
    therefore propagate through the diagram and into the generated C code. *)

type t =
  | Double
  | Single
  | Int8
  | Uint8
  | Int16
  | Uint16
  | Int32
  | Uint32
  | Bool
  | Fix of Qformat.t  (** binary fixed point *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val is_float : t -> bool
val is_integer : t -> bool

val bits : t -> int
(** Storage width in bits (8 for [Bool], matching a C [unsigned char]). *)

val bytes : t -> int
(** Storage width in bytes, as allocated in the generated code. *)

val c_name : t -> string
(** The C type name used by the code generator (stdint style; fixed-point
    maps to the integer container type). *)

val integer_range : t -> (int * int) option
(** [Some (lo, hi)] for integer types, [None] for floats/fixed/bool. *)

val min_float_value : t -> float
(** Smallest representable value, as a float ([neg_infinity] for floats). *)

val max_float_value : t -> float
(** Largest representable value, as a float ([infinity] for floats). *)

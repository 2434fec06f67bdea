(** Signal data types of the block-diagram language.

    These mirror the Simulink built-in types. The paper stresses (§7)
    that the default [double] is inappropriate on a 16-bit MCU without an
    FPU; data types therefore propagate through the diagram and into the
    generated C code. The one fixed-point format, the Q15 PID's, is
    [Pid.Fixpoint]'s and computes on plain integers. *)

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
(** The C type name used by the code generator (stdint style). *)

val integer_range : t -> (int * int) option
(** [Some (lo, hi)] for integer types, [None] for floats and bool. *)

val min_float_value : t -> float
(** Smallest representable value, as a float ([neg_infinity] for floats). *)

val max_float_value : t -> float
(** Largest representable value, as a float ([infinity] for floats). *)

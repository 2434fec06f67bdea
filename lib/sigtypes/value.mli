(** Runtime signal values.

    Every signal sample carried between blocks during simulation is a
    {!t}: a scalar tagged with enough structure to reproduce the target
    arithmetic exactly (integers wrap or saturate at their C width). *)

type t =
  | F of float  (** [Double] or [Single] payload *)
  | I of Dtype.t * int  (** integer payload with its concrete type *)
  | B of bool

val zero : Dtype.t -> t
(** The all-zero value of a type. *)

val dtype : t -> Dtype.t
(** The concrete type of a value ([F _] reports [Double]). *)

val to_float : t -> float
(** Numeric reading of any value ([B true] is 1.0). *)

val of_float : Dtype.t -> float -> t
(** Quantise a real number into a type: integers round-to-nearest and
    saturate at the type bounds, [Bool] is [x <> 0.0]. This is the semantic of every typed block output and of the
    peripheral blocks (e.g. the 12-bit ADC block of §5). *)

val of_bool : bool -> t
val to_bool : t -> bool
(** [to_bool v] is [to_float v <> 0.0]. *)

val of_int : Dtype.t -> int -> t
(** Saturating integer injection. @raise Invalid_argument on float types. *)

val to_int : t -> int
(** Raw integer reading: the stored integer or a truncated float. *)

val cast : Dtype.t -> t -> t
(** Convert between types through the real line, saturating. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Typed block parameters.

    Parameters are what a block's dialog carries in Simulink and what a
    bean's properties carry in Processor Expert: they parameterise both the
    simulation behaviour and the generated code, so they are kept as
    introspectable data rather than baked into closures. *)

type value =
  | Float of float
  | Int of int
  | Bool of bool
  | String of string
  | Dtype of Dtype.t
  | Floats of float array

type t = (string * value) list

val float : t -> string -> float
(** Fetch a float parameter ([Int] values are promoted).
    @raise Not_found when missing, [Invalid_argument] on a type clash. *)

val int : t -> string -> int
val bool : t -> string -> bool
val string : t -> string -> string
val dtype : t -> string -> Dtype.t
val floats : t -> string -> float array

val float_opt : t -> string -> float option
val int_opt : t -> string -> int option
val string_opt : t -> string -> string option

val to_string : t -> string
(** One-line [k=v, ...] rendering for reports and error messages. *)

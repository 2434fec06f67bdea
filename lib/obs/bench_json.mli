(** The JSON of every machine-readable report the environment writes
    (FAULT, DIFF and CHECK reports, serve records, flight bundles).

    Ships its own tiny JSON value type, printer and parser so reports
    and tests can round-trip without external deps. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact JSON. Non-finite floats are emitted as [null]. *)

val float_str : float -> string
(** Deterministic shortest-round-trip float formatting (the number syntax
    used by {!to_string}). *)

exception Parse_error of string

val parse : string -> t
(** Minimal strict JSON parser (objects, arrays, strings with the
    common escapes, numbers, literals). Numbers without [.eE] parse as
    [Int]. @raise Parse_error on malformed input. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] otherwise. *)

val git_rev : unit -> string
(** [ECSD_GIT_REV] env override, else [git rev-parse --short HEAD],
    else ["unknown"]. *)

val write : path:string -> t -> unit

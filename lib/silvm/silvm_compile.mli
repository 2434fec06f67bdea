(** Closure compiler for the generated SIL application.

    Compiles the translation units once (via the MIR lifting of
    {!Mir_of_c}) into OCaml closures over a flat mutable state,
    bit-exact against the reference semantics of {!Mir_eval} on the
    whole covered subset; a function outside it (an opaque node, a
    64-bit local) raises {!Mir_eval.Unsupported} only when called. The
    immutable compiled
    [code] is shared — across instances, and across domains through the
    content-hashed {!compile_cached} — while each [st] instance owns its
    own cells, exchange buffers and externals. *)

type code
(** immutable compiled program: layouts, initialisers, closures *)

type st
(** one run-time instance of a compiled program *)

val compile : C_ast.cunit list -> code

val compile_cached : C_ast.cunit list -> code
(** [compile] memoised on a content hash of the units; thread-safe,
    shared process-wide (campaign domains hit the same entry) *)

val cache_stats : unit -> int * int
(** [(hits, misses)] of {!compile_cached} since start / last clear *)

val cache_clear : unit -> unit

val instantiate : code -> st
(** fresh state with global initialisers applied and zeroed exchange
    buffers; call the model's [<name>_initialize] next, as on target *)

val call : code -> st -> string -> Mir_eval.value list -> Mir_eval.value option
(** invoke a compiled function (fuel is reset, as in {!Mir_eval.call});
    raises {!Mir_eval.Unsupported} / {!Mir_eval.Runtime_error} exactly
    where the reference engine does *)

val has_func : code -> string -> bool

val register_external :
  st -> string -> (Mir_eval.value list -> Mir_eval.value) -> unit
(** an external's value converts to the call's static type: its
    declared return type, else int *)

val set_sensor : st -> int -> int -> unit
(** write a 16-bit word into [pil_sensor_buf] *)

val actuator : st -> int -> int
(** read a 16-bit word from [pil_actuator_buf] *)

val actuator_buf :
  st -> (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
(** the live actuator exchange buffer, for vectorized trace snapshots *)

val actuator_count : code -> int

val reader : code -> C_ast.expr -> st -> Mir_eval.value
(** compile an ad-hoc read of an lvalue (e.g. [servo_B.pid_o0]) once;
    the returned closure is cheap to call per step *)

val writer : code -> C_ast.expr -> st -> Mir_eval.value -> unit

(** C pretty-printer for {!C_ast}. *)

val expr_to_string : C_ast.expr -> string
(** Expression with minimal but safe parenthesisation. *)

val print_unit : C_ast.cunit -> string
(** Render a full compilation unit with a generated-code banner. *)

val print_stmts : ?indent:int -> C_ast.stmt list -> string

val loc : string -> int
(** Count the source lines of a rendered string (the generated-LoC metric
    of experiment E4). *)

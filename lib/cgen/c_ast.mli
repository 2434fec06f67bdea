(** A small C abstract syntax tree.

    Both code generators of the environment — the bean HAL emitter
    (Processor Expert's role) and the PEERT model-code emitter (RTW's
    role) — build this AST and print it with {!C_print}, instead of
    concatenating strings, so the emitted code is structurally
    well-formed by construction. The subset covers what embedded control
    code needs: integer/float scalars, structs, functions, control flow,
    and volatile hardware registers. *)

type cty =
  | Void
  | Double_t
  | Float_t
  | I8
  | U8
  | I16
  | U16
  | I32
  | U32
  | Named of string  (** typedef/struct reference *)
  | Ptr of cty
  | Arr of cty * int

val cty_of_dtype : Dtype.t -> cty
(** Map a signal data type to its C container type. *)

type expr =
  | Int_lit of int
  | Hex_lit of int
  | Float_lit of float
  | Str_lit of string
  | Var of string
  | Field of expr * string  (** [e.f] *)
  | Arrow of expr * string  (** [e->f] *)
  | Index of expr * expr
  | Call of string * expr list
  | Un of string * expr  (** prefix operator *)
  | Bin of string * expr * expr
  | Cast_to of cty * expr
  | Ternary of expr * expr * expr

type stmt =
  | Expr of expr
  | Decl of cty * string * expr option
  | Assign of expr * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of stmt * expr * stmt * stmt list
  | Return of expr option
  | Comment of string
  | Raw of string  (** escape hatch for target idioms (e.g. asm) *)
  | Block of stmt list

type func = {
  ret : cty;
  fname : string;
  args : (cty * string) list;
  body : stmt list;
  fcomment : string option;
  static : bool;
}

type item =
  | Include of string  (** without the angle brackets *)
  | Include_local of string
  | Define of string * string
  | Typedef of cty * string
  | Struct_def of string * (cty * string) list
  | Global of { gty : cty; gname : string; ginit : expr option;
                volatile : bool; static : bool }
  | Func_def of func
  | Proto of func  (** declaration only *)
  | Raw_item of string  (** verbatim C text (support runtimes) *)
  | Item_comment of string

type cunit = { unit_name : string; items : item list }

(** {2 Construction helpers} *)

val int_ : int -> expr
val flt : float -> expr
val var : string -> expr
val call : string -> expr list -> expr
val ( +! ) : expr -> expr -> expr
val ( -! ) : expr -> expr -> expr
val ( *! ) : expr -> expr -> expr
val ( /! ) : expr -> expr -> expr
val ( >>! ) : expr -> int -> expr
val ( <<! ) : expr -> int -> expr
val func :
  ?static:bool -> ?comment:string -> cty -> string -> (cty * string) list ->
  stmt list -> func

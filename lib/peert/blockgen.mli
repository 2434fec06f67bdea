(** Per-block C emitters — the TLC-script layer of PEERT.

    "The code generated by RTW for each of these blocks is defined by a
    Target Language Compiler script … during the code generation, a code
    is generated for each block in the model according to the
    corresponding tlc file" (§3). Here each block kind has an emitter
    producing state-struct fields, initialisation, step and update
    statements; the {!Target} pipeline stitches them together following
    the compiled execution order.

    Peripheral blocks emit in one of two modes: [Hw] calls the bean
    methods of the HAL (deployment build), [Pil] redirects reads/writes
    to the communication buffers as the PEERT_PIL target does (§6). *)

type mode = Hw | Pil

type gctx = {
  mode : mode;
  name : string;  (** sanitised block name, usable as a C identifier *)
  ins : C_ast.expr list;  (** input signal expressions *)
  outs : C_ast.expr list;  (** output signal lvalues *)
  out_tys : C_ast.cty list;
  out_dtypes : Dtype.t list;
      (** resolved signal dtypes per output port; integer and Bool
          outputs are routed through the pe_cast_* quantisation helpers
          so generated code matches the simulation's Value.of_float *)
  dt : float;  (** resolved block period (base step for inherited) *)
  state : string -> C_ast.expr;
      (** access to a state field declared by this block (unprefixed
          field name) *)
  ext_in : int -> C_ast.expr;  (** external input struct field (Inport) *)
  ext_out : int -> C_ast.expr;  (** external output struct field *)
  pil_slot : int option;
      (** index into the PIL sensor/actuator exchange buffer, when in
          [Pil] mode and the block is a peripheral *)
}

type gen = {
  state_fields : (C_ast.cty * string) list;
      (** fields to add to the model state struct (unprefixed names; the
          target prefixes them with the block name) *)
  init : C_ast.stmt list;
  step : C_ast.stmt list;
  update : C_ast.stmt list;
  needs_time : bool;  (** whether the step references [model_time] *)
}

exception Unsupported of string
(** Raised for blocks with no embedded realisation (continuous plant
    blocks): code is generated "for the controller subsystem only"
    (§5). *)

val register : string -> (gctx -> Block.spec -> gen) -> unit
(** Install an emitter for a custom block kind (the user-written TLC file
    of an s-function block, §3). Later registrations win. *)

val emit : gctx -> Block.spec -> gen

val supported : Block.spec -> bool
(** Whether the block kind has an embedded realisation. *)

val cast_helper_of_dtype : Dtype.t -> string option
(** Name of the [pe_cast_*] helper that replicates [Value.of_float]
    (round half away from zero, saturate, NaN -> 0) for a quantised
    dtype; [None] for float and fixed-point dtypes. *)

val cast_helpers : unit -> C_ast.item list
(** Static definitions of the pe_cast_* quantisation helpers, appended
    by the targets to every generated translation unit. *)

val used_helpers : C_ast.item list -> C_ast.stmt list -> C_ast.item list
(** [used_helpers helpers stmts] is the subset of the static [helpers]
    (such as {!cast_helpers}) the statements call: an unused static
    function is a warning under [-Wall], fatal with [-Werror]. *)

val sanitize : string -> string
(** Make a model block name usable as a C identifier chunk. *)

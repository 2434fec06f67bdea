(* Typing environment for lifted translation units: struct layouts,
   globals (with volatility), typedef aliases and function return
   types, harvested from the C items of the unit plus its header. *)

type vty =
  | Scalar of Mir.ty
  | Vstruct of string  (** struct type name, resolved via [structs] *)
  | Varray of vty * int
  | Vunknown

type t = {
  structs : (string, (string * vty) list) Hashtbl.t;
  typedefs : (string, C_ast.cty) Hashtbl.t;
  globals : (string, vty) Hashtbl.t;
  volatiles : (string, unit) Hashtbl.t;
  returns : (string, vty) Hashtbl.t;  (** defined/declared functions *)
}

(* The C library environment of the generated code, one table each:
   both SIL engines and the typer read these and nothing else. *)

(* <stdint.h> limit macros, which appear as bare Vars in generated code,
   with their C type and value (on the ILP32 target UINT8_MAX and
   UINT16_MAX are ints; UINT32_MAX is unsigned) *)
let limits =
  [
    ("INT8_MAX", Mir.i32, 127L);
    ("INT8_MIN", Mir.i32, -128L);
    ("INT16_MAX", Mir.i32, 32767L);
    ("INT16_MIN", Mir.i32, -32768L);
    ("INT32_MAX", Mir.i32, 2147483647L);
    ("INT32_MIN", Mir.i32, -2147483648L);
    ("INT64_MAX", Mir.i64, Int64.max_int);
    ("INT64_MIN", Mir.i64, Int64.min_int);
    ("UINT8_MAX", Mir.i32, 255L);
    ("UINT16_MAX", Mir.i32, 65535L);
    ("UINT32_MAX", Mir.u32, 4294967295L);
  ]

let macro_ty n =
  List.find_map (fun (m, ty, _) -> if String.equal m n then Some ty else None) limits

(* the libm subset the block library calls without a visible prototype *)
type libm =
  | F1 of (float -> float)
  | F2 of (float -> float -> float)
  | L1 of (float -> int64)  (** returns long: 32 bits on the target *)

let libm = function
  | "sin" -> Some (F1 sin)
  | "cos" -> Some (F1 cos)
  | "tan" -> Some (F1 tan)
  | "asin" -> Some (F1 asin)
  | "acos" -> Some (F1 acos)
  | "atan" -> Some (F1 atan)
  | "exp" -> Some (F1 exp)
  | "log" -> Some (F1 log)
  | "log10" -> Some (F1 log10)
  | "sqrt" -> Some (F1 sqrt)
  | "fabs" -> Some (F1 Float.abs)
  | "floor" -> Some (F1 Float.floor)
  | "ceil" -> Some (F1 Float.ceil)
  | "round" -> Some (F1 Float.round)
  | "trunc" -> Some (F1 Float.trunc)
  | "fmod" -> Some (F2 Float.rem)
  | "pow" -> Some (F2 Float.pow)
  | "atan2" -> Some (F2 Float.atan2)
  | "fmin" -> Some (F2 Float.min)
  | "fmax" -> Some (F2 Float.max)
  | "lround" -> Some (L1 (fun x -> Int64.of_float (Float.round x)))
  | _ -> None

let libm_ty f =
  match libm f with
  | Some (F1 _ | F2 _) -> Some Mir.Tf64
  | Some (L1 _) -> Some Mir.i32
  | None -> None

let rec vty_of_cty t cty =
  match cty with
  | C_ast.Void -> Vunknown
  | C_ast.Double_t -> Scalar Mir.Tf64
  | C_ast.Float_t -> Scalar Mir.Tf32
  | C_ast.I8 -> Scalar Mir.i8
  | C_ast.U8 -> Scalar Mir.u8
  | C_ast.I16 -> Scalar Mir.i16
  | C_ast.U16 -> Scalar Mir.u16
  | C_ast.I32 -> Scalar Mir.i32
  | C_ast.U32 -> Scalar Mir.u32
  | C_ast.Named "int64_t" -> Scalar Mir.i64
  | C_ast.Named "uint64_t" -> Scalar Mir.u64
  | C_ast.Named "int" -> Scalar Mir.i32
  | C_ast.Named n ->
      if Hashtbl.mem t.structs n then Vstruct n
      else (
        match Hashtbl.find_opt t.typedefs n with
        | Some alias -> vty_of_cty t alias
        | None -> Scalar (Mir.Tnamed n))
  | C_ast.Ptr _ -> Vunknown
  | C_ast.Arr (elt, n) -> Varray (vty_of_cty t elt, n)

let create items =
  let t =
    {
      structs = Hashtbl.create 16;
      typedefs = Hashtbl.create 8;
      globals = Hashtbl.create 32;
      volatiles = Hashtbl.create 8;
      returns = Hashtbl.create 16;
    }
  in
  (* two passes: struct/typedef names first so globals resolve them
     regardless of item order *)
  List.iter
    (function
      | C_ast.Struct_def (name, _) -> Hashtbl.replace t.structs name []
      | C_ast.Typedef (cty, name) -> Hashtbl.replace t.typedefs name cty
      | _ -> ())
    items;
  List.iter
    (function
      | C_ast.Struct_def (name, fields) ->
          Hashtbl.replace t.structs name
            (List.map (fun (cty, f) -> (f, vty_of_cty t cty)) fields)
      | C_ast.Global { gty; gname; volatile; _ } ->
          Hashtbl.replace t.globals gname (vty_of_cty t gty);
          if volatile then Hashtbl.replace t.volatiles gname ()
      | C_ast.Func_def f | C_ast.Proto f ->
          Hashtbl.replace t.returns f.C_ast.fname (vty_of_cty t f.C_ast.ret)
      | _ -> ())
    items;
  t

let is_volatile t root = Hashtbl.mem t.volatiles root

(* ---- typing of places and expressions ----

   [locals] maps in-scope local variables (and function arguments) to
   their vty; it shadows globals. The discipline is permissive: an
   unknown name types as [Vunknown], which unifies with anything — the
   verifier only rejects structurally impossible programs, not
   incomplete knowledge. *)

let var_vty t locals v =
  match List.assoc_opt v locals with
  | Some vt -> vt
  | None -> (
      match Hashtbl.find_opt t.globals v with
      | Some vt -> vt
      | None -> (
          match macro_ty v with Some ty -> Scalar ty | None -> Vunknown))

let rec place_vty t locals = function
  | Mir.Pvar v -> var_vty t locals v
  | Mir.Pfield (p, f) -> (
      match place_vty t locals p with
      | Vstruct s -> (
          match Hashtbl.find_opt t.structs s with
          | Some fields -> (
              match List.assoc_opt f fields with
              | Some vt -> vt
              | None -> Vunknown)
          | None -> Vunknown)
      | _ -> Vunknown)
  | Mir.Pindex (p, _) -> (
      match place_vty t locals p with Varray (vt, _) -> vt | _ -> Vunknown)

let scalar_of_vty = function
  | Scalar ty -> ty
  | Vstruct _ | Varray _ | Vunknown -> Mir.Tunknown

(* C integer promotion *)
let promote = function
  | Mir.Tint { bits; _ } when bits < 32 -> Mir.i32
  | ty -> ty

(* usual arithmetic conversions (C99 6.3.1.8), [Tunknown] absorbing *)
let usual a b =
  match (a, b) with
  | Mir.Tf64, _ | _, Mir.Tf64 -> Mir.Tf64
  | Mir.Tf32, _ | _, Mir.Tf32 -> Mir.Tf32
  | Mir.Tunknown, _ | _, Mir.Tunknown -> Mir.Tunknown
  | Mir.Tnamed _, _ | _, Mir.Tnamed _ -> Mir.Tunknown
  | Mir.Tint x, Mir.Tint y -> (
      let x = if x.Mir.bits < 32 then { Mir.bits = 32; signed = true } else x in
      let y = if y.Mir.bits < 32 then { Mir.bits = 32; signed = true } else y in
      match (x.Mir.signed, y.Mir.signed) with
      | true, true | false, false ->
          Mir.Tint (if x.Mir.bits >= y.Mir.bits then x else y)
      | false, true ->
          if x.Mir.bits >= y.Mir.bits then Mir.Tint x
          else Mir.Tint y (* signed type can hold every unsigned value *)
      | true, false ->
          if y.Mir.bits >= x.Mir.bits then Mir.Tint y else Mir.Tint x)

let rec ty_of_expr t locals e =
  match e with
  | Mir.Kint (_, Mir.Dec) -> Mir.i32
  | Mir.Kint (_, Mir.Hex) -> Mir.u32 (* Hex_lit prints with a U suffix *)
  | Mir.Kfloat _ -> Mir.Tf64
  | Mir.Load p -> scalar_of_vty (place_vty t locals p)
  | Mir.Eun (Mir.Neg, a) -> promote (ty_of_expr t locals a)
  | Mir.Eun (Mir.Lnot, _) -> Mir.i32
  | Mir.Ebin (op, a, b) ->
      if Mir.is_comparison op || Mir.is_logical op then Mir.i32
      else if op = Mir.Shl || op = Mir.Shr then promote (ty_of_expr t locals a)
      else usual (ty_of_expr t locals a) (ty_of_expr t locals b)
  | Mir.Ecast (cty, _) -> scalar_of_vty (vty_of_cty t cty)
  | Mir.Equantize (k, _) -> Mir.qkind_ty k
  | Mir.Esat16 _ -> Mir.i16
  | Mir.Esat_add32 _ | Mir.Emul_shift _ -> Mir.i32
  | Mir.Ecall (f, _) -> (
      match Hashtbl.find_opt t.returns f with
      | Some vt -> scalar_of_vty vt
      | None -> (
          match libm_ty f with Some ty -> ty | None -> Mir.Tunknown))
  | Mir.Eselect (_, a, b) -> usual (ty_of_expr t locals a) (ty_of_expr t locals b)
  | Mir.Eopaque _ -> Mir.Tunknown

(* finite value range of a scalar type, as outward-rounded doubles;
   unbounded (infinite) for floats and unknowns *)
let ty_range = function
  | Mir.Tint { bits; signed = true } ->
      let h = Float.of_int (bits - 1) in
      (-.Float.pow 2.0 h, Float.pow 2.0 h -. 1.0)
  | Mir.Tint { bits; signed = false } -> (0.0, Float.pow 2.0 (Float.of_int bits) -. 1.0)
  | Mir.Tf32 | Mir.Tf64 | Mir.Tnamed _ | Mir.Tunknown ->
      (neg_infinity, infinity)

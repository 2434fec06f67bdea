open C_ast

(* ---- a small type evaluator over the generated AST ---- *)

type ety = Ty of cty | Lit of int | Unknown

type env = {
  structs : (string, (cty * string) list) Hashtbl.t;
  typedefs : (string, cty) Hashtbl.t;
  globals : (string, cty) Hashtbl.t;
  funcs : (string, cty) Hashtbl.t;
  macros : (string, unit) Hashtbl.t;
      (** function-like [#define]s of the unit; calls to them are macro
          expansions (register reads), not side-effecting calls *)
}

let build_env cus =
  let env =
    {
      structs = Hashtbl.create 16;
      typedefs = Hashtbl.create 16;
      globals = Hashtbl.create 16;
      funcs = Hashtbl.create 16;
      macros = Hashtbl.create 16;
    }
  in
  List.concat_map (fun cu -> cu.items) cus
  |> List.iter
    (function
      | Struct_def (name, fields) -> Hashtbl.replace env.structs name fields
      | Typedef (ty, name) -> Hashtbl.replace env.typedefs name ty
      | Global { gty; gname; _ } -> Hashtbl.replace env.globals gname gty
      | Func_def f | Proto f -> Hashtbl.replace env.funcs f.fname f.ret
      | Define (name, _) -> (
          match String.index_opt name '(' with
          | Some i -> Hashtbl.replace env.macros (String.sub name 0 i) ()
          | None -> ())
      | _ -> ());
  env

let rec resolve env ty =
  match ty with
  | Named n -> (
      match Hashtbl.find_opt env.typedefs n with
      | Some t when t <> ty -> resolve env t
      | _ -> ty)
  | t -> t

(* (bits, class); class: `Sint, `Uint, `Flt, `Other *)
let num_class env ty =
  match resolve env ty with
  | I8 -> Some (8, `Sint)
  | U8 -> Some (8, `Uint)
  | I16 -> Some (16, `Sint)
  | U16 -> Some (16, `Uint)
  | I32 -> Some (32, `Sint)
  | U32 -> Some (32, `Uint)
  | Float_t -> Some (32, `Flt)
  | Double_t -> Some (64, `Flt)
  | Named ("int64_t" | "long long") -> Some (64, `Sint)
  | Named ("uint64_t" | "unsigned long long") -> Some (64, `Uint)
  | _ -> None

let int_range = function
  | I8 -> Some (-128, 127)
  | U8 -> Some (0, 255)
  | I16 -> Some (-32768, 32767)
  | U16 -> Some (0, 65535)
  | I32 -> Some (-0x4000_0000 * 2, 0x3FFF_FFFF * 2 + 1)
  | U32 -> Some (0, 0xFFFF_FFFF)
  | _ -> None

let lookup_var scopes env v =
  let rec in_scopes = function
    | [] -> None
    | frame :: rest -> (
        match List.assoc_opt v frame with
        | Some t -> Some t
        | None -> in_scopes rest)
  in
  match in_scopes scopes with
  | Some t -> Some t
  | None -> Hashtbl.find_opt env.globals v

let combine env a b =
  match (a, b) with
  | Ty ta, Ty tb -> (
      match (num_class env ta, num_class env tb) with
      | Some (wa, `Flt), Some (wb, `Flt) -> Ty (if wa >= wb then ta else tb)
      | Some (_, `Flt), Some _ -> Ty ta
      | Some _, Some (_, `Flt) -> Ty tb
      | Some (wa, _), Some (wb, _) -> Ty (if wa >= wb then ta else tb)
      | _ -> Unknown)
  | (Ty _ as t), Lit _ | Lit _, (Ty _ as t) -> t
  | Lit _, Lit _ -> Unknown
  | _ -> Unknown

let rec infer env scopes e =
  match e with
  | Int_lit n | Hex_lit n -> Lit n
  | Float_lit _ -> Ty Double_t
  | Str_lit _ -> Ty (Ptr U8)
  | Var v -> (
      match lookup_var scopes env v with Some t -> Ty t | None -> Unknown)
  | Field (b, f) -> field_type env scopes b f
  | Arrow (b, f) -> (
      match infer env scopes b with
      | Ty t -> (
          match resolve env t with
          | Ptr t -> struct_field env t f
          | _ -> Unknown)
      | _ -> Unknown)
  | Index (b, _) -> (
      match infer env scopes b with
      | Ty t -> (
          match resolve env t with Arr (t, _) | Ptr t -> Ty t | _ -> Unknown)
      | _ -> Unknown)
  | Call (f, _) -> (
      match Hashtbl.find_opt env.funcs f with Some t -> Ty t | None -> Unknown)
  | Un ("!", _) -> Ty I32
  | Un ("*", b) -> (
      match infer env scopes b with
      | Ty t -> (
          match resolve env t with Ptr t -> Ty t | _ -> Unknown)
      | _ -> Unknown)
  | Un ("&", _) -> Unknown
  | Un (_, b) -> infer env scopes b
  | Bin (("==" | "!=" | "<" | ">" | "<=" | ">=" | "&&" | "||"), _, _) -> Ty I32
  | Bin (("<<" | ">>"), a, _) -> infer env scopes a
  | Bin (_, a, b) -> combine env (infer env scopes a) (infer env scopes b)
  | Cast_to (t, _) -> Ty t
  | Ternary (_, a, b) -> combine env (infer env scopes a) (infer env scopes b)

and field_type env scopes b f =
  match infer env scopes b with
  | Ty t -> struct_field env t f
  | _ -> Unknown

and struct_field env t f =
  match resolve env t with
  | Named n -> (
      match Hashtbl.find_opt env.structs n with
      | Some fields -> (
          match List.find_opt (fun (_, fn) -> fn = f) fields with
          | Some (ft, _) -> Ty ft
          | None -> Unknown)
      | None -> Unknown)
  | _ -> Unknown

let rec has_side_effect env e =
  match e with
  | Call (f, args) ->
      (* a call to a function-like macro of the unit is a register-read
         expansion, not a function call *)
      (not (Hashtbl.mem env.macros f))
      || List.exists (has_side_effect env) args
  | Un (("++" | "--"), _) -> true
  | Bin (("=" | "+=" | "-=" | "*=" | "/=" | "|=" | "&=" | "^="), _, _) -> true
  | Int_lit _ | Hex_lit _ | Float_lit _ | Str_lit _ | Var _ -> false
  | Field (b, _) | Arrow (b, _) | Un (_, b) | Cast_to (_, b) ->
      has_side_effect env b
  | Index (a, b) | Bin (_, a, b) -> has_side_effect env a || has_side_effect env b
  | Ternary (a, b, c) ->
      has_side_effect env a || has_side_effect env b || has_side_effect env c

let rec cty_name = function
  | Void -> "void"
  | Double_t -> "double"
  | Float_t -> "float"
  | I8 -> "int8_t"
  | U8 -> "uint8_t"
  | I16 -> "int16_t"
  | U16 -> "uint16_t"
  | I32 -> "int32_t"
  | U32 -> "uint32_t"
  | Named n -> n
  | Ptr t -> cty_name t ^ " *"
  | Arr (t, n) -> Printf.sprintf "%s[%d]" (cty_name t) n

(* ---- the MIS rules over one function ---- *)

let lint_func env ~unit_name f =
  let acc = ref [] in
  let subject = Printf.sprintf "%s:%s" unit_name f.fname in
  let emit rule detail = acc := Diag.make ~rule ~subject detail :: !acc in
  (* MIS001: single point of exit *)
  let rec count_returns stmts =
    List.fold_left
      (fun n s ->
        n
        +
        match s with
        | Return _ -> 1
        | If (_, a, b) -> count_returns a + count_returns b
        | While (_, b) | For (_, _, _, b) | Block b -> count_returns b
        | _ -> 0)
      0 stmts
  in
  let returns = count_returns f.body in
  if returns > 1 then
    emit "MIS001" (Printf.sprintf "%d return statements (MISRA wants one exit point)" returns);
  (* walk with scoping *)
  let check_narrowing lhs_ty rhs ~what scopes =
    match num_class env lhs_ty with
    | None -> ()
    | Some (lw, lc) -> (
        match infer env scopes rhs with
        | Lit n -> (
            match int_range (resolve env lhs_ty) with
            | Some (lo, hi) when n < lo || n > hi ->
                emit "MIS003"
                  (Printf.sprintf "%s: literal %d does not fit %s" what n
                     (cty_name lhs_ty))
            | _ -> ())
        | Ty rt -> (
            match num_class env rt with
            | Some (_, `Flt) when lc <> `Flt ->
                emit "MIS003"
                  (Printf.sprintf
                     "%s: implicit %s -> %s conversion loses the fraction"
                     what (cty_name rt) (cty_name lhs_ty))
            | Some (rw, _) when rw > lw ->
                emit "MIS003"
                  (Printf.sprintf "%s: implicit narrowing %s -> %s" what
                     (cty_name rt) (cty_name lhs_ty))
            | _ -> ())
        | Unknown -> ())
  in
  let check_cond e ~what scopes =
    let _ = scopes in
    if has_side_effect env e then
      emit "MIS004"
        (Printf.sprintf "%s contains a side effect: %s" what
           (C_print.expr_to_string e))
  in
  let declare frame name ty =
    let outer = lookup_var !frame env name <> None in
    (match !frame with
    | top :: rest ->
        if outer || List.mem_assoc name top then
          emit "MIS002"
            (Printf.sprintf "declaration of %S shadows an outer identifier"
               name);
        frame := ((name, ty) :: top) :: rest
    | [] -> assert false)
  in
  let raw_count = ref 0 in
  let rec walk scopes stmts =
    let frame = ref ([] :: scopes) in
    List.iter
      (fun s ->
        match s with
        | Decl (ty, name, init) ->
            (match init with
            | Some e ->
                check_narrowing ty e
                  ~what:(Printf.sprintf "initialisation of %s" name)
                  !frame
            | None -> ());
            declare frame name ty
        | Assign (lhs, rhs) -> (
            match infer env !frame lhs with
            | Ty lt ->
                check_narrowing lt rhs
                  ~what:
                    (Printf.sprintf "assignment to %s"
                       (C_print.expr_to_string lhs))
                  !frame
            | _ -> ())
        | If (c, a, b) ->
            check_cond c ~what:"if condition" !frame;
            walk !frame a;
            walk !frame b
        | While (c, b) ->
            check_cond c ~what:"while condition" !frame;
            walk !frame b
        | For (init, c, incr, b) ->
            walk !frame [ init ];
            check_cond c ~what:"for condition" !frame;
            walk !frame (b @ [ incr ])
        | Block b -> walk !frame b
        | Raw _ -> incr raw_count
        | Expr _ | Return _ | Comment _ -> ())
      stmts
  in
  let param_frame = List.map (fun (ty, name) -> (name, ty)) f.args in
  walk [ param_frame ] f.body;
  if !raw_count > 0 then
    emit "MIS005"
      (Printf.sprintf "%d verbatim statement%s escape%s the lint" !raw_count
         (if !raw_count > 1 then "s" else "")
         (if !raw_count > 1 then "" else "s"));
  List.rev !acc

let lint_unit_in env cu =
  let raw_items =
    List.length (List.filter (function Raw_item _ -> true | _ -> false) cu.items)
  in
  let from_items =
    if raw_items > 0 then
      [
        Diag.make ~rule:"MIS005" ~subject:cu.unit_name
          (Printf.sprintf "%d verbatim item%s escape%s the lint" raw_items
             (if raw_items > 1 then "s" else "")
             (if raw_items > 1 then "" else "s"));
      ]
    else []
  in
  from_items
  @ List.concat_map
      (function
        | Func_def f -> lint_func env ~unit_name:cu.unit_name f
        | _ -> [])
      cu.items

let lint units =
  (* one environment over the whole translation set: macros, typedefs
     and structs live in shared headers (PE_Types.h, <model>.h) *)
  let env = build_env units in
  List.concat_map (lint_unit_in env) units

(* The reference C semantics of the environment, over MIR.

   C99 scalar semantics on the ILP32 target: integer promotion, the
   usual arithmetic conversions, modular wrap at the target width,
   truncating division, and the generated helpers' round-half-away-
   from-zero quantisation and saturating arithmetic. One evaluator
   serves three clients, distinguished by [mode]:

   - [Fold]: the constant folder of [Mir_opt] ([const_eval]). There is
     no store, and a fold happens only when the result is defined;
   - [Check]: the property tests ([run]). A store of named scalars, with
     undefined behaviour reported as [Undefined];
   - [Run]: the SIL reference engine behind [--engine interp] and the
     shadow of [--engine both] ([create]/[call]). It executes the lifted
     translation set of a generated application over one store: struct
     fields, fixed and variable array subscripts, the two PIL exchange
     buffers, unit functions, libm, macros and the loop fuel.
     Undefined behaviour gets the run-time choices stated below.

   Integers are carried as a canonical [int64]: sign-extended when the
   C type is signed, zero-extended when it is unsigned. The closure
   compiler of the SIL virtual machine is an independent, faster
   implementation of the same semantics; the tri-lockstep and the
   MIR<->C round-trip property hold it to this one bit for bit. *)

exception Nonconst  (** expression depends on memory or an external *)

exception Undefined of string  (** C UB / unspecified: never folded *)

exception Unsupported of string  (** outside the executable subset *)

exception Runtime_error of string  (** SIL run-time error *)

type value = Vi of Mir.ity * int64 | Vf of Mir.ty * float

type mode = Fold | Check | Run

let undef fmt = Printf.ksprintf (fun s -> raise (Undefined s)) fmt
let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt
let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* normalise an int64 into the value range of [ity] (wrap semantics) *)
let norm (ity : Mir.ity) (v : int64) : int64 =
  if ity.Mir.bits >= 64 then v
  else
    let shift = 64 - ity.Mir.bits in
    let shifted = Int64.shift_left v shift in
    if ity.Mir.signed then Int64.shift_right shifted shift
    else Int64.shift_right_logical shifted shift

let vi ity v = Vi (ity, norm ity v)
let i32 = { Mir.bits = 32; signed = true }
let bool_ b = Vi (i32, if b then 1L else 0L)

let ity_of_ty = function
  | Mir.Tint i -> Some i
  | Mir.Tf32 | Mir.Tf64 | Mir.Tnamed _ | Mir.Tunknown -> None

let ty_of_value = function Vi (i, _) -> Mir.Tint i | Vf (t, _) -> t

(* numeric value of an integer cell as a float (u64 needs the unsigned
   reading of the bits) *)
let float_of_int_value (ity : Mir.ity) v =
  if (not ity.Mir.signed) && ity.Mir.bits = 64 && Int64.compare v 0L < 0 then
    Int64.to_float v +. 18446744073709551616.0
  else Int64.to_float v

let to_double = function
  | Vf (_, x) -> x
  | Vi (ity, v) -> float_of_int_value ity v

let round_f32 x = Int32.float_of_bits (Int32.bits_of_float x)

let is_truthy = function
  | Vi (_, v) -> not (Int64.equal v 0L)
  | Vf (_, x) -> x <> 0.0

(* ---- undefined behaviour: the one place each choice is made ----

   [Fold] and [Check] refuse every case below with [Undefined], so the
   constant folder never folds one. [Run] makes the choice stated at
   each site; the compiled SIL engine calls the same functions. *)

(* C has no value to offer: SIL reports a run-time error *)
let refuse mode fmt =
  Printf.ksprintf
    (fun s -> if mode = Run then raise (Runtime_error s) else raise (Undefined s))
    fmt

(* float -> int conversion of NaN or of a value outside the target
   type. SIL: NaN -> 0, otherwise truncate toward zero and wrap modulo
   2^bits *)
let float_to_int mode (ity : Mir.ity) x : int64 =
  let tr = Float.trunc x in
  if mode <> Run then begin
    if Float.is_nan x then undef "float->int conversion of NaN";
    let lo, hi =
      if ity.Mir.signed then
        ( -.Float.pow 2.0 (Float.of_int (ity.Mir.bits - 1)),
          Float.pow 2.0 (Float.of_int (ity.Mir.bits - 1)) )
      else (0.0, Float.pow 2.0 (Float.of_int ity.Mir.bits))
    in
    if tr < lo || tr >= hi then
      undef "float->int conversion out of range (%g)" x
  end;
  if Float.is_nan x then 0L else norm ity (Int64.of_float tr)

(* signed INT_MIN / -1 and INT_MIN % -1. SIL: wrap, giving INT_MIN and
   0, which is what the int64 quotient and remainder normalise to *)
let check_int_min_div mode (ity : Mir.ity) x y =
  if
    mode <> Run && ity.Mir.signed && Int64.equal y (-1L)
    && Int64.equal x (Int64.shift_left (-1L) (ity.Mir.bits - 1))
  then undef "INT_MIN / -1"

(* division or remainder by zero. SIL: run-time error *)
let division_by_zero mode = refuse mode "division by zero"
let check_divisor mode y = if Int64.equal y 0L then division_by_zero mode

(* shift count negative or not below the promoted width. SIL: run-time
   error *)
let check_shift mode s bits =
  if s < 0 || s >= bits then refuse mode "shift count %d out of range" s

(* pe_mul_shift's own shifts: (int64_t)1 << (shift - 1) and p >> shift
   are defined for shift in 1..63. SIL: run-time error outside; the
   folder also refuses 63, where the rounding bias can overflow *)
let check_mul_shift mode sh =
  if sh < 1 || sh > 63 || (mode <> Run && sh = 63) then
    refuse mode "pe_mul_shift shift %d" sh

(* ---- conversions and operators ---- *)

(* convert a value into [ty] with C conversion semantics *)
let conv mode (ty : Mir.ty) v : value =
  match (ty, v) with
  | Mir.Tf64, _ -> Vf (Mir.Tf64, to_double v)
  | Mir.Tf32, _ -> Vf (Mir.Tf32, round_f32 (to_double v))
  | Mir.Tint ity, Vi (_, x) -> vi ity x
  | Mir.Tint ity, Vf (_, x) -> Vi (ity, float_to_int mode ity x)
  | Mir.Tnamed n, _ ->
      if mode = Run then unsupported "conversion to unknown type %s" n
      else undef "conversion to unknown type %s" n
  | Mir.Tunknown, _ ->
      if mode = Run then unsupported "conversion to an untyped value"
      else undef "conversion to an untyped value"

let convert ty v = conv Fold ty v

let promote_v = function
  | Vi (ity, v) when ity.Mir.bits < 32 -> Vi (i32, v)
  | v -> v

(* the integer a value denotes (array subscripts, boundary reads):
   floats truncate toward zero, NaN reads as 0 *)
let to_int64 = function
  | Vi (_, v) -> v
  | Vf (_, x) -> if Float.is_nan x then 0L else Int64.of_float (Float.trunc x)

(* usual arithmetic conversions applied to both operands *)
let usual_pair mode a b =
  let common = Mir_env.usual (ty_of_value a) (ty_of_value b) in
  (conv mode common a, conv mode common b)

let binop mode (op : Mir.bop) (a : value) (b : value) : value =
  match op with
  | Mir.Land | Mir.Lor -> assert false (* short-circuit in eval *)
  | Mir.Shl | Mir.Shr -> (
      match (promote_v a, promote_v b) with
      | Vi (ity, x), Vi (_, s) ->
          let s = Int64.to_int s in
          check_shift mode s ity.Mir.bits;
          if op = Mir.Shl then vi ity (Int64.shift_left x s)
          else if ity.Mir.signed then vi ity (Int64.shift_right x s)
          else vi ity (Int64.shift_right_logical (norm ity x) s)
      | _ -> refuse mode "shift on a float operand")
  | _ -> (
      match usual_pair mode a b with
      | Vf (fty, x), Vf (_, y) -> (
          let r v = if fty = Mir.Tf32 then round_f32 v else v in
          match op with
          | Mir.Add -> Vf (fty, r (x +. y))
          | Mir.Sub -> Vf (fty, r (x -. y))
          | Mir.Mul -> Vf (fty, r (x *. y))
          | Mir.Div -> Vf (fty, r (x /. y))
          | Mir.Mod | Mir.Band | Mir.Bor | Mir.Bxor ->
              refuse mode "operator %s on float operands" (Mir.bop_name op)
          | Mir.Eq -> bool_ (x = y)
          | Mir.Ne -> bool_ (x <> y)
          | Mir.Lt -> bool_ (x < y)
          | Mir.Gt -> bool_ (x > y)
          | Mir.Le -> bool_ (x <= y)
          | Mir.Ge -> bool_ (x >= y)
          | Mir.Shl | Mir.Shr | Mir.Land | Mir.Lor -> assert false)
      | Vi (ity, x), Vi (_, y) -> (
          let cmp lt =
            (* after the usual conversions both sides have type [ity];
               32-bit values are exact in int64, 64-bit unsigned needs
               an unsigned compare *)
            bool_
              (if ity.Mir.signed || ity.Mir.bits < 64 then
                 lt (Int64.compare x y)
               else lt (Int64.unsigned_compare x y))
          in
          match op with
          | Mir.Add -> vi ity (Int64.add x y)
          | Mir.Sub -> vi ity (Int64.sub x y)
          | Mir.Mul -> vi ity (Int64.mul x y)
          | Mir.Div ->
              check_divisor mode y;
              check_int_min_div mode ity x y;
              if ity.Mir.signed then vi ity (Int64.div x y)
              else vi ity (Int64.unsigned_div x y)
          | Mir.Mod ->
              check_divisor mode y;
              check_int_min_div mode ity x y;
              if ity.Mir.signed then vi ity (Int64.rem x y)
              else vi ity (Int64.unsigned_rem x y)
          | Mir.Band -> vi ity (Int64.logand x y)
          | Mir.Bor -> vi ity (Int64.logor x y)
          | Mir.Bxor -> vi ity (Int64.logxor x y)
          | Mir.Eq -> bool_ (Int64.equal x y)
          | Mir.Ne -> bool_ (not (Int64.equal x y))
          | Mir.Lt -> cmp (fun c -> c < 0)
          | Mir.Gt -> cmp (fun c -> c > 0)
          | Mir.Le -> cmp (fun c -> c <= 0)
          | Mir.Ge -> cmp (fun c -> c >= 0)
          | Mir.Shl | Mir.Shr | Mir.Land | Mir.Lor -> assert false)
      | _ -> assert false)

let unop (op : Mir.uop) (a : value) : value =
  match op with
  | Mir.Neg -> (
      match promote_v a with
      | Vi (ity, x) -> vi ity (Int64.neg x)
      | Vf (fty, x) -> Vf (fty, -.x))
  | Mir.Lnot -> bool_ (not (is_truthy a))

(* ---- the generated helpers, bit for bit ---- *)

(* pe_cast_<k>: round half away from zero, saturate, NaN -> 0 *)
let quantize (k : Mir.qkind) (v : value) : value =
  let x = to_double v in
  let ity = Option.get (ity_of_ty (Mir.qkind_ty k)) in
  match k with
  | Mir.Qb -> vi ity (if x <> 0.0 then 1L else 0L)
  | _ ->
      if Float.is_nan x then vi ity 0L
      else
        let lo, hi = Mir.qkind_bounds k in
        let r = Float.round x in
        if r >= hi then vi ity (Int64.of_float hi)
        else if r <= lo then vi ity (Int64.of_float lo)
        else vi ity (Int64.of_float r)

let to_i32 mode v =
  match conv mode Mir.i32 v with Vi (_, x) -> x | Vf _ -> assert false

let sat16 mode (v : value) : value =
  let x = to_i32 mode v in
  vi { Mir.bits = 16; signed = true } (Int64.max (-32768L) (Int64.min 32767L x))

let sat_add32 mode (a : value) (b : value) : value =
  let s = Int64.add (to_i32 mode a) (to_i32 mode b) in
  vi i32 (Int64.max (-2147483648L) (Int64.min 2147483647L s))

let mul_shift mode (a : value) (b : value) (s : value) : value =
  let x = to_i32 mode a and y = to_i32 mode b in
  let sh = Int64.to_int (to_i32 mode s) in
  check_mul_shift mode sh;
  let p = Int64.add (Int64.mul x y) (Int64.shift_left 1L (sh - 1)) in
  vi i32 (Int64.shift_right p sh)

(* the static type of a call's value: the declared return type, or int
   for an undeclared external (C89's implicit declaration) *)
let call_ty env f =
  match Mir_env.ty_of_expr env [] (Mir.Ecall (f, [])) with
  | Mir.Tunknown -> Mir.i32
  | ty -> ty

(* ---- the store ---- *)

type cell =
  | Cint of { ity : Mir.ity; mutable i : int64 }
  | Cflt of { fty : Mir.ty; mutable f : float }
  | Carr of cell array
  | Cstruct of (string * cell) array

type t = {
  mode : mode;
  env : Mir_env.t;
  globals : (string, cell) Hashtbl.t;
  funcs : (string, C_ast.func * Mir.stmt list) Hashtbl.t;
  macros : (string, value) Hashtbl.t;
  mutable fuel : int;
  mutable stmts_executed : int;
}

(* a function activation: its cells, and the typing of its locals for
   the ternaries (their result type depends on both arms) *)
type frame = {
  cells : (string, cell) Hashtbl.t;
  mutable locals : (string * Mir_env.vty) list;
}

let loop_fuel_budget = 100_000_000

let rec new_cell env (vt : Mir_env.vty) : cell =
  match vt with
  | Mir_env.Scalar (Mir.Tint ity) -> Cint { ity; i = 0L }
  | Mir_env.Scalar ((Mir.Tf32 | Mir.Tf64) as fty) -> Cflt { fty; f = 0.0 }
  | Mir_env.Scalar (Mir.Tnamed n) -> unsupported "unknown type name %s" n
  | Mir_env.Vstruct s ->
      let fields =
        Option.value ~default:[] (Hashtbl.find_opt env.Mir_env.structs s)
      in
      Cstruct (Array.of_list (List.map (fun (f, vt) -> (f, new_cell env vt)) fields))
  | Mir_env.Varray (vt, n) -> Carr (Array.init n (fun _ -> new_cell env vt))
  | Mir_env.Scalar Mir.Tunknown | Mir_env.Vunknown -> unsupported "untyped object"

let read_cell = function
  | Cint { ity; i } -> Vi (ity, i)
  | Cflt { fty; f } -> Vf (fty, f)
  | Carr _ | Cstruct _ -> unsupported "aggregate read as a value"

let write_cell mode c v =
  match c with
  | Cint r -> (
      match conv mode (Mir.Tint r.ity) v with
      | Vi (_, x) -> r.i <- x
      | Vf _ -> assert false)
  | Cflt r -> r.f <- to_double (conv mode r.fty v)
  | Carr _ | Cstruct _ -> unsupported "aggregate assignment"

let m_create mode env =
  let macros = Hashtbl.create 16 in
  List.iter
    (fun (n, ty, v) ->
      Hashtbl.replace macros n (Vi (Option.get (ity_of_ty ty), v)))
    Mir_env.limits;
  {
    mode;
    env;
    globals = Hashtbl.create 64;
    funcs = Hashtbl.create 32;
    macros;
    fuel = loop_fuel_budget;
    stmts_executed = 0;
  }

let rec cell_of m fr (p : Mir.place) : cell =
  match p with
  | Mir.Pvar v -> (
      match Hashtbl.find_opt fr.cells v with
      | Some c -> c
      | None -> (
          match Hashtbl.find_opt m.globals v with
          | Some c -> c
          | None -> fail "unbound identifier %s" v))
  | Mir.Pfield (b, f) -> (
      match cell_of m fr b with
      | Cstruct fields -> (
          let n = Array.length fields in
          let rec find i =
            if i >= n then fail "no field %s" f
            else
              let fn, c = fields.(i) in
              if String.equal fn f then c else find (i + 1)
          in
          find 0)
      | _ -> fail "field access %s on a non-struct" f)
  | Mir.Pindex (b, i) -> (
      let idx = Int64.to_int (to_int64 (eval m fr i)) in
      match cell_of m fr b with
      | Carr cells ->
          if idx < 0 || idx >= Array.length cells then
            fail "index %d out of bounds (%d)" idx (Array.length cells);
          cells.(idx)
      | _ -> fail "index into a non-array")

(* ---- expression evaluation ---- *)

and eval m fr (e : Mir.expr) : value =
  match e with
  | Mir.Kint (n, Mir.Dec) ->
      (* a decimal literal in generated code always fits in int *)
      vi i32 (Int64.of_int n)
  | Mir.Kint (n, Mir.Hex) -> vi { Mir.bits = 32; signed = false } (Int64.of_int n)
  | Mir.Kfloat x -> Vf (Mir.Tf64, x)
  | Mir.Load _ when m.mode = Fold -> raise Nonconst
  | Mir.Load (Mir.Pvar v) -> (
      match Hashtbl.find_opt fr.cells v with
      | Some c -> read_cell c
      | None -> (
          match Hashtbl.find_opt m.globals v with
          | Some c -> read_cell c
          | None -> (
              match Hashtbl.find_opt m.macros v with
              | Some value -> value
              | None -> fail "unbound identifier %s" v)))
  | Mir.Load p -> read_cell (cell_of m fr p)
  | Mir.Eun (op, a) -> unop op (eval m fr a)
  | Mir.Ebin (Mir.Land, a, b) ->
      bool_ (is_truthy (eval m fr a) && is_truthy (eval m fr b))
  | Mir.Ebin (Mir.Lor, a, b) ->
      bool_ (is_truthy (eval m fr a) || is_truthy (eval m fr b))
  | Mir.Ebin (op, a, b) ->
      let x = eval m fr a in
      binop m.mode op x (eval m fr b)
  | Mir.Ecast (cty, a) -> (
      let v = eval m fr a in
      match Mir_env.vty_of_cty m.env cty with
      | Mir_env.Scalar ty -> conv m.mode ty v
      | Mir_env.Vunknown when cty = C_ast.Void -> v (* (void)e discards *)
      | _ -> refuse m.mode "cast to a non-scalar type")
  | Mir.Equantize (k, a) -> quantize k (eval m fr a)
  | Mir.Esat16 a -> sat16 m.mode (eval m fr a)
  | Mir.Esat_add32 (a, b) ->
      let x = eval m fr a in
      sat_add32 m.mode x (eval m fr b)
  | Mir.Emul_shift (a, b, s) ->
      let x = eval m fr a in
      let y = eval m fr b in
      mul_shift m.mode x y (eval m fr s)
  | Mir.Ecall (f, args) ->
      if m.mode = Fold then raise Nonconst;
      let vs = List.map (eval m fr) args in
      call_value m f vs
  | Mir.Eselect (c, a, b) -> (
      (* C99 6.5.15p5: the result has the common type of both arms *)
      let ty e = Mir_env.ty_of_expr m.env fr.locals e in
      let taken = if is_truthy (eval m fr c) then a else b in
      match Mir_env.usual (ty a) (ty b) with
      | (Mir.Tunknown | Mir.Tnamed _) when m.mode = Fold -> raise Nonconst
      | Mir.Tunknown | Mir.Tnamed _ -> eval m fr taken
      | common -> conv m.mode common (eval m fr taken))
  | Mir.Eopaque ce ->
      if m.mode = Fold then raise Nonconst;
      unsupported "opaque expression %s" (C_print.expr_to_string ce)

(* ---- calls: unit functions, then libm ---- *)

(* a call in expression context; a void function yields int 0 *)
and call_value m f vs =
  match call_fn m f vs with
  | Some v -> v
  | None -> Vi (i32, 0L)

and call_fn m fname (args : value list) : value option =
  match Hashtbl.find_opt m.funcs fname with
  | Some (f, body) ->
      if List.length args <> List.length f.C_ast.args then
        fail "%s: %d arguments, %d expected" fname (List.length args)
          (List.length f.C_ast.args);
      let fr = { cells = Hashtbl.create 16; locals = [] } in
      List.iter2
        (fun (cty, n) v ->
          let vt = Mir_env.vty_of_cty m.env cty in
          let c = new_cell m.env vt in
          write_cell m.mode c v;
          Hashtbl.replace fr.cells n c;
          fr.locals <- (n, vt) :: fr.locals)
        f.C_ast.args args;
      let result = exec_list m fr body in
      if f.C_ast.ret = C_ast.Void then None
      else (
        match result with
        | Some v -> (
            match Mir_env.vty_of_cty m.env f.C_ast.ret with
            | Mir_env.Scalar ty -> Some (conv m.mode ty v)
            | _ -> unsupported "%s: aggregate return" fname)
        | None -> fail "%s: fell off a non-void function" fname)
  | None -> (
      match (Mir_env.libm fname, args) with
      | Some (Mir_env.F1 f), [ x ] -> Some (Vf (Mir.Tf64, f (to_double x)))
      | Some (Mir_env.F2 f), [ x; y ] ->
          Some (Vf (Mir.Tf64, f (to_double x) (to_double y)))
      | Some (Mir_env.L1 f), [ x ] -> Some (vi i32 (f (to_double x)))
      | Some _, _ -> fail "%s: wrong number of arguments" fname
      | None, _ -> unsupported "call to unknown function %s" fname)

(* ---- statements ---- *)

and burn m =
  m.fuel <- m.fuel - 1;
  if m.fuel <= 0 then fail "loop fuel exhausted (runaway loop?)"

(* [Some v] when the statement executed a return *)
and exec m fr (s : Mir.stmt) : value option =
  m.stmts_executed <- m.stmts_executed + 1;
  match s with
  | Mir.Sdecl (cty, name, init) ->
      (* the initialiser is evaluated before the name is in scope *)
      let v = Option.map (eval m fr) init in
      let vt = Mir_env.vty_of_cty m.env cty in
      let c = new_cell m.env vt in
      Option.iter (write_cell m.mode c) v;
      Hashtbl.replace fr.cells name c;
      fr.locals <- (name, vt) :: fr.locals;
      None
  | Mir.Sassign (p, e) ->
      let v = eval m fr e in
      write_cell m.mode (cell_of m fr p) v;
      None
  | Mir.Sexpr e ->
      ignore (eval m fr e);
      None
  | Mir.Sincr p ->
      let c = cell_of m fr p in
      write_cell m.mode c (binop m.mode Mir.Add (read_cell c) (Vi (i32, 1L)));
      None
  | Mir.Sif (c, t, e) ->
      if is_truthy (eval m fr c) then exec_list m fr t else exec_list m fr e
  | Mir.Swhile (c, b) ->
      let rec loop () =
        if is_truthy (eval m fr c) then (
          burn m;
          match exec_list m fr b with Some v -> Some v | None -> loop ())
        else None
      in
      loop ()
  | Mir.Sfor (i, c, u, b) ->
      ignore (exec m fr i);
      let rec loop () =
        if is_truthy (eval m fr c) then (
          burn m;
          match exec_list m fr b with
          | Some v -> Some v
          | None ->
              ignore (exec m fr u);
              loop ())
        else None
      in
      loop ()
  | Mir.Sreturn (Some e) -> Some (eval m fr e)
  | Mir.Sreturn None -> Some (Vi (i32, 0L))
  | Mir.Scomment _ -> None
  | Mir.Sblock b -> exec_list m fr b
  | Mir.Sopaque cs ->
      unsupported "opaque statement %s"
        (String.trim (C_print.print_stmts [ cs ]))

and exec_list m fr = function
  | [] -> None
  | s :: rest -> (
      match exec m fr s with Some v -> Some v | None -> exec_list m fr rest)

(* ---- constant evaluation ---- *)

let folder = m_create Fold (Mir_env.create [])
let no_frame () = { cells = Hashtbl.create 1; locals = [] }

(* constant evaluation that reports failure instead of raising *)
let const_eval e =
  match eval folder (no_frame ()) e with
  | v -> Some v
  | exception (Nonconst | Undefined _) -> None

(* run a body against named scalar globals ([Check] mode: undefined
   behaviour raises [Undefined]); returns their final values *)
let run env ~globals body =
  let m = m_create Check env in
  let fr = no_frame () in
  List.iter
    (fun (n, v) ->
      let ty = ty_of_value v in
      let c = new_cell env (Mir_env.Scalar ty) in
      write_cell Check c v;
      Hashtbl.replace fr.cells n c;
      fr.locals <- (n, Mir_env.Scalar ty) :: fr.locals)
    globals;
  ignore (exec_list m fr body);
  List.map (fun (n, _) -> (n, read_cell (Hashtbl.find fr.cells n))) globals

(* ---- the SIL reference engine ---- *)

(* load a lifted translation set: [env] and [funcs] as [Mir_unit.lift]
   produces them, [items] the C items of every unit (globals with their
   initialisers, object-like macros) *)
let create env (items : C_ast.item list) funcs =
  let m = m_create Run env in
  List.iter
    (function
      | C_ast.Define (n, body) -> (
          match int_of_string_opt body with
          | Some v -> Hashtbl.replace m.macros n (vi i32 (Int64.of_int v))
          | None -> (
              match float_of_string_opt body with
              | Some x -> Hashtbl.replace m.macros n (Vf (Mir.Tf64, x))
              | None -> () (* function-like or non-constant macro *)))
      | C_ast.Global { gty; gname; ginit; _ } ->
          let c = new_cell env (Mir_env.vty_of_cty env gty) in
          Option.iter
            (fun e -> write_cell Run c (eval m (no_frame ()) (Mir_of_c.lift_expr e)))
            ginit;
          Hashtbl.replace m.globals gname c
      | _ -> ())
    items;
  List.iter
    (fun ((f : C_ast.func), body) -> Hashtbl.replace m.funcs f.C_ast.fname (f, body))
    funcs;
  m

let has_func m name = Hashtbl.mem m.funcs name
let stmts_executed m = m.stmts_executed

(* a top-level call: the loop fuel is reset, as for one ISR activation *)
let call m fname args =
  m.fuel <- loop_fuel_budget;
  call_fn m fname args

(* [call m fname []] with the function resolved once (a nullary void
   function; anything else goes through [call]) *)
let entry m fname =
  match Hashtbl.find_opt m.funcs fname with
  | Some (f, body) when f.C_ast.args = [] && f.C_ast.ret = C_ast.Void ->
      fun () ->
        m.fuel <- loop_fuel_budget;
        ignore (exec_list m { cells = Hashtbl.create 16; locals = [] } body)
  | _ -> fun () -> ignore (call m fname [])

let read m p = eval m (no_frame ()) (Mir.Load p)
let write m p v = write_cell m.mode (cell_of m (no_frame ()) p) v

(* "%Ld:%c%d" for integers (value, signedness, width), "%.17g" for
   floats: the format divergence reports carry *)
let to_string = function
  | Vf (_, x) -> Printf.sprintf "%.17g" x
  | Vi (t, v) ->
      Printf.sprintf "%Ld:%c%d" v (if t.Mir.signed then 'i' else 'u') t.Mir.bits

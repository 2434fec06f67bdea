(* Closure-compile the generated application instead of interpreting it.

   The classic interpreter -> closure-compiler move: each function of
   the translation set is lifted into MIR ({!Mir_of_c}), and every MIR
   node is compiled ONCE into an OCaml closure over a flat mutable
   state; running a step is then just calling closures, with no AST
   dispatch, no hashtable lookups and no per-operation boxing. A
   function the compiler cannot cover (an opaque node, a 64-bit local)
   fails lazily, only when it is called.

   Bit-exactness contract: {!Mir_eval} is the reference semantics. For
   every program it executes in [Run] mode, the compiled closures
   produce the same value in every storage cell after every call —
   including the wrap/sat/cast/quantize corners and the error cases
   (division by zero, shift range, loop fuel). The tri-lockstep of
   {!Silvm_diff} and the equivalence battery in test_silvm_compile.ml
   hold this to every-block-output-every-step equality against the
   reference and against the MIL engine.

   Representation choices that make the fast path fast:
   - integer cells hold the canonical value (sign-extended /
     zero-extended, as in {!Mir_eval}) as a native [int] — every C type
     the generated code stores is <= 32 bits, so the canonical value
     always fits in OCaml's 63-bit int, and wrap-around at the
     operation width is a mask + conditional subtract;
   - float cells hold the double (binary32 cells store the value
     already rounded through {!to_f32}, like the reference store);
   - every expression has a static C type and compiles to an unboxed
     [st -> int] or [st -> float] closure; {!Mir_eval.value} appears
     only at call boundaries and externals;
   - the PIL exchange buffers live in a [Bigarray] of unsigned 16-bit
     cells, so batched runs can snapshot actuator traces with no
     boxing and compare them vectorized. *)

open C_ast

type ity = Mir.ity
type value = Mir_eval.value

let unsupported = Mir_eval.unsupported
let fail = Mir_eval.fail
let run = Mir_eval.Run

type ba16 = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* ---------------- run-time state (the instance) ---------------- *)

type st = {
  ints : int array;  (** canonical values of the <= 32-bit integer cells *)
  floats : float array;
  sensor : ba16;  (** pil_sensor_buf *)
  actuator : ba16;  (** pil_actuator_buf *)
  externals : (string, value list -> value) Hashtbl.t;
  mutable fuel : int;
}

(* ---------------- compile-time layout ---------------- *)

type fwidth = [ `F32 | `F64 ]

type storage =
  | Sint of ity * int  (** slot in [st.ints] *)
  | Sflt of fwidth * int  (** slot in [st.floats] *)
  | Sintarr of ity * int * int  (** base slot, length *)
  | Sfltarr of fwidth * int * int
  | Sstructv of (string * storage) array
  | Sxchg of [ `Sens | `Act ] * int  (** exchange buffer, length *)

type compiled_fn = {
  cf_params : (st -> value -> unit) array;
  cf_body : st -> unit;
  cf_ret : (value -> value) option;  (** [None] = void *)
}

(* a function whose body uses something outside the compiled subset
   (e.g. the 64-bit locals of the emitted pe_* helper bodies, which are
   intrinsics at every call site and therefore never invoked) fails
   lazily: the error only surfaces if the function is actually called *)
type fn_slot = Fn_ok of compiled_fn | Fn_fail of string

type code = {
  env : Mir_env.t;  (** layouts, typedefs and call return types *)
  globals : (string, storage) Hashtbl.t;
  macros : (string, value) Hashtbl.t;
  srcfns : (string, func) Hashtbl.t;
  fns : (string, fn_slot) Hashtbl.t;
  mutable n_ints : int;
  mutable n_floats : int;
  mutable n_sensor : int;
  mutable n_actuator : int;
  mutable int_init : (int * int) list;
  mutable float_init : (int * float) list;
}

let i32ty = { Mir.bits = 32; signed = true }
let u32ty = { Mir.bits = 32; signed = false }
let u16ty = { Mir.bits = 16; signed = false }
let u8ty = { Mir.bits = 8; signed = false }

(* wrap a native int into the canonical value range of [t] (<= 32 bits:
   the low bits of native arithmetic are exact, so mask + sign-adjust
   reproduces Mir_eval.norm) *)
let norm (t : ity) x =
  let m = (1 lsl t.Mir.bits) - 1 in
  let v = x land m in
  if t.Mir.signed && v land (1 lsl (t.Mir.bits - 1)) <> 0 then v - m - 1
  else v

let to_f32 = Mir_eval.round_f32

(* C float->int conversion, with the reference's run-time choice for
   NaN and out-of-range values *)
let trunc_to (t : ity) x = Int64.to_int (Mir_eval.float_to_int run t x)

(* the reference store's conversion into an integer cell *)
let int_of_value (t : ity) = function
  | Mir_eval.Vi (_, x) -> Int64.to_int (Mir_eval.norm t x)
  | Mir_eval.Vf (_, x) -> trunc_to t x

let fty_of_width = function `F32 -> Mir.Tf32 | `F64 -> Mir.Tf64

(* ---------------- compiled expressions ---------------- *)

(* every expression has a static type: an integer type or a double *)
type cexp = CI of ity * (st -> int) | CF of (st -> float)

(* boxed value, for call boundaries *)
let value_of = function
  | CI (t, f) -> fun st -> Mir_eval.Vi (t, Int64.of_int (f st))
  | CF f -> fun st -> Mir_eval.Vf (Mir.Tf64, f st)

(* numeric value as a double (canonical ints are exact in int64, so
   [float_of_int] equals the reference's Int64.to_float) *)
let fl = function CF f -> f | CI (_, f) -> fun st -> float_of_int (f st)

let truth = function
  | CI (_, f) -> fun st -> f st <> 0
  | CF f -> fun st -> f st <> 0.0

(* Mir_eval.to_int64: used for array subscripts and shift counts *)
let as_index = function
  | CI (_, f) -> f
  | CF f ->
      fun st ->
        let x = f st in
        if Float.is_nan x then 0
        else Int64.to_int (Int64.of_float (Float.trunc x))

(* conversion applied when an expression feeds an i32 helper parameter *)
let as_i32 = function
  | CI (t, f) ->
      if t.Mir.signed || t.Mir.bits < 32 then f
        (* canonical value of any narrower type is already in i32 range *)
      else fun st -> norm i32ty (f st)
  | CF f -> fun st -> trunc_to i32ty (f st)

let burn st =
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then fail "loop fuel exhausted (runaway loop?)"

(* non-local exit of a compiled function body *)
exception Creturn of value option

(* ---------------- storage layout ---------------- *)

let narrow (t : ity) =
  if t.Mir.bits > 32 then
    unsupported "64-bit storage in compiled SIL (reference engine only)";
  t

let alloc_int g =
  let k = g.n_ints in
  g.n_ints <- k + 1;
  k

let alloc_flt g =
  let k = g.n_floats in
  g.n_floats <- k + 1;
  k

let rec new_storage g (vt : Mir_env.vty) : storage =
  match vt with
  | Mir_env.Scalar (Mir.Tint t) -> Sint (narrow t, alloc_int g)
  | Mir_env.Scalar Mir.Tf64 -> Sflt (`F64, alloc_flt g)
  | Mir_env.Scalar Mir.Tf32 -> Sflt (`F32, alloc_flt g)
  | Mir_env.Vstruct s ->
      let fields = Option.value ~default:[] (Hashtbl.find_opt g.env.Mir_env.structs s) in
      Sstructv
        (Array.of_list (List.map (fun (fn, fvt) -> (fn, new_storage g fvt)) fields))
  | Mir_env.Varray (Mir_env.Scalar (Mir.Tint t), n) ->
      let t = narrow t in
      let base = g.n_ints in
      g.n_ints <- base + n;
      Sintarr (t, base, n)
  | Mir_env.Varray (Mir_env.Scalar ((Mir.Tf32 | Mir.Tf64) as fty), n) ->
      let base = g.n_floats in
      g.n_floats <- base + n;
      Sfltarr ((if fty = Mir.Tf32 then `F32 else `F64), base, n)
  | Mir_env.Varray _ -> unsupported "array of aggregates"
  | Mir_env.Scalar (Mir.Tnamed n) -> unsupported "unknown type name %s" n
  | Mir_env.Scalar Mir.Tunknown | Mir_env.Vunknown -> unsupported "untyped object"

(* ---------------- lvalues ---------------- *)

(* getter plus a normalizing setter (the setter performs the reference
   store's wrap / binary32 rounding) *)
type lval =
  | LI of ity * (st -> int) * (st -> int -> unit)
  | LF of fwidth * (st -> float) * (st -> float -> unit)

let lval_of_storage = function
  | Sint (t, k) ->
      LI
        ( t,
          (fun st -> Array.unsafe_get st.ints k),
          fun st x -> Array.unsafe_set st.ints k (norm t x) )
  | Sflt (`F64, k) ->
      LF
        ( `F64,
          (fun st -> Array.unsafe_get st.floats k),
          fun st x -> Array.unsafe_set st.floats k x )
  | Sflt (`F32, k) ->
      LF
        ( `F32,
          (fun st -> Array.unsafe_get st.floats k),
          fun st x -> Array.unsafe_set st.floats k (to_f32 x) )
  | Sintarr _ | Sfltarr _ | Sstructv _ | Sxchg _ ->
      unsupported "aggregate read as a value"

let check_index len i =
  if i < 0 || i >= len then fail "index %d out of bounds (%d)" i len;
  i

let xchg_buf st = function `Sens -> st.sensor | `Act -> st.actuator

let index_lval stor (ix : st -> int) : lval =
  match stor with
  | Sintarr (t, base, len) ->
      LI
        ( t,
          (fun st -> Array.unsafe_get st.ints (base + check_index len (ix st))),
          fun st x ->
            Array.unsafe_set st.ints (base + check_index len (ix st)) (norm t x)
        )
  | Sfltarr (w, base, len) ->
      let round = match w with `F64 -> fun x -> x | `F32 -> to_f32 in
      LF
        ( w,
          (fun st -> Array.unsafe_get st.floats (base + check_index len (ix st))),
          fun st x ->
            Array.unsafe_set st.floats
              (base + check_index len (ix st))
              (round x) )
  | Sxchg (which, len) ->
      LI
        ( u16ty,
          (fun st -> Bigarray.Array1.get (xchg_buf st which) (check_index len (ix st))),
          fun st x ->
            Bigarray.Array1.set (xchg_buf st which)
              (check_index len (ix st))
              (norm u16ty x) )
  | Sint _ | Sflt _ | Sstructv _ -> fail "index into a non-array"

(* the reference store's write, from a compiled RHS *)
let store (lv : lval) (e : cexp) : st -> unit =
  match (lv, e) with
  | LI (_, _, set), CI (_, f) -> fun st -> set st (f st)
  | LI (t, _, set), CF f -> fun st -> set st (trunc_to t (f st))
  | LF (_, _, set), e ->
      let f = fl e in
      fun st -> set st (f st)

(* ---------------- scalar constants ---------------- *)

let const_of_value = function
  | Mir_eval.Vi (t, v) when t.Mir.bits <= 32 ->
      let x = Int64.to_int v in
      CI (t, fun _ -> x)
  | Mir_eval.Vf (_, x) -> CF (fun _ -> x)
  | Mir_eval.Vi _ -> unsupported "64-bit constant in compiled SIL"

let int_lit n =
  let v = norm i32ty n in
  CI (i32ty, fun _ -> v)

(* a hex literal prints with a U suffix: unsigned int *)
let hex_lit n =
  let v = norm u32ty n in
  CI (u32ty, fun _ -> v)

(* the boxed result of a call, at its static type [ty] *)
let typed_result (ty : Mir.ty) (f : st -> value) : cexp =
  match ty with
  | Mir.Tint t when t.Mir.bits <= 32 -> CI (t, fun st -> int_of_value t (f st))
  | Mir.Tf64 -> CF (fun st -> Mir_eval.to_double (f st))
  | Mir.Tf32 -> CF (fun st -> to_f32 (Mir_eval.to_double (f st)))
  | _ -> unsupported "call result outside the compiled subset"

(* ---------------- expression compilation ---------------- *)

(* integer promotion then the usual arithmetic conversions, decided at
   compile time: the canonical value is unchanged by promotion, so only
   a conversion to a *different* common type costs a wrap *)
let promote_ity (t : ity) = if t.Mir.bits < 32 then i32ty else t

let common_ity (a : ity) (b : ity) =
  match Mir_env.usual (Mir.Tint a) (Mir.Tint b) with
  | Mir.Tint t -> t
  | _ -> assert false

let conv_to (t : ity) (src : ity) (f : st -> int) : st -> int =
  if src = t then f else fun st -> norm t (f st)

type scope = (string, storage) Hashtbl.t

let rec compile_expr g (scope : scope) (e : Mir.expr) : cexp =
  match e with
  | Mir.Kint (n, Mir.Dec) -> int_lit n
  | Mir.Kint (n, Mir.Hex) -> hex_lit n
  | Mir.Kfloat x -> CF (fun _ -> x)
  | Mir.Load (Mir.Pvar v)
    when (not (Hashtbl.mem scope v)) && not (Hashtbl.mem g.globals v) -> (
      match Hashtbl.find_opt g.macros v with
      | Some value -> const_of_value value
      | None -> fail "unbound identifier %s" v)
  | Mir.Load p -> (
      match compile_lval g scope p with
      | LI (t, get, _) -> CI (t, get)
      | LF (_, get, _) -> CF get)
  | Mir.Eun (Mir.Neg, a) -> (
      match compile_expr g scope a with
      | CI (t, f) ->
          let t = promote_ity t in
          CI (t, fun st -> norm t (-f st))
      | CF f -> CF (fun st -> -.f st))
  | Mir.Eun (Mir.Lnot, a) ->
      let tc = truth (compile_expr g scope a) in
      CI (i32ty, fun st -> if tc st then 0 else 1)
  | Mir.Ebin (Mir.Land, a, b) ->
      let ta = truth (compile_expr g scope a)
      and tb = truth (compile_expr g scope b) in
      CI (i32ty, fun st -> if ta st && tb st then 1 else 0)
  | Mir.Ebin (Mir.Lor, a, b) ->
      let ta = truth (compile_expr g scope a)
      and tb = truth (compile_expr g scope b) in
      CI (i32ty, fun st -> if ta st || tb st then 1 else 0)
  | Mir.Ebin (op, a, b) ->
      compile_bin op (compile_expr g scope a) (compile_expr g scope b)
  | Mir.Ecast (cty, a) -> compile_cast g cty (compile_expr g scope a)
  | Mir.Equantize (k, a) -> compile_quantize k (fl (compile_expr g scope a))
  | Mir.Esat16 a ->
      let f = as_i32 (compile_expr g scope a) in
      CI
        ( { Mir.bits = 16; signed = true },
          fun st ->
            let x = f st in
            if x > 32767 then 32767 else if x < -32768 then -32768 else x )
  | Mir.Esat_add32 (a, b) ->
      let fa = as_i32 (compile_expr g scope a)
      and fb = as_i32 (compile_expr g scope b) in
      CI
        ( i32ty,
          fun st ->
            let s = fa st + fb st in
            if s > 0x7FFFFFFF then 0x7FFFFFFF
            else if s < -0x80000000 then -0x80000000
            else s )
  | Mir.Emul_shift (a, b, s) ->
      let fa = as_i32 (compile_expr g scope a)
      and fb = as_i32 (compile_expr g scope b)
      and fs = as_i32 (compile_expr g scope s) in
      CI
        ( i32ty,
          fun st ->
            (* the helper body, op for op: i64 product, rounding bias,
               arithmetic shift, truncating cast *)
            let x = fa st and y = fb st and sh = fs st in
            Mir_eval.check_mul_shift run sh;
            let p = Int64.mul (Int64.of_int x) (Int64.of_int y) in
            let p = Int64.add p (Int64.shift_left 1L (sh - 1)) in
            norm i32ty (Int64.to_int (Int64.shift_right p sh)) )
  | Mir.Ecall (f, args) -> compile_call g scope f args
  | Mir.Eselect (c, a, b) -> (
      (* C99 6.5.15p5: the taken arm converts to the common type *)
      let tc = truth (compile_expr g scope c) in
      match (compile_expr g scope a, compile_expr g scope b) with
      | CI (ta, fa), CI (tb, fb) ->
          let t = common_ity ta tb in
          let fa = conv_to t ta fa and fb = conv_to t tb fb in
          CI (t, fun st -> if tc st then fa st else fb st)
      | ca, cb ->
          let fa = fl ca and fb = fl cb in
          CF (fun st -> if tc st then fa st else fb st))
  | Mir.Eopaque ce ->
      unsupported "opaque expression %s" (C_print.expr_to_string ce)

and compile_bin op (a : cexp) (b : cexp) : cexp =
  match (a, b) with
  | CI (ta, fa0), CI (tb, fb0) -> (
      let pa = promote_ity ta in
      let t = common_ity ta tb in
      let fa = conv_to t ta fa0 and fb = conv_to t tb fb0 in
      let cmp test = CI (i32ty, fun st -> if test (compare (fa st) (fb st)) then 1 else 0) in
      match op with
      | Mir.Add -> CI (t, fun st -> norm t (fa st + fb st))
      | Mir.Sub -> CI (t, fun st -> norm t (fa st - fb st))
      | Mir.Mul -> CI (t, fun st -> norm t (fa st * fb st))
      | Mir.Div ->
          CI
            ( t,
              fun st ->
                let x = fa st in
                let y = fb st in
                if y = 0 then Mir_eval.division_by_zero run;
                norm t (x / y) )
      | Mir.Mod ->
          CI
            ( t,
              fun st ->
                let x = fa st in
                let y = fb st in
                if y = 0 then Mir_eval.division_by_zero run;
                norm t (x mod y) )
      | Mir.Shl ->
          let bits = pa.Mir.bits in
          let fx = fa0 and fn_ = as_index b in
          CI
            ( pa,
              fun st ->
                let x = fx st in
                let n = fn_ st in
                Mir_eval.check_shift run n bits;
                norm pa (x lsl n) )
      | Mir.Shr ->
          let bits = pa.Mir.bits in
          let signed = pa.Mir.signed in
          let fx = fa0 and fn_ = as_index b in
          CI
            ( pa,
              fun st ->
                let x = fx st in
                let n = fn_ st in
                Mir_eval.check_shift run n bits;
                if signed then x asr n else x lsr n )
      | Mir.Band -> CI (t, fun st -> norm t (fa st land fb st))
      | Mir.Bor -> CI (t, fun st -> norm t (fa st lor fb st))
      | Mir.Bxor -> CI (t, fun st -> norm t (fa st lxor fb st))
      | Mir.Eq -> cmp (fun c -> c = 0)
      | Mir.Ne -> cmp (fun c -> c <> 0)
      | Mir.Lt -> cmp (fun c -> c < 0)
      | Mir.Le -> cmp (fun c -> c <= 0)
      | Mir.Gt -> cmp (fun c -> c > 0)
      | Mir.Ge -> cmp (fun c -> c >= 0)
      | Mir.Land | Mir.Lor -> assert false)
  | _ -> (
      let fa = fl a and fb = fl b in
      match op with
      | Mir.Add -> CF (fun st -> fa st +. fb st)
      | Mir.Sub -> CF (fun st -> fa st -. fb st)
      | Mir.Mul -> CF (fun st -> fa st *. fb st)
      | Mir.Div -> CF (fun st -> fa st /. fb st)
      | Mir.Lt -> CI (i32ty, fun st -> if fa st < fb st then 1 else 0)
      | Mir.Le -> CI (i32ty, fun st -> if fa st <= fb st then 1 else 0)
      | Mir.Gt -> CI (i32ty, fun st -> if fa st > fb st then 1 else 0)
      | Mir.Ge -> CI (i32ty, fun st -> if fa st >= fb st then 1 else 0)
      | Mir.Eq -> CI (i32ty, fun st -> if fa st = fb st then 1 else 0)
      | Mir.Ne -> CI (i32ty, fun st -> if fa st <> fb st then 1 else 0)
      | _ ->
          let name = Mir.bop_name op in
          CF (fun _ -> fail "operator %s on float operands" name))

and compile_cast g (ty : cty) (a : cexp) : cexp =
  match Mir_env.vty_of_cty g.env ty with
  | Mir_env.Scalar Mir.Tf64 -> CF (fl a)
  | Mir_env.Scalar Mir.Tf32 ->
      let f = fl a in
      CF (fun st -> to_f32 (f st))
  | Mir_env.Scalar (Mir.Tint t) when t.Mir.bits <= 32 -> (
      match a with
      | CI (ta, f) -> if ta = t then a else CI (t, fun st -> norm t (f st))
      | CF f -> CI (t, fun st -> trunc_to t (f st)))
  | Mir_env.Scalar (Mir.Tint _) ->
      unsupported "64-bit cast in compiled SIL (reference engine only)"
  | _ when ty = Void -> a (* (void)e discards the value *)
  | _ -> unsupported "cast to a non-scalar type"

and compile_quantize k (af : st -> float) : cexp =
  let t = Option.get (Mir_eval.ity_of_ty (Mir.qkind_ty k)) in
  match k with
  | Mir.Qb -> CI (u8ty, fun st -> if af st <> 0.0 then 1 else 0)
  | _ ->
      let lo, hi = Mir.qkind_bounds k in
      let lo_i = trunc_to t lo and hi_i = trunc_to t hi in
      CI
        ( t,
          fun st ->
            let x = af st in
            if Float.is_nan x then 0
            else
              let r = Float.round x in
              if r >= hi then hi_i
              else if r <= lo then lo_i
              else trunc_to t r )

(* calls resolve like the reference: unit functions, then externals
   (registered per instance, after compilation), then libm *)
and compile_call g scope f args : cexp =
  let cargs = List.map (compile_expr g scope) args in
  let vargs = Array.of_list (List.map value_of cargs) in
  let values st = Array.to_list (Array.map (fun d -> d st) vargs) in
  if Hashtbl.mem g.srcfns f then
    let call st = call_fn g st f (values st) in
    if (Hashtbl.find g.srcfns f).ret = Void then
      (* a void call in expression context yields int 0 *)
      CI (i32ty, fun st -> ignore (call st); 0)
    else typed_result (Mir_eval.call_ty g.env f) (fun st -> Option.get (call st))
  else
    let external_or fallback st =
      match Hashtbl.find_opt st.externals f with
      | Some fn -> fn (values st)
      | None -> fallback st
    in
    (* the libm fast path: an unboxed double unless an external of the
       same name is registered *)
    let external_or_double fallback =
      CF
        (fun st ->
          match Hashtbl.find_opt st.externals f with
          | Some ext -> Mir_eval.to_double (ext (values st))
          | None -> fallback st)
    in
    match (Mir_env.libm f, cargs) with
    | Some (Mir_env.F1 fn), [ a ] ->
        let fa = fl a in
        external_or_double (fun st -> fn (fa st))
    | Some (Mir_env.F2 fn), [ a; b ] ->
        let fa = fl a and fb = fl b in
        external_or_double (fun st -> fn (fa st) (fb st))
    | Some (Mir_env.L1 fn), [ a ] ->
        let fa = fl a in
        typed_result Mir.i32
          (external_or (fun st -> Mir_eval.Vi (i32ty, fn (fa st))))
    | Some _, _ -> fail "%s: wrong number of arguments" f
    | None, _ ->
        typed_result (Mir_eval.call_ty g.env f)
          (external_or (fun _ -> unsupported "call to unknown function %s" f))

(* invoke a compiled (or lazily failed) model function *)
and call_fn g st fname (args : value list) : value option =
  match Hashtbl.find_opt g.fns fname with
  | Some (Fn_ok fn) ->
      let n = Array.length fn.cf_params in
      if List.length args <> n then
        fail "%s: %d arguments, %d expected" fname (List.length args) n;
      List.iteri (fun i v -> fn.cf_params.(i) st v) args;
      let result =
        match fn.cf_body st with
        | () -> None
        | exception Creturn v -> v
      in
      (match (fn.cf_ret, result) with
      | None, _ -> None
      | Some cast, Some v -> Some (cast v)
      | Some _, None -> fail "%s: fell off a non-void function" fname)
  | Some (Fn_fail msg) -> raise (Mir_eval.Unsupported msg)
  | None -> (
      match Hashtbl.find_opt st.externals fname with
      | Some f -> Some (f args)
      | None -> unsupported "call to unknown function %s" fname)

(* ---------------- places ---------------- *)

and storage_of_place g scope (p : Mir.place) : storage =
  match p with
  | Mir.Pvar v -> (
      match Hashtbl.find_opt scope v with
      | Some s -> s
      | None -> (
          match Hashtbl.find_opt g.globals v with
          | Some s -> s
          | None -> fail "unbound identifier %s" v))
  | Mir.Pfield (b, f) -> (
      match storage_of_place g scope b with
      | Sstructv fields -> (
          let n = Array.length fields in
          let rec find i =
            if i >= n then fail "no field %s" f
            else
              let fn, s = fields.(i) in
              if String.equal fn f then s else find (i + 1)
          in
          find 0)
      | _ -> fail "field access %s on a non-struct" f)
  | Mir.Pindex _ -> unsupported "nested array subscript"

and compile_lval g scope (p : Mir.place) : lval =
  match p with
  | Mir.Pindex (base, idx) ->
      let stor = storage_of_place g scope base in
      let ix = as_index (compile_expr g scope idx) in
      index_lval stor ix
  | _ -> lval_of_storage (storage_of_place g scope p)

(* ---------------- statements ---------------- *)

and seq (fs : (st -> unit) list) : st -> unit =
  match fs with
  | [] -> fun _ -> ()
  | [ f ] -> f
  | [ f1; f2 ] ->
      fun st ->
        f1 st;
        f2 st
  | fs ->
      let a = Array.of_list fs in
      let n = Array.length a in
      fun st ->
        for i = 0 to n - 1 do
          (Array.unsafe_get a i) st
        done

and zero_storage = function
  | Sint (_, k) -> fun st -> Array.unsafe_set st.ints k 0
  | Sflt (_, k) -> fun st -> Array.unsafe_set st.floats k 0.0
  | Sintarr (_, base, len) ->
      fun st -> Array.fill st.ints base len 0
  | Sfltarr (_, base, len) ->
      fun st -> Array.fill st.floats base len 0.0
  | Sstructv _ | Sxchg _ -> unsupported "aggregate local"

and new_local g scope (ty : cty) name : storage =
  let stor =
    match Mir_env.vty_of_cty g.env ty with
    | Mir_env.Scalar _ as vt -> new_storage g vt
    | _ -> unsupported "aggregate local"
  in
  Hashtbl.replace scope name stor;
  stor

and compile_stmt g scope (s : Mir.stmt) : (st -> unit) option =
  match s with
  | Mir.Scomment _ -> None
  | Mir.Sdecl (cty, n, init) -> (
      (* declaration order equals execution order in the generated
         straight-line code, so binding the name from here on mirrors
         the reference engine's dynamic frame *)
      match init with
      | None ->
          let stor = new_local g scope cty n in
          Some (zero_storage stor)
      | Some e ->
          (* the initialiser is compiled in the scope *before* the
             declaration, like the reference evaluates it *)
          let ce = compile_expr g scope e in
          let stor = new_local g scope cty n in
          Some (store (lval_of_storage stor) ce))
  | Mir.Sassign (p, e) ->
      let ce = compile_expr g scope e in
      Some (store (compile_lval g scope p) ce)
  | Mir.Sexpr e -> (
      match compile_expr g scope e with
      | CI (_, f) -> Some (fun st -> ignore (f st))
      | CF f -> Some (fun st -> ignore (f st)))
  | Mir.Sincr p -> (
      match compile_lval g scope p with
      | LI (_, get, set) -> Some (fun st -> set st (get st + 1))
      | LF (_, get, set) -> Some (fun st -> set st (get st +. 1.0)))
  | Mir.Sif (c, t, e) ->
      let tc = truth (compile_expr g scope c) in
      let ft = compile_stmts g scope t in
      let fe = compile_stmts g scope e in
      Some (fun st -> if tc st then ft st else fe st)
  | Mir.Swhile (c, b) ->
      let tc = truth (compile_expr g scope c) in
      let fb = compile_stmts g scope b in
      Some
        (fun st ->
          while tc st do
            burn st;
            fb st
          done)
  | Mir.Sfor (i, c, u, b) ->
      let fi = Option.value (compile_stmt g scope i) ~default:(fun _ -> ()) in
      let tc = truth (compile_expr g scope c) in
      let fb = compile_stmts g scope b in
      let fu = Option.value (compile_stmt g scope u) ~default:(fun _ -> ()) in
      Some
        (fun st ->
          fi st;
          while tc st do
            burn st;
            fb st;
            fu st
          done)
  | Mir.Sreturn e ->
      let d = Option.map (fun e -> value_of (compile_expr g scope e)) e in
      Some (fun st -> raise (Creturn (Option.map (fun f -> f st) d)))
  | Mir.Sblock b -> Some (compile_stmts g scope b)
  | Mir.Sopaque cs ->
      unsupported "opaque statement %s" (String.trim (C_print.print_stmts [ cs ]))

and compile_stmts g scope (ss : Mir.stmt list) : st -> unit =
  seq (List.filter_map (compile_stmt g scope) ss)

(* ---------------- functions ---------------- *)

(* a parameter store: the reference store's conversion of a boxed
   argument into the cell *)
let value_setter stor =
  match lval_of_storage stor with
  | LI (t, _, set) -> fun st v -> set st (int_of_value t v)
  | LF (_, _, set) -> fun st v -> set st (Mir_eval.to_double v)

let ret_cast g (ty : cty) : (value -> value) option =
  match Mir_env.vty_of_cty g.env ty with
  | _ when ty = Void -> None
  | Mir_env.Scalar Mir.Tf64 ->
      Some (fun v -> Mir_eval.Vf (Mir.Tf64, Mir_eval.to_double v))
  | Mir_env.Scalar Mir.Tf32 ->
      Some (fun v -> Mir_eval.Vf (Mir.Tf32, to_f32 (Mir_eval.to_double v)))
  | Mir_env.Scalar (Mir.Tint t) when t.Mir.bits <= 32 ->
      Some (fun v -> Mir_eval.Vi (t, Int64.of_int (int_of_value t v)))
  | Mir_env.Scalar (Mir.Tint _) ->
      unsupported "64-bit return in compiled SIL (reference engine only)"
  | _ -> unsupported "aggregate return"

let compile_fn g (f : func) (body : Mir.stmt list) : compiled_fn =
  let scope : scope = Hashtbl.create 16 in
  let params =
    Array.of_list
      (List.map (fun (ty, n) -> value_setter (new_local g scope ty n)) f.args)
  in
  let body = compile_stmts g scope body in
  { cf_params = params; cf_body = body; cf_ret = ret_cast g f.ret }

(* ---------------- translation-unit processing ---------------- *)

let is_xchg_name n =
  String.equal n "pil_sensor_buf" || String.equal n "pil_actuator_buf"

let add_unit g (u : cunit) =
  List.iter
    (fun item ->
      match item with
      | Include _ | Include_local _ | Item_comment _ | Proto _ | Raw_item _
      | Typedef _ | Struct_def _ ->
          ()
      | Define (n, body) -> (
          match int_of_string_opt body with
          | Some v -> Hashtbl.replace g.macros n (Mir_eval.vi i32ty (Int64.of_int v))
          | None -> (
              match float_of_string_opt body with
              | Some x -> Hashtbl.replace g.macros n (Mir_eval.Vf (Mir.Tf64, x))
              | None -> () (* function-like or non-constant macro *)))
      | Global { gty; gname; ginit; _ } ->
          let stor =
            match gty with
            | Arr (U16, n) when is_xchg_name gname ->
                if String.equal gname "pil_sensor_buf" then (
                  g.n_sensor <- n;
                  Sxchg (`Sens, n))
                else (
                  g.n_actuator <- n;
                  Sxchg (`Act, n))
            | _ -> new_storage g (Mir_env.vty_of_cty g.env gty)
          in
          (match ginit with
          | None -> ()
          | Some init ->
              let v =
                match init with
                | Int_lit v | Hex_lit v -> Mir_eval.vi i32ty (Int64.of_int v)
                | Float_lit x -> Mir_eval.Vf (Mir.Tf64, x)
                | Un ("-", Int_lit v) -> Mir_eval.vi i32ty (Int64.of_int (-v))
                | Un ("-", Float_lit x) -> Mir_eval.Vf (Mir.Tf64, -.x)
                | _ -> unsupported "non-literal initialiser for global %s" gname
              in
              (match stor with
              | Sint (t, k) -> g.int_init <- (k, int_of_value t v) :: g.int_init
              | Sflt (w, k) ->
                  let x = Mir_eval.to_double v in
                  let x = match w with `F64 -> x | `F32 -> to_f32 x in
                  g.float_init <- (k, x) :: g.float_init
              | _ -> unsupported "initialiser for aggregate global %s" gname));
          Hashtbl.replace g.globals gname stor
      | Func_def f -> Hashtbl.replace g.srcfns f.fname f)
    u.items

let compile (units : cunit list) : code =
  let macros = Hashtbl.create 16 in
  List.iter
    (fun (n, ty, v) ->
      Hashtbl.replace macros n
        (Mir_eval.Vi (Option.get (Mir_eval.ity_of_ty ty), v)))
    Mir_env.limits;
  let g =
    {
      env = Mir_env.create (List.concat_map (fun u -> u.items) units);
      globals = Hashtbl.create 64;
      macros;
      srcfns = Hashtbl.create 32;
      fns = Hashtbl.create 32;
      n_ints = 0;
      n_floats = 0;
      n_sensor = 0;
      n_actuator = 0;
      int_init = [];
      float_init = [];
    }
  in
  List.iter (add_unit g) units;
  (* compile every function; a body outside the compiled subset fails
     lazily at call time *)
  Hashtbl.iter
    (fun name f ->
      let slot =
        match compile_fn g f (Mir_of_c.lift_stmts f.body) with
        | fn -> Fn_ok fn
        | exception (Mir_eval.Unsupported msg | Mir_eval.Runtime_error msg) ->
            Fn_fail (Printf.sprintf "%s: %s" name msg)
      in
      Hashtbl.replace g.fns name slot)
    g.srcfns;
  g

(* ---------------- instances ---------------- *)

let instantiate (g : code) : st =
  let ints = Array.make (max 1 g.n_ints) 0 in
  let floats = Array.make (max 1 g.n_floats) 0.0 in
  List.iter (fun (k, v) -> ints.(k) <- v) g.int_init;
  List.iter (fun (k, x) -> floats.(k) <- x) g.float_init;
  let mk n =
    let a = Bigarray.Array1.create Bigarray.int16_unsigned Bigarray.c_layout n in
    Bigarray.Array1.fill a 0;
    a
  in
  {
    ints;
    floats;
    sensor = mk g.n_sensor;
    actuator = mk g.n_actuator;
    externals = Hashtbl.create 8;
    fuel = Mir_eval.loop_fuel_budget;
  }

let register_external st name f = Hashtbl.replace st.externals name f
let has_func (g : code) name = Hashtbl.mem g.fns name

let call (g : code) st fname args =
  st.fuel <- Mir_eval.loop_fuel_budget;
  call_fn g st fname args

(* a nullary void function resolved once, for the calls of every step:
   no name lookup and no argument list per call; anything else (and an
   uncompiled function, which must raise when called) goes through
   [call] *)
let entry (g : code) fname =
  match Hashtbl.find_opt g.fns fname with
  | Some (Fn_ok { cf_params = [||]; cf_body; cf_ret = None }) ->
      fun st ->
        st.fuel <- Mir_eval.loop_fuel_budget;
        (try cf_body st with Creturn _ -> ())
  | _ -> fun st -> ignore (call g st fname [])

(* fast typed accessors for the exchange buffers *)
let set_sensor st slot v = Bigarray.Array1.set st.sensor slot (v land 0xFFFF)
let actuator st slot = Bigarray.Array1.get st.actuator slot
let actuator_buf st = st.actuator
let actuator_count (g : code) = g.n_actuator

(* ad-hoc reads of global storage (block-output signals): compiled
   once, then just a typed closure call per step *)
type typed = TI of ity * (st -> int) | TF of Mir.ty * (st -> float)

let reader (g : code) (e : C_ast.expr) : typed =
  let lval = compile_lval g (Hashtbl.create 1) in
  match Option.map lval (Mir_of_c.lift_place e) with
  | Some (LI (t, get, _)) -> TI (t, get)
  | Some (LF (w, get, _)) -> TF (fty_of_width w, get)
  | None -> unsupported "expression is not an lvalue"

(* ---------------- content-hashed compile cache ----------------

   Same shape as {!Compile_cache} (lib/exec): a global table guarded by
   a mutex, compilation outside the lock, last write wins on a race.
   The key is a digest of the translation units' structure, so repeated
   submissions of identical generated code share one compiled [code]
   across the whole process — every domain of a campaign pool
   instantiates its own [st] over the shared closures. *)

let cache : (string, code) Hashtbl.t = Hashtbl.create 16
let cache_mutex = Mutex.create ()
let cache_hits = ref 0
let cache_misses = ref 0
let c_hits = Obs.counter "silvm.cache.hits"
let c_misses = Obs.counter "silvm.cache.misses"

let digest (units : cunit list) =
  Digest.to_hex (Digest.string (Marshal.to_string units []))

let compile_cached (units : cunit list) : code =
  let key = digest units in
  Mutex.lock cache_mutex;
  match Hashtbl.find_opt cache key with
  | Some code ->
      incr cache_hits;
      Mutex.unlock cache_mutex;
      Obs.add c_hits 1;
      Flight.engine ("silvm.cache.hit " ^ String.sub key 0 8);
      code
  | None ->
      incr cache_misses;
      Mutex.unlock cache_mutex;
      Obs.add c_misses 1;
      Flight.engine ("silvm.compile " ^ String.sub key 0 8);
      let t0 = if Obs.enabled () then Obs.now_ns () else 0.0 in
      let code = compile units in
      if Obs.enabled () then
        Obs.record_named "profile.silvm.compile_s"
          ((Obs.now_ns () -. t0) *. 1e-9);
      Mutex.lock cache_mutex;
      Hashtbl.replace cache key code;
      Mutex.unlock cache_mutex;
      code

let cache_stats () =
  Mutex.lock cache_mutex;
  let r = (!cache_hits, !cache_misses) in
  Mutex.unlock cache_mutex;
  r

let cache_clear () =
  Mutex.lock cache_mutex;
  Hashtbl.reset cache;
  cache_hits := 0;
  cache_misses := 0;
  Mutex.unlock cache_mutex

(* Value-range analysis over the MIR CFG, and the saturation-op
   prover built on it.

   The domain is a map from canonical place paths to closed float
   intervals ({!Itv}); a missing key means "anything representable in the
   place's type". The solver is the generic worklist engine
   ([Dataflow.Solve]) with interval widening after a few visits of the
   same node, so loop counters converge without walking the whole
   int32 range.

   The prover classifies every [Esat16] / [Esat_add32] / [Equantize]
   site against the stabilised intervals with {!Itv.classify}: [Never]
   (the clamp can never change the value), [Always] (it fires on every
   execution) or [May]. *)

module Smap = Map.Make (String)

(* [None] is the unreachable (bottom) state; a present map binds the
   place paths about which something is known *)
module L = struct
  type t = Itv.t Smap.t option

  let bottom = None

  let equal a b =
    match (a, b) with
    | None, None -> true
    | Some a, Some b ->
        Smap.equal (fun x y -> compare x y = 0) a b
    | _ -> false

  let join a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b ->
        (* a key missing on either side is top there: drop it *)
        Some
          (Smap.merge
             (fun _ x y ->
               match (x, y) with
               | Some x, Some y -> Some (Itv.hull x y)
               | _ -> None)
             a b)
end

module Solver = Dataflow.Solve (L)

(* unbounded growth in loops: keep each bound that is still moving *)
let widen ~old ~next =
  match (old, next) with
  | None, x -> x
  | Some o, Some n ->
      Some
        (Smap.filter_map
           (fun k ni ->
             match Smap.find_opt k o with
             | None -> None (* key appeared late: give it up *)
             | Some oi -> Some (Itv.widen ~old:oi ni))
           n)
  | Some _, None -> None

(* ---- sat-site verdicts ---- *)

type sat_fact = {
  op : string;  (** helper name: pe_sat16 / pe_sat_add32 / pe_cast_* *)
  site : string;  (** C spelling of the whole saturating expression *)
  verdict : Itv.verdict;
  arg : Itv.t;  (** stabilised interval of the saturand *)
  bounds : Itv.t;  (** the clamp bounds of the op *)
}

(* round half away from zero, as the generated helpers do *)
let round_ha x =
  if x >= 0.0 then Float.floor (x +. 0.5) else Float.ceil (x -. 0.5)

let rounded (i : Itv.t) = Itv.make (round_ha i.lo) (round_ha i.hi)

(* ---- abstract evaluation ---- *)

type ctx = {
  env : Mir_env.t;
  locals : (string * Mir_env.vty) list;
  mutable record :
    (Mir.expr -> string -> Itv.verdict -> Itv.t -> Itv.t -> unit) option;
}

let ty_itv ty = let lo, hi = Mir_env.ty_range ty in Itv.make lo hi

let place_ty ctx p =
  Mir_env.scalar_of_vty (Mir_env.place_vty ctx.env ctx.locals p)

let place_range ctx p = ty_itv (place_ty ctx p)

(* the f32 interval around [i]: each bound rounds to its nearest f32,
   then one f32 step outward when that crossed it, so whatever rounding
   the conversion does stays inside *)
let to_f32 (i : Itv.t) =
  let near x = Int32.float_of_bits (Int32.bits_of_float x) in
  let step r ~up =
    if r = 0.0 then (if up then 1.0 else -1.0) *. Int32.float_of_bits 1l
    else
      let b = Int32.bits_of_float r in
      Int32.float_of_bits
        (if (r > 0.0) = up then Int32.succ b else Int32.pred b)
  in
  let lo = near i.lo and hi = near i.hi in
  Itv.make
    (if lo > i.lo then step lo ~up:false else lo)
    (if hi < i.hi then step hi ~up:true else hi)

(* a value converted to [ty]: wrapped into its range, and rounded when
   [ty] is f32 *)
let convert ty i =
  let i = Itv.wrap ~bounds:(ty_itv ty) i in
  match ty with Mir.Tf32 -> to_f32 i | _ -> i

(* helpers the generated code calls that cannot write memory *)
let pure_call f =
  Mir_env.libm_ty f <> None || Mir.qkind_of_name f <> None
  || (match f with
     | "pe_sat16" | "pe_sat_add32" | "pe_mul_shift" -> true
     | _ -> false)

let rec eval_itv ctx (state : Itv.t Smap.t) (e : Mir.expr) : Itv.t =
  let ev = eval_itv ctx state in
  let ty_of e = Mir_env.ty_of_expr ctx.env ctx.locals e in
  (* wrap semantics: when a result may leave its C type's range the
     sound answer is the whole type range *)
  let wrap e i = Itv.wrap ~bounds:(ty_itv (ty_of e)) i in
  match e with
  | Mir.Kint (n, _) -> Itv.point (Float.of_int n)
  | Mir.Kfloat x -> Itv.point x
  | Mir.Load p -> (
      if Mir_env.is_volatile ctx.env (Mir.place_root p) then place_range ctx p
      else
        match Mir.place_path p with
        | Some path when Smap.mem path state -> Smap.find path state
        | _ -> place_range ctx p)
  | Mir.Eun (Mir.Neg, a) -> wrap e (Itv.neg (ev a))
  | Mir.Eun (Mir.Lnot, _) -> Itv.make 0.0 1.0
  | Mir.Ebin (op, a, b) -> (
      let ia = ev a and ib = ev b in
      match op with
      | Mir.Add -> wrap e (Itv.add ia ib)
      | Mir.Sub -> wrap e (Itv.sub ia ib)
      | Mir.Mul -> wrap e (Itv.mul ia ib)
      | Mir.Div -> wrap e (Itv.div ia ib)
      | Mir.Eq | Mir.Ne | Mir.Lt | Mir.Gt | Mir.Le | Mir.Ge | Mir.Land
      | Mir.Lor ->
          Itv.make 0.0 1.0
      | Mir.Mod | Mir.Shl | Mir.Shr | Mir.Band | Mir.Bor | Mir.Bxor ->
          ty_itv (ty_of e))
  | Mir.Ecast (_, a) ->
      (* in-range integer and f64 conversions are exact, an f32 one
         rounds; out of range the wrap can produce anything
         representable *)
      convert (ty_of e) (ev a)
  | Mir.Equantize (k, a) ->
      let i = ev a in
      let bounds = let lo, hi = Mir.qkind_bounds k in Itv.make lo hi in
      (* the rounding path only applies to float saturands; an
         integer-typed argument is already integral *)
      let r = match ty_of a with Mir.Tf32 | Mir.Tf64 -> rounded i | _ -> i in
      record_site ctx e (Mir.qkind_name k)
        (if k = Mir.Qb then Itv.May else Itv.classify ~bounds r)
        i bounds;
      if k = Mir.Qb then bounds else Itv.clamp ~bounds (rounded i)
  | Mir.Esat16 a ->
      let i = ev a in
      let bounds = ty_itv Mir.i16 in
      record_site ctx e "pe_sat16" (Itv.classify ~bounds i) i bounds;
      Itv.clamp ~bounds i
  | Mir.Esat_add32 (a, b) ->
      let s = Itv.add (ev a) (ev b) in
      let bounds = ty_itv Mir.i32 in
      record_site ctx e "pe_sat_add32" (Itv.classify ~bounds s) s bounds;
      Itv.clamp ~bounds s
  | Mir.Emul_shift (a, b, s) ->
      ignore (ev a); ignore (ev b); ignore (ev s);
      ty_itv Mir.i32
  | Mir.Ecall (f, args) ->
      List.iter (fun a -> ignore (ev a)) args;
      (* libm results are at least bounded for a few shapes *)
      (match f with
      | "fabs" -> (
          match args with [ a ] -> Itv.abs (ev a) | _ -> Itv.top)
      | "sin" | "cos" -> Itv.make (-1.0) 1.0
      | _ -> ty_itv (Mir_env.ty_of_expr ctx.env ctx.locals e))
  | Mir.Eselect (c, a, b) ->
      ignore (ev c);
      Itv.hull (ev a) (ev b)
  | Mir.Eopaque _ -> Itv.top

and record_site ctx e op verdict i bounds =
  match ctx.record with
  | Some f -> f e op verdict i bounds
  | None -> ()

(* remove every binding rooted at [root] *)
let havoc_root root state =
  Smap.filter
    (fun path _ ->
      not
        (String.equal path root
        || (String.length path > String.length root
           && String.sub path 0 (String.length root) = root
           && (path.[String.length root] = '.'
              || path.[String.length root] = '['))))
    state

(* variables an expression's opaque fragments may write *)
let opaque_writes e =
  let acc = ref [] in
  Mir.iter_expr
    (fun e ->
      match e with
      | Mir.Eopaque ce -> acc := Mir.addressed_vars_of_c ce @ !acc
      | _ -> ())
    e;
  !acc

(* a call that may write memory invalidates everything we know *)
let impure_call e =
  let found = ref false in
  Mir.iter_expr
    (fun e ->
      match e with
      | Mir.Ecall (f, _) when not (pure_call f) -> found := true
      | _ -> ())
    e;
  !found

let exec_expr ctx state e =
  let i = eval_itv ctx state e in
  let state = List.fold_left (fun st v -> havoc_root v st) state (opaque_writes e) in
  let state = if impure_call e then Smap.empty else state in
  (i, state)

let exec_atom ctx (state : Itv.t Smap.t) (at : Mir_cfg.atom) : Itv.t Smap.t =
  match at.Mir_cfg.a with
  | Mir_cfg.A_cond c ->
      let _, state = exec_expr ctx state c in
      state
  | Mir_cfg.A_stmt s -> (
      match s with
      | Mir.Sdecl (_, n, Some e) ->
          let i, state = exec_expr ctx state e in
          let ty =
            Mir_env.scalar_of_vty (Mir_env.var_vty ctx.env ctx.locals n)
          in
          Smap.add n (convert ty i) state
      | Mir.Sdecl (_, n, None) -> Smap.remove n state
      | Mir.Sassign (p, e) -> (
          let i, state = exec_expr ctx state e in
          let root = Mir.place_root p in
          if Mir_env.is_volatile ctx.env root then state
          else
            match Mir.place_path p with
            | Some path -> Smap.add path (convert (place_ty ctx p) i) state
            | None -> havoc_root root state)
      | Mir.Sexpr e ->
          let _, state = exec_expr ctx state e in
          state
      | Mir.Sincr p -> (
          match Mir.place_path p with
          | Some path -> (
              match Smap.find_opt path state with
              | Some i ->
                  Smap.add path
                    (Itv.wrap ~bounds:(place_range ctx p)
                       (Itv.add i (Itv.point 1.0)))
                    state
              | None -> state)
          | None -> havoc_root (Mir.place_root p) state)
      | Mir.Sreturn (Some e) ->
          let _, state = exec_expr ctx state e in
          state
      | Mir.Sreturn None | Mir.Scomment _ -> state
      | Mir.Sopaque _ ->
          (* an unmodelled statement may write anything *)
          Smap.empty
      | Mir.Sif _ | Mir.Swhile _ | Mir.Sfor _ | Mir.Sblock _ -> state)

let rec locals_of_body acc env = function
  | [] -> acc
  | s :: rest ->
      let acc =
        match s with
        | Mir.Sdecl (cty, n, _) -> (n, Mir_env.vty_of_cty env cty) :: acc
        | Mir.Sif (_, t, e) -> locals_of_body (locals_of_body acc env t) env e
        | Mir.Swhile (_, b) | Mir.Sblock b -> locals_of_body acc env b
        | Mir.Sfor (i, _, u, b) -> locals_of_body acc env (i :: u :: b)
        | _ -> acc
      in
      locals_of_body acc env rest

(* analyse one function body; returns the verdict facts in source
   order (by atom id) *)
let analyze env (f : C_ast.func) (body : Mir.stmt list) : sat_fact list =
  let locals =
    List.map (fun (cty, n) -> (n, Mir_env.vty_of_cty env cty)) f.C_ast.args
    @ locals_of_body [] env body
  in
  let ctx = { env; locals; record = None } in
  let cfg = Mir_cfg.build body in
  let transfer i (fact : L.t) : L.t =
    match fact with
    | None -> None
    | Some state ->
        Some
          (List.fold_left (exec_atom ctx) state
             cfg.Mir_cfg.nodes.(i).Mir_cfg.atoms)
  in
  let res =
    Solver.run ~widen Dataflow.Forward cfg ~entry:(Some Smap.empty) ~transfer
  in
  (* final pass with the stabilised inputs, recording every sat site;
     key facts by atom to keep them in source order and deduplicated *)
  let facts = ref [] in
  Array.iter
    (fun n ->
      match res.Solver.inp.(n.Mir_cfg.nid) with
      | None -> ()
      | Some state ->
          let state = ref state in
          List.iter
            (fun at ->
              ctx.record <-
                Some
                  (fun e op verdict i bounds ->
                    facts :=
                      ( at.Mir_cfg.aid,
                        {
                          op;
                          site = Mir_to_c.expr_to_string e;
                          verdict;
                          arg = i;
                          bounds;
                        } )
                      :: !facts);
              state := exec_atom ctx !state at;
              ctx.record <- None)
            n.Mir_cfg.atoms)
    cfg.Mir_cfg.nodes;
  List.sort (fun (a, _) (b, _) -> compare a b) !facts |> List.map snd

(* The typed mid-level IR: exact C round-tripping, the verifier, the
   dataflow rules (MIR001-004), the optimization passes, and a QCheck
   differential property pitting the MIR reference evaluator against
   the compiled SIL engine running the lowered C. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let mcu = Mcu_db.mc56f8367

(* ---------------- round-trip identity ---------------- *)

(* lift -> lower is the identity on generated units: re-processing an
   already-processed unit (codegen runs every model_c through
   Mir_unit.process) must reproduce it byte-for-byte *)
let assert_roundtrip what (arts : Target.artifacts) =
  let u = arts.Target.model_c in
  let again =
    Mir_unit.process ~header:arts.Target.model_h.C_ast.items u
  in
  check_string (what ^ ": lift/lower is the identity")
    (C_print.print_unit u) (C_print.print_unit again)

let servo_arts ?(fixed = false) ?(mode = Blockgen.Hw) () =
  let config =
    {
      Servo_system.default_config with
      Servo_system.variant =
        (if fixed then Servo_system.Fixed_pid else Servo_system.Float_pid);
    }
  in
  let b = Servo_system.build ~config () in
  let comp = Compile.compile b.Servo_system.controller in
  Target.generate ~mode ~name:"servo" ~project:b.Servo_system.project comp

let test_roundtrip_generated () =
  assert_roundtrip "servo float hw" (servo_arts ());
  assert_roundtrip "servo fixed hw" (servo_arts ~fixed:true ());
  assert_roundtrip "servo float pil" (servo_arts ~mode:Blockgen.Pil ());
  let m, project = Check.hazard_demo ~mcu () in
  let comp = Compile.compile m in
  assert_roundtrip "isr-demo"
    (Target.generate ~name:"isr_demo" ~project comp)

(* ---------------- the verifier ---------------- *)

let lift_unit items =
  Mir_unit.lift ~header:[] { C_ast.unit_name = "t.c"; items }

let one_func ?(args = []) ?(ret = C_ast.I32) body =
  C_ast.Func_def (C_ast.func ret "probe" args body)

let test_verifier_accepts_generated () =
  let arts = servo_arts ~fixed:true () in
  let { Mir_unit.env; funcs } =
    Mir_unit.lift ~header:arts.Target.model_h.C_ast.items arts.Target.model_c
  in
  List.iter
    (fun (f, body) ->
      match Mir_typecheck.check_func env f body with
      | [] -> ()
      | errs ->
          Alcotest.failf "verifier rejects generated %s: %s" f.C_ast.fname
            (String.concat "; " (List.map Mir_typecheck.pp_error errs)))
    funcs

let test_verifier_rejects_bad_programs () =
  (* % on a float operand violates the C integer-operator constraint *)
  let { Mir_unit.env; funcs } =
    lift_unit
      [
        one_func ~args:[ (C_ast.Double_t, "x") ]
          [ C_ast.Return (Some (C_ast.Bin ("%", C_ast.Var "x", C_ast.Int_lit 3))) ];
      ]
  in
  let f, body = List.hd funcs in
  check_bool "float %% rejected" true (Mir_typecheck.check_func env f body <> []);
  (* pe_sat16 of a double argument *)
  let f2 = C_ast.func C_ast.I16 "probe2" [ (C_ast.Double_t, "x") ]
      [ C_ast.Return (Some (C_ast.Call ("pe_sat16", [ C_ast.Var "x" ]))) ]
  in
  let { Mir_unit.env = env2; funcs = funcs2 } =
    lift_unit [ C_ast.Func_def f2 ]
  in
  let g, gbody = List.hd funcs2 in
  check_bool "float pe_sat16 rejected" true
    (Mir_typecheck.check_func env2 g gbody <> [])

(* ---------------- MIR001-003: def-use rules ---------------- *)

let dfa_of items =
  let { Mir_unit.funcs; _ } = lift_unit items in
  let f, body = List.hd funcs in
  Mir_dfa.analyze body ~args:(List.map snd f.C_ast.args)

let has_uninit var facts =
  List.exists
    (function Mir_dfa.Uninit_read { var = v; _ } -> v = var | _ -> false)
    facts

let has_dead_store var facts =
  List.exists
    (function Mir_dfa.Dead_store { var = v; _ } -> v = var | _ -> false)
    facts

let has_unreachable facts =
  List.exists (function Mir_dfa.Unreachable _ -> true | _ -> false) facts

let test_uninit_read () =
  let open C_ast in
  let facts =
    dfa_of
      [
        one_func
          [
            Decl (I32, "x", None);
            Return (Some (Bin ("+", Var "x", Int_lit 1)));
          ];
      ]
  in
  check_bool "read of unassigned local" true (has_uninit "x" facts);
  (* assigned on only one branch: still a may-uninit read *)
  let facts2 =
    dfa_of
      [
        one_func ~args:[ (I32, "c") ]
          [
            Decl (I32, "y", None);
            If (Var "c", [ Assign (Var "y", Int_lit 1) ], []);
            Return (Some (Var "y"));
          ];
      ]
  in
  check_bool "one-branch assignment" true (has_uninit "y" facts2);
  (* assigned on both branches: clean *)
  let facts3 =
    dfa_of
      [
        one_func ~args:[ (I32, "c") ]
          [
            Decl (I32, "z", None);
            If (Var "c", [ Assign (Var "z", Int_lit 1) ],
               [ Assign (Var "z", Int_lit 2) ]);
            Return (Some (Var "z"));
          ];
      ]
  in
  check_bool "both-branch assignment is clean" false (has_uninit "z" facts3)

let test_uninit_out_param_regression () =
  (* &x passed to a bean getter is an out-parameter (the callee writes
     it): the isr-demo's AD1_GetValue(&code) must not trip MIR001 *)
  let open C_ast in
  let facts =
    dfa_of
      [
        one_func
          [
            Decl (U16, "code", None);
            Expr (Call ("AD1_GetValue", [ Un ("&", Var "code") ]));
            Return (Some (Var "code"));
          ];
      ]
  in
  check_bool "out-param is a def, not a read" false (has_uninit "code" facts)

let test_dead_store () =
  let open C_ast in
  let facts =
    dfa_of
      [
        one_func
          [
            Decl (I32, "x", None);
            Assign (Var "x", Int_lit 5);
            Assign (Var "x", Int_lit 6);
            Return (Some (Var "x"));
          ];
      ]
  in
  check_bool "overwritten store is dead" true (has_dead_store "x" facts);
  (* a store whose rhs calls out is never reported *)
  let facts2 =
    dfa_of
      [
        one_func
          [
            Decl (I32, "x", None);
            Assign (Var "x", Call ("side_effect", []));
            Assign (Var "x", Int_lit 6);
            Return (Some (Var "x"));
          ];
      ]
  in
  check_bool "effectful rhs exempt" false (has_dead_store "x" facts2)

let test_unreachable () =
  let open C_ast in
  let facts =
    dfa_of
      [
        one_func
          [ Return (Some (Int_lit 0)); Expr (Call ("after_return", [])) ];
      ]
  in
  check_bool "statement after return" true (has_unreachable facts);
  let facts2 =
    dfa_of [ one_func [ Return (Some (Int_lit 0)) ] ] in
  check_bool "plain return is clean" false (has_unreachable facts2)

(* ---------------- MIR004: the saturation prover ---------------- *)

let sat_verdicts items =
  let { Mir_unit.env; funcs } = lift_unit items in
  let f, body = List.hd funcs in
  Mir_range.analyze env f body
  |> List.map (fun s -> (s.Mir_range.op, s.Mir_range.verdict))

let test_sat_prover () =
  let open C_ast in
  (* constant in range: provably never saturates *)
  let v1 =
    sat_verdicts
      [
        one_func
          [
            Decl (I32, "a", Some (Int_lit 1200));
            Return (Some (Call ("pe_sat16", [ Var "a" ])));
          ];
      ]
  in
  (match v1 with
  | [ ("pe_sat16", Mir_range.Never) ] -> ()
  | _ -> Alcotest.fail "expected a single Never verdict");
  (* constant outside int16: provably always saturates *)
  let v2 =
    sat_verdicts
      [
        one_func
          [
            Decl (I32, "a", Some (Int_lit 70000));
            Return (Some (Call ("pe_sat16", [ Var "a" ])));
          ];
      ]
  in
  (match v2 with
  | [ ("pe_sat16", Mir_range.Always) ] -> ()
  | _ -> Alcotest.fail "expected a single Always verdict");
  (* unknown external value: may saturate *)
  let v3 =
    sat_verdicts
      [
        one_func
          [
            Decl (I32, "a", Some (Call ("unknown_sensor", [])));
            Return (Some (Call ("pe_sat16", [ Var "a" ])));
          ];
      ]
  in
  match v3 with
  | [ ("pe_sat16", Mir_range.May) ] -> ()
  | _ -> Alcotest.fail "expected a single May verdict"

(* the MIR rules surface through Check.run with their catalogue IDs *)
let test_mir_rules_in_check () =
  let m, p = Check.hazard_demo ~mcu () in
  let report = Check.run ~project:p m in
  let rules = List.map (fun f -> f.Diag.rule) report.Check.findings in
  check_bool "no MIR001 on generated isr-demo" false
    (List.mem "MIR001" rules);
  (* servo's quantised peripheral casts carry range-prover verdicts *)
  let b = Servo_system.build () in
  let r2 =
    Check.run ~project:b.Servo_system.project b.Servo_system.controller
  in
  check_bool "MIR004 verdicts on servo" true
    (List.exists (fun f -> f.Diag.rule = "MIR004") r2.Check.findings)

(* ---------------- optimization passes ---------------- *)

let optimize_unit items =
  Mir_unit.process ~opt:true ~header:[]
    { C_ast.unit_name = "t.c"; items }

let printed items = C_print.print_unit (optimize_unit items)

let test_const_fold () =
  let open C_ast in
  let src =
    printed
      [
        one_func
          [
            Decl (I32, "x", Some (Bin ("+", Int_lit 2, Int_lit 3)));
            Return (Some (Var "x"));
          ];
      ]
  in
  check_bool "2 + 3 folds to 5" true (Astring_contains.contains src "return 5;");
  (* division by zero is never folded *)
  let src2 =
    printed
      [
        one_func
          [ Return (Some (Bin ("/", Int_lit 1, Int_lit 0))) ];
      ]
  in
  check_bool "1 / 0 survives" true (Astring_contains.contains src2 "1 / 0")

let test_copy_prop_and_dce () =
  let open C_ast in
  let src =
    printed
      [
        one_func
          [
            Decl (I32, "x", Some (Int_lit 5));
            Decl (I32, "y", Some (Bin ("+", Var "x", Int_lit 1)));
            Return (Some (Var "y"));
          ];
      ]
  in
  check_bool "chain folds to a constant return" true
    (Astring_contains.contains src "return 6;");
  check_bool "dead locals eliminated" false
    (Astring_contains.contains src "x =")

let test_sat_fusion () =
  let open C_ast in
  (* pe_sat16 of an int16-typed value cannot clamp: fuse to a cast *)
  let src =
    printed
      [
        one_func ~ret:I16
          ~args:[ (I16, "a") ]
          [ Return (Some (Call ("pe_sat16", [ Var "a" ]))) ];
      ]
  in
  check_bool "pe_sat16 of an int16 fuses away" false
    (Astring_contains.contains src "pe_sat16");
  (* of an int32 it must survive *)
  let src2 =
    printed
      [
        one_func ~ret:I16
          ~args:[ (I32, "a") ]
          [ Return (Some (Call ("pe_sat16", [ Var "a" ]))) ];
      ]
  in
  check_bool "pe_sat16 of an int32 survives" true
    (Astring_contains.contains src2 "pe_sat16")

let test_branch_elimination () =
  let open C_ast in
  let src =
    printed
      [
        one_func
          [
            If (Int_lit 0, [ Expr (Call ("dead_call", [])) ], []);
            While (Int_lit 0, [ Expr (Call ("dead_loop", [])) ]);
            Return (Some (Int_lit 1));
          ];
      ]
  in
  check_bool "if(0) body dropped" false
    (Astring_contains.contains src "dead_call");
  check_bool "while(0) body dropped" false
    (Astring_contains.contains src "dead_loop")

(* optimized codegen must keep every static-analysis verdict at least
   as good: the fixed servo stays MISRA-clean under --opt *)
let test_opt_misra_clean () =
  let config =
    { Servo_system.default_config with
      Servo_system.variant = Servo_system.Fixed_pid }
  in
  let b = Servo_system.build ~config () in
  let comp = Compile.compile b.Servo_system.controller in
  let arts =
    Target.generate ~opt:true ~name:"servo"
      ~project:b.Servo_system.project comp
  in
  let findings =
    Misra.lint
      (arts.Target.model_h :: arts.Target.model_c :: arts.Target.main_c
     :: arts.Target.hal)
    |> List.filter (fun f -> f.Diag.severity <> Diag.Info)
  in
  check_int "no new MISRA findings under --opt" 0 (List.length findings)

(* ---------------- MIR <-> C differential property ----------------

   Random well-typed straight-line programs over scalar locals:
   the MIR reference evaluator and the compiled SIL engine running the
   lowered C must agree on every final variable value, bit for bit.
   Programs that trip C UB (signed overflow, INT_MIN negation ...)
   make the reference evaluator raise Undefined and are skipped —
   the generated-code fuzzers in test_silvm cover the defined space
   the blocks actually emit. *)

type gvar = { gname : string; gcty : C_ast.cty; ginit : Mir_eval.value }

let ity_of_cty = function
  | C_ast.I8 -> Some { Mir.bits = 8; signed = true }
  | C_ast.U8 -> Some { Mir.bits = 8; signed = false }
  | C_ast.I16 -> Some { Mir.bits = 16; signed = true }
  | C_ast.U16 -> Some { Mir.bits = 16; signed = false }
  | C_ast.I32 -> Some { Mir.bits = 32; signed = true }
  | C_ast.U32 -> Some { Mir.bits = 32; signed = false }
  | _ -> None

let random_vars rng =
  let ctys =
    [| C_ast.I8; C_ast.U8; C_ast.I16; C_ast.U16; C_ast.I32; C_ast.U32;
       C_ast.Double_t |]
  in
  List.init 3 (fun i ->
      let gcty = ctys.(Random.State.int rng (Array.length ctys)) in
      let ginit =
        match ity_of_cty gcty with
        | Some ity ->
            let n =
              if ity.Mir.signed then Random.State.int rng 201 - 100
              else Random.State.int rng 101
            in
            Mir_eval.Vi (ity, Int64.of_int n)
        | None ->
            Mir_eval.Vf
              (Mir.Tf64, Random.State.float rng 2000.0 -. 1000.0)
      in
      { gname = Printf.sprintf "x%d" i; gcty; ginit })

let int_vars vars = List.filter (fun v -> ity_of_cty v.gcty <> None) vars
let float_vars vars = List.filter (fun v -> ity_of_cty v.gcty = None) vars

let qkinds =
  [| Mir.Qb; Mir.Qi8; Mir.Qu8; Mir.Qi16; Mir.Qu16; Mir.Qi32; Mir.Qu32 |]

(* want = `I (integer-typed) or `F (double-typed); total by
   construction: integer divisors and shift counts are non-zero
   constants, floats never cast (only quantised) into the int world *)
let rec gen_expr rng vars want depth =
  let leaf () =
    match want with
    | `I -> (
        let candidates = int_vars vars in
        match candidates with
        | c when c <> [] && Random.State.bool rng ->
            Mir.Load
              (Mir.Pvar (List.nth c (Random.State.int rng (List.length c))).gname)
        | _ -> Mir.Kint (Random.State.int rng 41 - 20, Mir.Dec))
    | `F -> (
        let candidates = float_vars vars in
        match candidates with
        | c when c <> [] && Random.State.bool rng ->
            Mir.Load
              (Mir.Pvar (List.nth c (Random.State.int rng (List.length c))).gname)
        | _ -> Mir.Kfloat (Random.State.float rng 40.0 -. 20.0))
  in
  if depth <= 0 then leaf ()
  else
    let sub w = gen_expr rng vars w (depth - 1) in
    match want with
    | `I -> (
        match Random.State.int rng 12 with
        | 0 -> Mir.Ebin (Mir.Add, sub `I, sub `I)
        | 1 -> Mir.Ebin (Mir.Sub, sub `I, sub `I)
        | 2 -> Mir.Ebin (Mir.Mul, sub `I, sub `I)
        | 3 ->
            let op = if Random.State.bool rng then Mir.Div else Mir.Mod in
            Mir.Ebin (op, sub `I, Mir.Kint (1 + Random.State.int rng 9, Mir.Dec))
        | 4 ->
            let op = if Random.State.bool rng then Mir.Shl else Mir.Shr in
            (* promote through uint16_t: the shiftee is non-negative and
               cannot overflow int, so the shift is always defined *)
            Mir.Ebin
              (op, Mir.Ecast (C_ast.U16, sub `I),
               Mir.Kint (Random.State.int rng 8, Mir.Dec))
        | 5 ->
            let op =
              [| Mir.Band; Mir.Bor; Mir.Bxor |].(Random.State.int rng 3)
            in
            Mir.Ebin (op, sub `I, sub `I)
        | 6 ->
            let op =
              [| Mir.Eq; Mir.Ne; Mir.Lt; Mir.Gt; Mir.Le; Mir.Ge |].(Random.State.int rng 6)
            in
            let w = if Random.State.bool rng then `I else `F in
            Mir.Ebin (op, sub w, sub w)
        | 7 ->
            let op = if Random.State.bool rng then Mir.Land else Mir.Lor in
            Mir.Ebin (op, sub `I, sub `I)
        | 8 -> Mir.Eun ((if Random.State.bool rng then Mir.Neg else Mir.Lnot), sub `I)
        | 9 ->
            if Random.State.bool rng then Mir.Esat16 (sub `I)
            else Mir.Esat_add32 (sub `I, sub `I)
        | 10 ->
            let w = if Random.State.bool rng then `I else `F in
            Mir.Equantize (qkinds.(Random.State.int rng 7), sub w)
        | _ -> Mir.Eselect (sub `I, sub `I, sub `I))
    | `F -> (
        match Random.State.int rng 6 with
        | 0 -> Mir.Ebin (Mir.Add, sub `F, sub `F)
        | 1 -> Mir.Ebin (Mir.Sub, sub `F, sub `F)
        | 2 -> Mir.Ebin (Mir.Mul, sub `F, sub `F)
        | 3 -> Mir.Ebin (Mir.Div, sub `F, sub `F)
        | 4 -> Mir.Ecast (C_ast.Double_t, sub `I)
        | _ -> Mir.Eselect (sub `I, sub `F, sub `F))

let gen_program rng =
  let vars = random_vars rng in
  let n = 3 + Random.State.int rng 5 in
  let body =
    List.init n (fun _ ->
        let v = List.nth vars (Random.State.int rng (List.length vars)) in
        let want = if ity_of_cty v.gcty = None then `F else `I in
        (* a quantised or comparison rhs may cross worlds; the
           assignment converts to the destination like C does *)
        let want =
          if want = `I || Random.State.int rng 4 > 0 then want else `I
        in
        Mir.Sassign (Mir.Pvar v.gname, gen_expr rng vars want 3))
  in
  (vars, body)

let lower_to_c_unit vars body =
  (* one probe function per variable: full program, then return it *)
  let decls =
    List.map
      (fun v ->
        let init =
          match v.ginit with
          | Mir_eval.Vi (_, n) -> C_ast.Int_lit (Int64.to_int n)
          | Mir_eval.Vf (_, x) -> C_ast.Float_lit x
        in
        C_ast.Decl (v.gcty, v.gname, Some init))
      vars
  in
  let lowered = List.map Mir_to_c.lower_stmt body in
  let probes =
    List.map
      (fun v ->
        C_ast.Func_def
          (C_ast.func v.gcty ("get_" ^ v.gname) []
             (decls @ lowered @ [ C_ast.Return (Some (C_ast.Var v.gname)) ])))
      vars
  in
  { C_ast.unit_name = "fuzz.c";
    items = Target.fix_helpers @ Blockgen.cast_helpers @ probes }

let mir_env = Mir_env.create []

let run_mir vars body =
  Mir_eval.run mir_env
    ~globals:(List.map (fun v -> (v.gname, v.ginit)) vars)
    body

let value_repr = function
  | Mir_eval.Vi (_, n) -> Int64.to_string n
  | Mir_eval.Vf (_, x) -> Printf.sprintf "%h" x


let fuzz_count =
  match Sys.getenv_opt "SILVM_FUZZ_COUNT" with
  | Some s -> (try int_of_string s with _ -> 200)
  | None -> 200

(* two independent arithmetic implementations check each other: the
   reference evaluator on the MIR program, the compiled SIL engine on
   the C it lowers to *)
let prop_mir_c_roundtrip =
  QCheck2.Test.make
    ~name:"random MIR programs: reference evaluator and SIL agree on lowered C"
    ~count:(2 * fuzz_count)
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 77 |] in
      let vars, body = gen_program rng in
      match run_mir vars body with
      | exception (Mir_eval.Undefined _ | Mir_eval.Unsupported _) ->
          true (* the program trips C UB: nothing to compare *)
      | finals ->
          let code = Silvm_compile.compile [ lower_to_c_unit vars body ] in
          let st = Silvm_compile.instantiate code in
          List.for_all
            (fun v ->
              let mir_v = value_repr (List.assoc v.gname finals) in
              let sil_v =
                match Silvm_compile.call code st ("get_" ^ v.gname) [] with
                | Some sv -> value_repr sv
                | None -> "<void>"
              in
              if String.equal mir_v sil_v then true
              else
                QCheck2.Test.fail_reportf
                  "seed=%d var=%s (%s): MIR=%s SIL=%s\nprogram:\n%s" seed
                  v.gname
                  (C_print.expr_to_string (C_ast.Var v.gname))
                  mir_v sil_v
                  (C_print.print_stmts (List.map Mir_to_c.lower_stmt body)))
            vars)

(* the optimizer must preserve those same semantics: optimize the MIR
   program and re-run the reference evaluator on the optimized body.
   The fixed seeds are ternaries with arms of different signedness,
   which the optimizer types by C99 6.5.15p5 (e.g. [x1 ? -7 : x2] with
   [uint32_t x2] is unsigned); the evaluator once returned the taken arm
   unconverted *)
let prop_opt_preserves_semantics =
  QCheck2.Test.make
    ~name:"random MIR programs: optimization passes preserve the evaluation"
    ~count:fuzz_count
    (QCheck2.Gen.graft_corners
       QCheck2.Gen.(int_range 1_000_001 2_000_000)
       [ 1075411; 1989056; 1890486 ] ())
    (fun seed ->
      let rng = Random.State.make [| seed; 77 |] in
      let vars, body = gen_program rng in
      match run_mir vars body with
      | exception (Mir_eval.Undefined _ | Mir_eval.Unsupported _) -> true
      | finals -> (
          let f =
            C_ast.func C_ast.Void "prog"
              (List.map (fun v -> (v.gcty, v.gname)) vars)
              []
          in
          match Mir_opt.optimize mir_env f body with
          | exception Mir_typecheck.Verify_failed msg ->
              QCheck2.Test.fail_reportf "seed=%d verifier: %s" seed msg
          | optimized -> (
              match run_mir vars optimized with
              | exception (Mir_eval.Undefined _ | Mir_eval.Unsupported _) ->
                  QCheck2.Test.fail_reportf
                    "seed=%d optimized program became undefined" seed
              | finals' ->
                  List.for_all
                    (fun v ->
                      let a = value_repr (List.assoc v.gname finals) in
                      let b = value_repr (List.assoc v.gname finals') in
                      String.equal a b
                      || QCheck2.Test.fail_reportf
                           "seed=%d var=%s: unopt=%s opt=%s" seed v.gname a b)
                    vars)))

let qtest t = QCheck_alcotest.to_alcotest t

let suite =
  [
    Alcotest.test_case "generated units round-trip unchanged" `Quick
      test_roundtrip_generated;
    Alcotest.test_case "verifier accepts every generated function" `Quick
      test_verifier_accepts_generated;
    Alcotest.test_case "verifier rejects ill-typed programs" `Quick
      test_verifier_rejects_bad_programs;
    Alcotest.test_case "MIR001: read before assignment" `Quick
      test_uninit_read;
    Alcotest.test_case "MIR001: &out-param regression" `Quick
      test_uninit_out_param_regression;
    Alcotest.test_case "MIR002: dead stores" `Quick test_dead_store;
    Alcotest.test_case "MIR003: unreachable statements" `Quick
      test_unreachable;
    Alcotest.test_case "MIR004: saturation prover verdicts" `Quick
      test_sat_prover;
    Alcotest.test_case "MIR rules surface through Check.run" `Quick
      test_mir_rules_in_check;
    Alcotest.test_case "opt: constant folding" `Quick test_const_fold;
    Alcotest.test_case "opt: copy propagation + DCE" `Quick
      test_copy_prop_and_dce;
    Alcotest.test_case "opt: saturation fusion" `Quick test_sat_fusion;
    Alcotest.test_case "opt: constant branch elimination" `Quick
      test_branch_elimination;
    Alcotest.test_case "opt: fixed servo stays MISRA-clean" `Quick
      test_opt_misra_clean;
    qtest prop_mir_c_roundtrip;
    qtest prop_opt_preserves_semantics;
  ]

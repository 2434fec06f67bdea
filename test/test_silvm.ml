(* SIL virtual machine: the reference engine (Mir_eval on the lifted
   MIR of the generated C) checked bit-for-bit against the MIL engine. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mcu = Mcu_db.mc56f8367

(* ---------------- reference engine unit tests ---------------- *)

let interp_of_items items =
  let l = Mir_unit.lift ~header:[] { C_ast.unit_name = "t.c"; items } in
  Mir_eval.create l.Mir_unit.env items l.Mir_unit.funcs

let to_int v = Int64.to_int (Mir_eval.to_int64 v)

let call_int t fn args =
  match Mir_eval.call t fn args with
  | Some v -> to_int v
  | None -> Alcotest.fail (fn ^ " returned void")

let i v = Mir_eval.vi Mir_eval.i32 (Int64.of_int v)

let test_interp_c_arithmetic () =
  (* C99 semantics: truncating division, remainder with the dividend's
     sign, unsigned wrap-around, arithmetic right shift *)
  let open C_ast in
  let f name ret expr = Func_def (func ret name [ (I32, "a"); (I32, "b") ] [ Return (Some expr) ]) in
  let t =
    interp_of_items
      [
        f "div" I32 (Bin ("/", Var "a", Var "b"));
        f "rem" I32 (Bin ("%", Var "a", Var "b"));
        f "wrap16" U16 (Cast_to (U16, Bin ("+", Var "a", Var "b")));
        f "asr" I32 (Bin (">>", Var "a", Var "b"));
        f "wrap_i16" I16 (Cast_to (I16, Bin ("*", Var "a", Var "b")));
      ]
  in
  check_int "trunc div" (-3) (call_int t "div" [ i (-7); i 2 ]);
  check_int "rem sign" (-1) (call_int t "rem" [ i (-7); i 2 ]);
  check_int "u16 wrap" 65535 (call_int t "wrap16" [ i 0; i (-1) ]);
  check_int "u16 wrap 2" 4464 (call_int t "wrap16" [ i 70000; i 0 ]);
  check_int "arith shift" (-2) (call_int t "asr" [ i (-8); i 2 ]);
  check_int "i16 wrap positive" 24464 (call_int t "wrap_i16" [ i 300; i 300 ]);
  check_int "i16 wrap negative" (-29536) (call_int t "wrap_i16" [ i 300; i 120 ])

let test_interp_sat_helpers () =
  (* the generated saturation helpers, called by name, run their bodies
     (int64_t local included) with the exact pe_sat16 / pe_sat_add32
     semantics *)
  let open C_ast in
  let t =
    interp_of_items
      [
        Func_def
          (func I16 "sat16_probe"
             [ (I32, "x") ]
             [
               Return
                 (Some
                    (Cast_to
                       ( I16,
                         Ternary
                           ( Bin (">", Var "x", Int_lit 32767),
                             Int_lit 32767,
                             Ternary
                               ( Bin ("<", Var "x", Int_lit (-32768)),
                                 Int_lit (-32768),
                                 Var "x" ) ) )));
             ]);
        Func_def
          (func I32 "sat_add_probe"
             [ (I32, "a"); (I32, "b") ]
             [
               Decl
                 ( Named "int64_t",
                   "s",
                   Some (Bin ("+", Cast_to (Named "int64_t", Var "a"), Var "b"))
                 );
               Return
                 (Some
                    (Cast_to
                       ( I32,
                         Ternary
                           ( Bin (">", Var "s", Var "INT32_MAX"),
                             Var "INT32_MAX",
                             Ternary
                               ( Bin ("<", Var "s", Var "INT32_MIN"),
                                 Var "INT32_MIN",
                                 Var "s" ) ) )));
             ]);
      ]
  in
  check_int "sat16 high" 32767 (call_int t "sat16_probe" [ i 100000 ]);
  check_int "sat16 low" (-32768) (call_int t "sat16_probe" [ i (-100000) ]);
  check_int "sat16 pass" 1234 (call_int t "sat16_probe" [ i 1234 ]);
  check_int "sat_add32 overflow" 2147483647
    (call_int t "sat_add_probe" [ i 2000000000; i 2000000000 ]);
  check_int "sat_add32 underflow" (-2147483648)
    (call_int t "sat_add_probe" [ i (-2000000000); i (-2000000000) ]);
  check_int "sat_add32 plain" 30 (call_int t "sat_add_probe" [ i 10; i 20 ])

let test_interp_cast_helpers_match_value () =
  (* the emitted pe_cast_* helpers must reproduce Value.of_float
     exactly: round half away from zero, saturate, NaN -> 0 *)
  let t = interp_of_items Blockgen.cast_helpers in
  let cases = [ 100.6; -100.6; 0.5; -0.5; 1.5; 2.5; 70000.0; -70000.0;
                1e12; -1e12; Float.nan; 0.0; 65534.5 ] in
  List.iter
    (fun dt ->
      let helper = Option.get (Blockgen.cast_helper_of_dtype dt) in
      List.iter
        (fun x ->
          let expected = Value.to_int (Value.of_float dt x) in
          let got = call_int t helper [ Mir_eval.Vf (Mir.Tf64, x) ] in
          check_int
            (Printf.sprintf "%s(%g) = Value.of_float" helper x)
            expected got)
        cases)
    [ Dtype.Int8; Dtype.Uint8; Dtype.Int16; Dtype.Uint16; Dtype.Int32;
      Dtype.Uint32; Dtype.Bool ]

let test_interp_helper_bodies_match_intrinsics () =
  (* the lifter turns every pe_* call site into a MIR intrinsic, so the
     emitted helper bodies only run when called by name: here, against
     the intrinsic each one stands for *)
  let t = interp_of_items (Target.fix_helpers @ Blockgen.cast_helpers) in
  let intrinsic e = to_int (Option.get (Mir_eval.const_eval e)) in
  let k n = Mir.Kint (n, Mir.Dec) in
  let ints = [ 0; 1; -1; 1234; 32767; 32768; -32768; -32769; 100000;
               -100000; 2000000000; -2000000000; 2147483647; -2147483648 ] in
  List.iter
    (fun a ->
      check_int (Printf.sprintf "pe_sat16(%d)" a)
        (intrinsic (Mir.Esat16 (k a)))
        (call_int t "pe_sat16" [ i a ]);
      List.iter
        (fun b ->
          check_int (Printf.sprintf "pe_sat_add32(%d, %d)" a b)
            (intrinsic (Mir.Esat_add32 (k a, k b)))
            (call_int t "pe_sat_add32" [ i a; i b ]))
        ints;
      List.iter
        (fun (b, sh) ->
          check_int (Printf.sprintf "pe_mul_shift(%d, %d, %d)" a b sh)
            (intrinsic (Mir.Emul_shift (k a, k b, k sh)))
            (call_int t "pe_mul_shift" [ i a; i b; i sh ]))
        [ (3, 1); (-3, 1); (29491, 15); (-29491, 15); (1, 31); (12345, 20) ])
    ints;
  List.iter
    (fun x ->
      List.iter
        (fun q ->
          check_int
            (Printf.sprintf "%s(%g)" (Mir.qkind_name q) x)
            (intrinsic (Mir.Equantize (q, Mir.Kfloat x)))
            (call_int t (Mir.qkind_name q) [ Mir_eval.Vf (Mir.Tf64, x) ]))
        [ Mir.Qb; Mir.Qi8; Mir.Qu8; Mir.Qi16; Mir.Qu16; Mir.Qi32; Mir.Qu32 ])
    [ 100.6; -100.6; 0.5; -0.5; 2.5; 70000.0; -70000.0; 1e12; -1e12; 0.0 ]

(* ---------------- differential runs ---------------- *)

let empty_project () = Bean_project.create mcu

(* this file is the REFERENCE ENGINE's suite: every differential run is
   pinned to [~engine:Interp] so Mir_eval stays covered now that the
   compiled engine is the default; the compiled engine has its own
   battery in test_silvm_compile.ml *)
let diff_model ?steps ?float_mode ?opt ?stimulus ~name m =
  let comp = Compile.compile ~default_dt:0.01 m in
  Silvm_diff.run ?steps ?float_mode ?opt ~engine:Silvm_diff.Interp ?stimulus
    ~name ~project:(empty_project ()) comp

let check_no_divergence what (r : Silvm_diff.report) =
  (match r.Silvm_diff.divergence with
  | Some d ->
      Alcotest.failf "%s diverged at step %d on %s[%d]: MIL=%s SIL=%s" what
        d.Silvm_diff.d_step d.Silvm_diff.d_block d.Silvm_diff.d_port
        d.Silvm_diff.d_mil d.Silvm_diff.d_sil
  | None -> ());
  check_int (what ^ " completed") r.Silvm_diff.steps_requested
    r.Silvm_diff.steps_run

(* regression: quantised Cast outputs used to be emitted as a plain C
   cast (truncate, wrap) where the MIL engine rounds and saturates;
   const 100.6 -> uint16 must be 101 (not 100) and 70000 -> uint16 must
   saturate to 65535 (not wrap to 4464) in both worlds *)
let test_cast_quantization_regression () =
  let m = Model.create "castreg" in
  let c1 = Model.add m ~name:"c1" (Sources.constant 100.6) in
  let k1 = Model.add m ~name:"k1" (Math_blocks.cast Dtype.Uint16) in
  Model.connect m ~src:(c1, 0) ~dst:(k1, 0);
  let c2 = Model.add m ~name:"c2" (Sources.constant 70000.0) in
  let k2 = Model.add m ~name:"k2" (Math_blocks.cast Dtype.Uint16) in
  Model.connect m ~src:(c2, 0) ~dst:(k2, 0);
  let c3 = Model.add m ~name:"c3" (Sources.constant (-2.5)) in
  let k3 = Model.add m ~name:"k3" (Math_blocks.cast Dtype.Int8) in
  Model.connect m ~src:(c3, 0) ~dst:(k3, 0);
  let comp = Compile.compile ~default_dt:0.01 m in
  let app =
    Silvm_app.create ~engine:`Interp ~name:"castreg"
      ~project:(empty_project ()) comp
  in
  Silvm_app.initialize app;
  Silvm_app.step app;
  check_int "100.6 -> u16 rounds" 101
    (to_int (Silvm_app.signal app (k1, 0)));
  check_int "70000 -> u16 saturates" 65535
    (to_int (Silvm_app.signal app (k2, 0)));
  check_int "-2.5 -> i8 rounds away from zero" (-3)
    (to_int (Silvm_app.signal app (k3, 0)));
  (* and the emitted source goes through the helper *)
  let c_src = C_print.print_unit (Target.generate ~mode:Blockgen.Pil
    ~name:"castreg" ~project:(empty_project ()) comp).Target.model_c in
  check_bool "generated C uses pe_cast_u16" true
    (Astring_contains.contains c_src "pe_cast_u16");
  check_no_divergence "castreg" (diff_model ~steps:50 ~name:"castreg" m)

(* servo: the paper's running example, full generated application
   against the MIL engine in closed loop with the DC-motor plant *)
let servo_diff steps =
  let b = Servo_system.build () in
  let comp = Compile.compile b.Servo_system.controller in
  let plant = Servo_system.pil_plant b in
  let driver = Servo_system.pil_driver b in
  Silvm_diff.run ~steps ~engine:Silvm_diff.Interp
    ~plant:(Silvm_diff.Plant (plant, driver))
    ~name:"servo" ~project:b.Servo_system.project comp

let test_servo_diff_1000 () =
  check_no_divergence "servo MIL vs SIL" (servo_diff 1000)

(* isr-demo: an ADC end-of-conversion event triggers a function-call
   group; the group function must fire in the reference engine
   exactly as the MIL engine fires the event *)
let test_isr_demo_diff () =
  let m, project = Check.hazard_demo ~mcu () in
  let comp = Compile.compile m in
  let stimulus k =
    (* a deterministic sweep across the 12-bit ADC range *)
    let code = (k * 37) mod 4096 in
    [| code |]
  in
  let r =
    Silvm_diff.run ~steps:500 ~engine:Silvm_diff.Interp ~stimulus
      ~name:"isr_demo" ~project comp
  in
  check_no_divergence "isr-demo MIL vs SIL" r

(* ---------------- golden SIL trace ---------------- *)

(* The servo generated application run for 1000 steps in closed loop on
   the reference engine: the PWM duty-ratio command (the u16 written to
   the actuator exchange buffer) is locked as a golden trace. Captured
   from the first SIL engine when the differential suite first went
   green; the MIL goldens in test_sim_golden.ml pin the other side. *)
let golden_sil_duty : int * (int * int) list =
  ( 12240280,
    [
      (0, 4096);
      (1, 4440);
      (100, 7079);
      (250, 7129);
      (500, 14183);
      (750, 14243);
      (998, 20117);
      (999, 20068);
    ] )

let test_servo_sil_golden () =
  let b = Servo_system.build () in
  let comp = Compile.compile b.Servo_system.controller in
  let plant = Servo_system.pil_plant b in
  let driver = Servo_system.pil_driver b in
  let app =
    Silvm_app.create ~engine:`Interp ~name:"servo"
      ~project:b.Servo_system.project comp
  in
  Silvm_app.initialize app;
  let sched = Silvm_app.schedule app in
  let base = comp.Compile.base_dt in
  let duties = Array.make 1000 0 in
  for k = 0 to 999 do
    let sensors =
      driver.Pil_cosim.read_sensors plant ~time:(float_of_int k *. base)
    in
    List.iter
      (fun (_, slot) -> Silvm_app.set_sensor app slot sensors.(slot))
      sched.Target.sensor_slots;
    Silvm_app.step app;
    duties.(k) <- Silvm_app.actuator app 0;
    driver.Pil_cosim.apply_actuators plant [| duties.(k) |];
    driver.Pil_cosim.advance plant ~dt:base
  done;
  if Sys.getenv_opt "SILVM_PRINT_GOLDEN" <> None then
    Printf.eprintf "sum=%d spots=[%s]\n%!"
      (Array.fold_left ( + ) 0 duties)
      (String.concat "; "
         (List.map
            (fun i -> Printf.sprintf "(%d, %d)" i duties.(i))
            [ 0; 1; 100; 250; 500; 750; 998; 999 ]));
  let sum, spots = golden_sil_duty in
  check_int "duty trace checksum" sum (Array.fold_left ( + ) 0 duties);
  List.iter
    (fun (i, expected) ->
      check_int (Printf.sprintf "duty[%d]" i) expected duties.(i))
    spots

(* ---------------- differential fuzzing ----------------

   Known SIL non-goals the generators deliberately avoid (the
   authoritative list, referenced from the README): UniformNoise (the
   engine-side RNG is not part of the generated application), Lookup1D
   in Raw mode, Single-typed signals end-to-end, the fixed-point PID's
   pe_mul_shift rounding mode, 64-bit unsigned arithmetic, and
   multirate regrouping. Diagrams containing these still generate code;
   they are just not claimed bit-exact and not drawn by the fuzzers. *)

let fuzz_count =
  match Sys.getenv_opt "SILVM_FUZZ_COUNT" with
  | Some s -> (try int_of_string s with _ -> 200)
  | None -> 200

(* the reference engine walks the MIR per step, so its smoke stays at
   the historical count; the 10× budget goes to the compiled engine's
   sharded battery (test_silvm_compile.ml), where it is affordable *)
let interp_fuzz_count = min fuzz_count 200

(* the random-diagram generator of test_model_fuzz, checked bit-for-bit:
   every float operation of the block library is emitted with the same
   association and constants the engine computes with *)
let prop_dag_mil_sil_bit_exact =
  QCheck2.Test.make
    ~name:"random acyclic diagrams: MIL and SIL agree bit-for-bit (500 steps)"
    ~count:interp_fuzz_count
    QCheck2.Gen.(pair (int_range 1 100000) (int_range 1 18))
    (fun (seed, size) ->
      let m = Test_model_fuzz.random_dag ~seed ~size in
      let r = diff_model ~steps:500 ~name:"fuzz" m in
      match r.Silvm_diff.divergence with
      | None -> true
      | Some d ->
          QCheck2.Test.fail_reportf
            "seed=%d size=%d diverged at step %d on %s[%d]: MIL=%s SIL=%s"
            seed size d.Silvm_diff.d_step d.Silvm_diff.d_block
            d.Silvm_diff.d_port d.Silvm_diff.d_mil d.Silvm_diff.d_sil)

(* an integer-typed variant: quantised casts at random points make the
   wrap/round/saturate paths load-bearing *)
let random_int_dag ~seed ~size =
  let rng = Random.State.make [| seed; 4242 |] in
  let m = Model.create (Printf.sprintf "ifuzz%d" seed) in
  let outputs = ref [] in
  let s1 = Model.add m (Sources.constant 1.25) in
  let s2 = Model.add m (Sources.sine ~amp:1000.0 ()) in
  outputs := [ (s1, 0); (s2, 0) ];
  let int_dtypes =
    [| Dtype.Int8; Dtype.Uint8; Dtype.Int16; Dtype.Uint16; Dtype.Int32 |]
  in
  for _ = 1 to size do
    let pick = Random.State.int rng 7 in
    let spec =
      match pick with
      | 0 -> Math_blocks.cast int_dtypes.(Random.State.int rng 5)
      | 1 -> Math_blocks.gain (Random.State.float rng 400.0 -. 200.0)
      | 2 -> Math_blocks.sum "+-"
      | 3 -> Discrete_blocks.unit_delay ()
      | 4 -> Nonlinear_blocks.saturation ~lo:(-500.0) ~hi:500.0
      | 5 -> Math_blocks.abs_block
      | _ -> Math_blocks.cast Dtype.Uint16
    in
    let blk = Model.add m spec in
    for p = 0 to spec.Block.n_in - 1 do
      let src = List.nth !outputs (Random.State.int rng (List.length !outputs)) in
      Model.connect m ~src ~dst:(blk, p)
    done;
    for p = 0 to spec.Block.n_out - 1 do
      outputs := (blk, p) :: !outputs
    done
  done;
  m

let prop_int_dag_mil_sil_bit_exact =
  QCheck2.Test.make
    ~name:"random quantised diagrams: MIL and SIL agree bit-for-bit (500 steps)"
    ~count:interp_fuzz_count
    QCheck2.Gen.(pair (int_range 1 100000) (int_range 1 18))
    (fun (seed, size) ->
      let m = random_int_dag ~seed ~size in
      let r = diff_model ~steps:500 ~name:"ifuzz" m in
      match r.Silvm_diff.divergence with
      | None -> true
      | Some d ->
          QCheck2.Test.fail_reportf
            "seed=%d size=%d diverged at step %d on %s[%d]: MIL=%s SIL=%s"
            seed size d.Silvm_diff.d_step d.Silvm_diff.d_block
            d.Silvm_diff.d_port d.Silvm_diff.d_mil d.Silvm_diff.d_sil)

(* the MIR optimization passes must be invisible to the differential:
   the SIL side runs the --opt generated code against the unchanged
   MIL engine, so any folding/propagation/fusion bug that alters a
   single bit of a single signal surfaces here *)
let test_servo_diff_opt () =
  let run variant what =
    let config = { Servo_system.default_config with Servo_system.variant } in
    let b = Servo_system.build ~config () in
    let comp = Compile.compile b.Servo_system.controller in
    let plant = Servo_system.pil_plant b in
    let driver = Servo_system.pil_driver b in
    let r =
      Silvm_diff.run ~steps:500 ~opt:true
        ~plant:(Silvm_diff.Plant (plant, driver))
        ~name:"servo" ~project:b.Servo_system.project comp
    in
    check_no_divergence what r
  in
  run Servo_system.Float_pid "servo float --opt";
  run Servo_system.Fixed_pid "servo fixed --opt"

let prop_int_dag_opt_bit_exact =
  QCheck2.Test.make
    ~name:
      "random quantised diagrams: optimized SIL stays bit-exact (500 steps)"
    ~count:(max 20 (interp_fuzz_count / 2))
    QCheck2.Gen.(pair (int_range 200001 300000) (int_range 1 18))
    (fun (seed, size) ->
      let m = random_int_dag ~seed ~size in
      let r = diff_model ~steps:500 ~opt:true ~name:"ofuzz" m in
      match r.Silvm_diff.divergence with
      | None -> true
      | Some d ->
          QCheck2.Test.fail_reportf
            "--opt seed=%d size=%d diverged at step %d on %s[%d]: MIL=%s SIL=%s"
            seed size d.Silvm_diff.d_step d.Silvm_diff.d_block
            d.Silvm_diff.d_port d.Silvm_diff.d_mil d.Silvm_diff.d_sil)

(* float variant with ULP tolerance, as a robustness margin for
   platforms whose libm differs from the one OCaml links *)
let prop_dag_mil_sil_ulp =
  QCheck2.Test.make
    ~name:"random float diagrams: MIL and SIL within 4 ULP (500 steps)"
    ~count:(max 20 (interp_fuzz_count / 3))
    QCheck2.Gen.(pair (int_range 100001 200000) (int_range 1 18))
    (fun (seed, size) ->
      let m = Test_model_fuzz.random_dag ~seed ~size in
      let r = diff_model ~steps:500 ~float_mode:(Silvm_diff.Ulp 4) ~name:"ufuzz" m in
      r.Silvm_diff.divergence = None)

let qtest t = QCheck_alcotest.to_alcotest t

let suite =
  [
    Alcotest.test_case "interp: C99 integer arithmetic" `Quick
      test_interp_c_arithmetic;
    Alcotest.test_case "interp: pe_sat16 / pe_sat_add32 semantics" `Quick
      test_interp_sat_helpers;
    Alcotest.test_case "interp: pe_cast_* replicate Value.of_float" `Quick
      test_interp_cast_helpers_match_value;
    Alcotest.test_case "interp: helper bodies match the MIR intrinsics" `Quick
      test_interp_helper_bodies_match_intrinsics;
    Alcotest.test_case "regression: Cast output quantisation" `Quick
      test_cast_quantization_regression;
    Alcotest.test_case "servo: 1000-step MIL vs SIL, zero divergence" `Slow
      test_servo_diff_1000;
    Alcotest.test_case "isr-demo: event groups fire identically" `Quick
      test_isr_demo_diff;
    Alcotest.test_case "servo: golden SIL PWM duty trace" `Slow
      test_servo_sil_golden;
    Alcotest.test_case "servo: MIL vs optimized SIL, zero divergence" `Quick
      test_servo_diff_opt;
    qtest prop_dag_mil_sil_bit_exact;
    qtest prop_int_dag_mil_sil_bit_exact;
    qtest prop_int_dag_opt_bit_exact;
    qtest prop_dag_mil_sil_ulp;
  ]

(* The AUTOSAR block-set variant (§8): functionally identical blocks,
   MCAL-style generated API. *)

let check_bool = Alcotest.(check bool)
let contains = Astring_contains.contains

let ar_cfg =
  { Servo_system.default_config with
    Servo_system.block_set = Servo_system.Autosar_blocks }

let test_behaviour_identical () =
  (* the paper: "the blocks of both variants are the same from the
     functional point of view" -- MIL trajectories must match exactly *)
  let pe = Servo_system.build () in
  let ar = Servo_system.build ~config:ar_cfg () in
  let sp_pe, _ = Servo_system.mil_run pe ~t_end:0.6 in
  let sp_ar, _ = Servo_system.mil_run ar ~t_end:0.6 in
  check_bool "identical MIL trajectories" true (sp_pe = sp_ar)

let artifacts =
  lazy
    (let b = Servo_system.build ~config:ar_cfg () in
     let comp = Compile.compile b.Servo_system.controller in
     Target.generate ~name:"servo" ~project:b.Servo_system.project comp)

let test_mcal_api_in_code () =
  let c = C_print.print_unit (Lazy.force artifacts).Target.model_c in
  check_bool "Adc group conversion" false (contains c "QD1_GetPosition");
  check_bool "Icu position read" true (contains c "Icu_GetEdgeNumbers(IcuChannel_QD1)");
  check_bool "Pwm MCAL duty" true (contains c "Pwm_SetDutyCycle(PwmChannel_PWM1");
  check_bool "Dio read" true (contains c "Dio_ReadChannel(DioChannel_SW1)");
  check_bool "Mcal header" true (contains c "#include \"Mcal.h\"");
  check_bool "no PE method calls" false (contains c "PWM1_SetRatio16")

let test_gpt_notification_schedules () =
  let m = C_print.print_unit (Lazy.force artifacts).Target.main_c in
  check_bool "Gpt notification runs the step" true
    (contains m "void Gpt_Notification_TI1(void)");
  check_bool "Mcal_Init in main" true (contains m "Mcal_Init();");
  check_bool "Gpt started" true (contains m "Gpt_StartTimer(GptChannel_TI1");
  check_bool "no PE enable calls" false (contains m "TI1_Enable();")

let test_mcal_hal_units () =
  let hal = (Lazy.force artifacts).Target.hal in
  let names = List.map (fun u -> u.C_ast.unit_name) hal in
  List.iter
    (fun n -> check_bool ("unit " ^ n) true (List.mem n names))
    [ "Std_Types.h"; "Mcal_Cfg.h"; "Mcal.h"; "Gpt.c"; "Pwm.c"; "Dio.c"; "Icu.c";
      "CddUart.c"; "Mcal.c" ];
  let cfgh = List.find (fun u -> u.C_ast.unit_name = "Mcal_Cfg.h") hal in
  let s = C_print.print_unit cfgh in
  check_bool "symbolic channels resolved" true (contains s "#define PwmChannel_PWM1");
  let gpt = List.find (fun u -> u.C_ast.unit_name = "Gpt.c") hal in
  let s = C_print.print_unit gpt in
  check_bool "expert-resolved modulo baked into Gpt_Init" true (contains s "59999")

let test_autosar_pil_variant () =
  (* the PIL redirection applies to the AUTOSAR blocks too *)
  let cfg = { ar_cfg with Servo_system.control_period = 5e-3 } in
  let b = Servo_system.build ~config:cfg () in
  let comp = Compile.compile b.Servo_system.controller in
  let a = Pil_target.generate ~name:"servo" ~project:b.Servo_system.project comp in
  let c = C_print.print_unit a.Target.model_c in
  check_bool "sensor redirected" true (contains c "pil_sensor_buf[");
  check_bool "no MCAL hardware access" false (contains c "Icu_GetEdgeNumbers");
  (* and the co-simulation behaves like the PE one *)
  let controller = Sim.create comp in
  let plant = Servo_system.pil_plant b in
  let driver = Servo_system.pil_driver b in
  let r =
    Pil_cosim.run ~mcu:cfg.Servo_system.mcu ~schedule:a.Target.schedule ~controller
      ~plant ~driver ~periods:250 ()
  in
  match List.rev (Servo_system.pil_speed_trace r.Pil_cosim.trace) with
  | (_, w) :: _ -> Alcotest.(check (float 5.0)) "AUTOSAR PIL tracks" 150.0 w
  | [] -> Alcotest.fail "no trace"

(* one reading of a kind: every constructor of both block sets maps to
   its (peripheral, API), every other kind to none *)
let test_classification () =
  let p = Bean_project.create Mcu_db.mc56f8367 in
  let add name c = Bean_project.add p (Bean.make ~name c) in
  let ti = add "TI1" (Bean.Timer_int { period = 1e-3; tolerance_frac = 0.001 }) in
  let ad =
    add "AD1"
      (Bean.Adc { channel = None; resolution = 12; vref = 3.3; sample_period = 1e-3 })
  in
  let pw = add "PWM1" (Bean.Pwm { channel = None; freq_hz = 20e3; initial_ratio = 0.0 }) in
  let sw =
    add "SW1"
      (Bean.Bit_io
         { pin = List.hd Mcu_db.mc56f8367.Mcu_db.pins; direction = Bean.In_pin;
           init = false })
  in
  let qd = add "QD1" (Bean.Quad_dec { lines_per_rev = 100 }) in
  let open Periph_blocks in
  let built =
    [
      (timer_int ti, (Timer_int, Pe));
      (adc ad, (Adc, Pe));
      (pwm pw, (Pwm, Pe));
      (bit_io_in sw, (Bit_io_in, Pe));
      (quad_decoder qd, (Quad_dec, Pe));
      (Autosar_blocks.timer_int ti, (Timer_int, Autosar));
      (Autosar_blocks.pwm pw, (Pwm, Autosar));
      (Autosar_blocks.dio_in sw, (Bit_io_in, Autosar));
      (Autosar_blocks.icu_position qd, (Quad_dec, Autosar));
    ]
  in
  List.iter
    (fun (spec, c) ->
      let k = spec.Block.kind in
      check_bool ("classified " ^ k) true (classify k = Some c);
      Alcotest.(check string) ("kind of " ^ k) k (kind_of c))
    built;
  (* the two directions agree on every pair, the ones no constructor
     builds included *)
  List.iter
    (fun p ->
      List.iter
        (fun api ->
          match kind_of (p, api) with
          | k -> check_bool ("round trip " ^ k) true (classify k = Some (p, api))
          | exception Not_found ->
              check_bool "only the AUTOSAR ADC is missing" true ((p, api) = (Adc, Autosar)))
        [ Pe; Autosar ])
    [ Timer_int; Adc; Pwm; Bit_io_in; Quad_dec ];
  let periph_kinds = List.map (fun (spec, _) -> spec.Block.kind) built in
  let kinds m = List.map (fun b -> (Model.spec_of m b).Block.kind) (Model.blocks m) in
  let pe = Servo_system.build () and ar = Servo_system.build ~config:ar_cfg () in
  List.iter
    (fun k ->
      if not (List.mem k periph_kinds) then
        check_bool ("no peripheral: " ^ k) true (classify k = None))
    (List.concat_map kinds
       [ pe.Servo_system.closed_loop; pe.Servo_system.controller;
         ar.Servo_system.controller ]
    @ [ "PE_Dac"; "PE_FreeCntr"; "AR_Adc"; "" ]);
  check_bool "PE servo calls bean methods" true
    (model_api pe.Servo_system.controller = Pe);
  check_bool "AUTOSAR servo calls MCAL" true
    (model_api ar.Servo_system.controller = Autosar)

(* a block set is only the API of the HAL call: the cycle model prices
   the AUTOSAR servo as the PE one *)
let test_equal_cost () =
  let schedule config =
    let b = Servo_system.build ~config () in
    let a =
      Target.generate ~name:"servo" ~project:b.Servo_system.project
        (Compile.compile b.Servo_system.controller)
    in
    (a.Target.schedule, a.Target.report)
  in
  let pe_s, pe_r = schedule Servo_system.default_config in
  let ar_s, ar_r = schedule ar_cfg in
  Alcotest.(check int) "step cycles" pe_s.Target.total_step_cycles
    ar_s.Target.total_step_cycles;
  Alcotest.(check int) "ISR stack" pe_s.Target.isr_stack_bytes
    ar_s.Target.isr_stack_bytes;
  Alcotest.(check int) "stack" pe_r.Target.stack_bytes ar_r.Target.stack_bytes

(* MIL <-> SIL lock-step of the AUTOSAR servo closed over its plant:
   the generated MCAL code computes every block output of the model,
   bit for bit, in both arithmetics and with and without the MIR
   optimiser *)
let test_autosar_lockstep () =
  let steps = 2000 in
  List.iter
    (fun (variant, opt) ->
      let b =
        Servo_system.build ~config:{ ar_cfg with Servo_system.variant } ()
      in
      let r =
        Silvm_diff.run ~steps ~opt
          ~plant:
            (Silvm_diff.Plant
               (Servo_system.pil_plant b, Servo_system.pil_driver b))
          ~name:"servo" ~project:b.Servo_system.project
          (Compile.compile b.Servo_system.controller)
      in
      (match r.Silvm_diff.divergence with
      | None -> ()
      | Some d ->
          Alcotest.failf "opt %b: diverged at step %d on %s[%d] (MIL %s, SIL %s)"
            opt d.Silvm_diff.d_step d.Silvm_diff.d_block d.Silvm_diff.d_port
            d.Silvm_diff.d_mil d.Silvm_diff.d_sil);
      Alcotest.(check int) "ran every step" steps r.Silvm_diff.steps_run)
    [
      (Servo_system.Float_pid, false); (Servo_system.Float_pid, true);
      (Servo_system.Fixed_pid, false); (Servo_system.Fixed_pid, true);
    ]

let test_notification_names () =
  let p = Bean_project.create Mcu_db.mc56f8367 in
  let ti = Bean_project.add p (Bean.make ~name:"TI1" (Bean.Timer_int { period = 1e-3; tolerance_frac = 0.01 })) in
  let pwm = Bean_project.add p (Bean.make ~name:"PWM1" (Bean.Pwm { channel = None; freq_hz = 20e3; initial_ratio = 0.0 })) in
  Alcotest.(check (option string)) "gpt notification" (Some "Gpt_Notification_TI1")
    (Autosar_code.notification_name ti);
  Alcotest.(check (option string)) "pwm has none" None
    (Autosar_code.notification_name pwm);
  Alcotest.(check string) "symbolic id" "GptChannel_TI1" (Autosar_code.symbolic_id ti)

let suite =
  [
    Alcotest.test_case "behaviour identical to PE" `Quick test_behaviour_identical;
    Alcotest.test_case "MCAL API in code" `Quick test_mcal_api_in_code;
    Alcotest.test_case "Gpt notification scheduling" `Quick test_gpt_notification_schedules;
    Alcotest.test_case "MCAL HAL units" `Quick test_mcal_hal_units;
    Alcotest.test_case "AUTOSAR PIL" `Quick test_autosar_pil_variant;
    Alcotest.test_case "classification" `Quick test_classification;
    Alcotest.test_case "AUTOSAR costs as PE" `Quick test_equal_cost;
    Alcotest.test_case "AUTOSAR MIL-SIL lock-step" `Quick test_autosar_lockstep;
    Alcotest.test_case "notification names" `Quick test_notification_names;
  ]

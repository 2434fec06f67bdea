(* The PEERT code generator: structure and content of the generated C. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let contains = Astring_contains.contains

let built = lazy (Servo_system.build ())

let artifacts =
  lazy
    (let b = Lazy.force built in
     let comp = Compile.compile b.Servo_system.controller in
     Target.generate ~name:"servo" ~project:b.Servo_system.project comp)

let model_c () = C_print.print_unit (Lazy.force artifacts).Target.model_c
let model_h () = C_print.print_unit (Lazy.force artifacts).Target.model_h
let main_c () = C_print.print_unit (Lazy.force artifacts).Target.main_c

let test_model_functions_present () =
  let c = model_c () in
  check_bool "initialize" true (contains c "void servo_initialize(void)");
  check_bool "step" true (contains c "void servo_step(void)");
  check_bool "tick counter" true (contains c "servo_tick")

let test_structs_declared () =
  let h = model_h () in
  check_bool "block io struct" true (contains h "servo_B_t");
  check_bool "state struct" true (contains h "servo_DW_t");
  check_bool "external inputs" true (contains h "servo_U_t")

let test_bean_methods_called () =
  let c = model_c () in
  check_bool "pwm ratio call" true (contains c "PWM1_SetRatio16(");
  check_bool "decoder read" true (contains c "QD1_GetPosition()");
  check_bool "button read" true (contains c "SW1_GetVal()")

let test_timer_isr_runs_step () =
  let m = main_c () in
  check_bool "timer event defined" true (contains m "void TI1_OnInterrupt(void)");
  check_bool "step called from ISR" true (contains m "servo_step();");
  check_bool "bean inits in main" true (contains m "TI1_Enable();");
  check_bool "background loop" true (contains m "background_task")

let test_encoder_wrap_code () =
  let c = model_c () in
  (* the wrap-aware diff must go through an int16 cast *)
  check_bool "int16 cast diff" true (contains c "(int16_t)")

let test_report_sane () =
  let r = (Lazy.force artifacts).Target.report in
  check_bool "blocks counted" true (r.Target.n_blocks >= 15);
  check_bool "app loc" true (r.Target.app_loc > 100);
  check_bool "hal loc" true (r.Target.hal_loc > 80);
  check_bool "state bytes positive" true (r.Target.state_bytes > 0);
  check_bool "step time < period" true (r.Target.step_time < 1e-3);
  check_bool "ram within part" true
    (r.Target.est_ram_bytes < Mcu_db.mc56f8367.Mcu_db.ram_bytes);
  check_bool "no warnings" true (r.Target.warnings = [])

let test_schedule_slots () =
  let s = (Lazy.force artifacts).Target.schedule in
  (* sensors: quadrature decoder and mode button; actuator: PWM *)
  check_int "sensor slots" 2 (List.length s.Target.sensor_slots);
  check_int "actuator slots" 1 (List.length s.Target.actuator_slots);
  Alcotest.(check (option string)) "timer bean" (Some "TI1") s.Target.timer_bean;
  check_bool "cycles positive" true (s.Target.total_step_cycles > 100)

let test_plant_blocks_rejected () =
  let b = Lazy.force built in
  let comp = Compile.compile b.Servo_system.closed_loop in
  match Target.generate ~name:"bad" ~project:b.Servo_system.project comp with
  | exception Target.Codegen_error msg ->
      check_bool "names the plant block" true (contains msg "controller subsystem")
  | _ -> Alcotest.fail "closed-loop model must not generate"

let test_pil_variant_redirects () =
  let b = Lazy.force built in
  let comp = Compile.compile b.Servo_system.controller in
  let a = Pil_target.generate ~name:"servo" ~project:b.Servo_system.project comp in
  let c = C_print.print_unit a.Target.model_c in
  check_bool "sensor buffer read" true (contains c "pil_sensor_buf[");
  check_bool "actuator buffer write" true (contains c "pil_actuator_buf[");
  check_bool "no hardware access" false (contains c "QD1_GetPosition()");
  let rt =
    List.find (fun u -> u.C_ast.unit_name = "pil_rt.c") a.Target.hal
  in
  let rts = C_print.print_unit rt in
  check_bool "rx ISR over the serial bean" true (contains rts "AS1_OnRxChar");
  check_bool "crc in runtime" true (contains rts "pil_crc16");
  check_bool "step from comm" true (contains rts "servo_step();")

let test_pil_needs_serial_bean () =
  let p = Bean_project.create Mcu_db.mc56f8367 in
  ignore
    (Bean_project.add p
       (Bean.make ~name:"TI1" (Bean.Timer_int { period = 1e-3; tolerance_frac = 0.01 })));
  let m = Model.create "tiny" in
  let c = Model.add m (Sources.constant 1.0) in
  let g = Model.add m (Math_blocks.gain 2.0) in
  Model.connect m ~src:(c, 0) ~dst:(g, 0);
  let comp = Compile.compile ~default_dt:1e-3 m in
  match Pil_target.generate ~name:"tiny" ~project:p comp with
  | exception Target.Codegen_error msg ->
      check_bool "mentions serial" true (contains msg "AsynchroSerial")
  | _ -> Alcotest.fail "PIL without a serial bean accepted"

let test_fixpid_constants_match_simulation () =
  (* the generated fixed-point controller must carry the same raw
     coefficients the simulation uses *)
  let cfg = { Servo_system.default_config with Servo_system.variant = Servo_system.Fixed_pid } in
  let b = Servo_system.build ~config:cfg () in
  let comp = Compile.compile b.Servo_system.controller in
  let a = Target.generate ~name:"servofx" ~project:b.Servo_system.project comp in
  let c = C_print.print_unit a.Target.model_c in
  let fx =
    Pid.Fixpoint.create ~ts:1e-3 ~in_scale:512.0
      ~out_scale:Dc_motor.default.Dc_motor.u_max b.Servo_system.gains
  in
  let rc = Pid.Fixpoint.raw_coefficients fx in
  check_bool "kp raw baked in" true
    (contains c (string_of_int rc.Pid.Fixpoint.kp_raw));
  check_bool "ki*ts raw baked in" true
    (contains c (string_of_int rc.Pid.Fixpoint.ki_ts_raw));
  check_bool "saturating helpers" true (contains c "pe_sat_add32")

let test_multirate_sections () =
  (* a model with 1 ms and 4 ms rates gets a modulo-guarded section *)
  let m = Model.create "rates" in
  let s = Model.add m (Sources.constant 1.0) in
  let z1 = Model.add m (Discrete_blocks.zoh ~period:1e-3 ()) in
  let z4 = Model.add m (Discrete_blocks.zoh ~period:4e-3 ()) in
  let g1 = Model.add m (Math_blocks.gain 1.0) in
  let g4 = Model.add m (Math_blocks.gain 1.0) in
  Model.connect m ~src:(s, 0) ~dst:(z1, 0);
  Model.connect m ~src:(s, 0) ~dst:(z4, 0);
  Model.connect m ~src:(z1, 0) ~dst:(g1, 0);
  Model.connect m ~src:(z4, 0) ~dst:(g4, 0);
  let p = Bean_project.create Mcu_db.mc56f8367 in
  let comp = Compile.compile m in
  let a = Target.generate ~name:"rates" ~project:p comp in
  let c = C_print.print_unit a.Target.model_c in
  check_bool "subrate guard" true (contains c "% 4 == 0")

let test_fc_group_isr () =
  (* an event-driven function-call subsystem becomes a dedicated function
     called from the bean event ISR *)
  let p = Bean_project.create Mcu_db.mc56f8367 in
  ignore
    (Bean_project.add p
       (Bean.make ~name:"AD1"
          (Bean.Adc { channel = None; resolution = 12; vref = 3.3; sample_period = 1e-3 })));
  let m = Model.create "evt" in
  let src = Model.add m (Sources.constant 1.0) in
  let adc = Model.add m ~name:"adc" (Periph_blocks.adc (Bean_project.find p "AD1")) in
  let g = Model.add m ~name:"g" (Math_blocks.gain 2.0) in
  Model.connect m ~src:(src, 0) ~dst:(adc, 0);
  Model.connect m ~src:(adc, 0) ~dst:(g, 0);
  let grp = Model.fc_group m "on_sample" in
  Model.assign_group m g grp;
  Model.connect_event m ~src:(adc, 0) grp;
  let comp = Compile.compile m in
  let a = Target.generate ~name:"evt" ~project:p comp in
  let c = C_print.print_unit a.Target.model_c in
  let mn = C_print.print_unit a.Target.main_c in
  check_bool "group function" true (contains c "void evt_on_sample(void)");
  check_bool "wired from the event ISR" true (contains mn "void AD1_OnEnd(void)");
  check_bool "isr calls group" true (contains mn "evt_on_sample();")

let test_write_to_dir () =
  let a = Lazy.force artifacts in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "peert_out" in
  let files = Target.write_to_dir a ~dir in
  check_bool "several files" true (List.length files >= 5);
  check_bool "makefile written" true
    (List.exists (fun f -> Filename.basename f = "Makefile") files);
  List.iter (fun f -> check_bool ("exists " ^ f) true (Sys.file_exists f)) files

let test_cost_model_orderings () =
  let mcu = Mcu_db.mc56f8367 in
  let gain = Math_blocks.gain 2.0 in
  let float_cost = Cost_model.cycles_of_block mcu gain Dtype.Double in
  let fix_cost = Cost_model.cycles_of_block mcu gain Dtype.Int16 in
  check_bool "soft-float double costs more than native fixed" true
    (float_cost > 5 * fix_cost);
  (* a MAC-less CPU pays more for fixed multiplies than a DSC *)
  let hc12_cost = Cost_model.cycles_of_block Mcu_db.mc9s12dp256 gain Dtype.Int16 in
  check_bool "mac advantage" true (hc12_cost > fix_cost)

let suite =
  [
    Alcotest.test_case "model functions" `Quick test_model_functions_present;
    Alcotest.test_case "structs" `Quick test_structs_declared;
    Alcotest.test_case "bean method calls" `Quick test_bean_methods_called;
    Alcotest.test_case "timer ISR" `Quick test_timer_isr_runs_step;
    Alcotest.test_case "encoder wrap code" `Quick test_encoder_wrap_code;
    Alcotest.test_case "report sane" `Quick test_report_sane;
    Alcotest.test_case "schedule slots" `Quick test_schedule_slots;
    Alcotest.test_case "plant blocks rejected" `Quick test_plant_blocks_rejected;
    Alcotest.test_case "pil redirection" `Quick test_pil_variant_redirects;
    Alcotest.test_case "pil needs serial" `Quick test_pil_needs_serial_bean;
    Alcotest.test_case "fixpid constants" `Quick test_fixpid_constants_match_simulation;
    Alcotest.test_case "multirate sections" `Quick test_multirate_sections;
    Alcotest.test_case "fc group isr" `Quick test_fc_group_isr;
    Alcotest.test_case "write to dir" `Quick test_write_to_dir;
    Alcotest.test_case "cost model" `Quick test_cost_model_orderings;
  ]

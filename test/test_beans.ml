(* Processor Expert substrate: expert system, resources, beans, projects,
   inspector and HAL generation. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float eps = Alcotest.(check (float eps))
let mcu = Mcu_db.mc56f8367

(* ---------- expert system ---------- *)

let test_timer_solver_exact () =
  (* 1 ms at 60 MHz: 60000 cycles = prescaler 1 x modulo 60000 or 2x30000;
     the solver must land exactly with zero error *)
  match Expert.solve_timer_period mcu ~period:1e-3 with
  | Ok sol ->
      check_float 1e-15 "zero error" 0.0 sol.Expert.error_frac;
      check_int "cycles" 60000 (sol.Expert.prescaler * sol.Expert.modulo);
      check_bool "modulo within 16 bits" true (sol.Expert.modulo <= 65536)
  | Error e -> Alcotest.fail e

let test_timer_solver_rounding () =
  (* a prime-ish period needs rounding; error must be small and reported *)
  match Expert.solve_timer_period mcu ~period:1.00001e-3 with
  | Ok sol ->
      check_bool "tiny error" true
        (sol.Expert.error_frac > 0.0 && sol.Expert.error_frac < 1e-4);
      check_bool "achieved close" true
        (Float.abs (sol.Expert.achieved_period -. 1.00001e-3) < 1e-7)
  | Error e -> Alcotest.fail e

let test_timer_solver_range () =
  let lo, hi = Expert.achievable_timer_range mcu in
  check_bool "range sane" true (lo < 1e-6 && hi > 0.1);
  (match Expert.solve_timer_period mcu ~period:(hi *. 2.0) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "over-range period accepted");
  match Expert.solve_timer_period mcu ~period:(-1.0) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative period accepted"

let test_timer_tolerance_check () =
  match Expert.solve_timer_period mcu ~period:1.00001e-3 with
  | Ok sol -> (
      (match Expert.check_period_tolerance sol ~tolerance_frac:0.01 with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      match Expert.check_period_tolerance sol ~tolerance_frac:1e-9 with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "zero tolerance should reject rounding")
  | Error e -> Alcotest.fail e

let test_pll_solver () =
  (* the case-study clock: 8 MHz crystal to a 60 MHz core *)
  (match Expert.solve_pll ~crystal_hz:8e6 ~target_hz:60e6 () with
  | Ok sol ->
      check_float 1e-6 "exact 60 MHz" 60e6 sol.Expert.achieved_hz;
      check_float 1e-12 "zero error" 0.0 sol.Expert.pll_error_frac;
      check_bool "vco legal" true
        (8e6 *. float_of_int sol.Expert.multiplier <= 400e6)
  | Error e -> Alcotest.fail e);
  (* an unreachable target is diagnosed with the closest alternative *)
  (match Expert.solve_pll ~crystal_hz:8e6 ~target_hz:61.3e6 ~mult_range:(1, 8)
           ~div_range:(1, 1) () with
  | Error msg -> check_bool "closest named" true (Astring_contains.contains msg "closest")
  | Ok _ -> Alcotest.fail "rough target accepted");
  match Expert.solve_pll ~crystal_hz:8e6 ~target_hz:60e6 ~vco_max_hz:10e6 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "VCO ceiling ignored"

let test_pwm_solver () =
  (match Expert.solve_pwm_period mcu ~hz:20e3 with
  | Ok (counts, actual) ->
      check_int "counts" 3000 counts;
      check_float 1e-6 "exact carrier" 20e3 actual
  | Error e -> Alcotest.fail e);
  (match Expert.solve_pwm_period mcu ~hz:100.0 with
  | Error _ -> () (* needs 600000 counts > 15 bits *)
  | Ok _ -> Alcotest.fail "too-slow carrier accepted");
  match Expert.solve_pwm_period mcu ~hz:100e6 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "too-fast carrier accepted"

let test_adc_timing_check () =
  (* conversion is 102 cycles = 1.7 us on the 56F8367 *)
  (match Expert.check_adc_sampling mcu ~sample_period:1e-3 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Expert.check_adc_sampling mcu ~sample_period:1e-6 with
  | Error e -> check_bool "explains headroom" true (Astring_contains.contains e "headroom")
  | Ok () -> Alcotest.fail "impossible sampling accepted"

let test_sci_solver () =
  (match Expert.solve_sci_divisor mcu ~baud:115200 with
  | Ok (div, err) ->
      check_bool "divisor positive" true (div >= 1);
      check_bool "error within budget" true (err <= 0.03)
  | Error e -> Alcotest.fail e);
  match Expert.solve_sci_divisor mcu ~baud:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero baud accepted"

(* ---------- resources ---------- *)

let test_resource_conflicts () =
  let r = Resources.create mcu in
  (match Resources.claim r ~owner:"A" Resources.Pwm_ch ~unit_index:0 () with
  | Ok 0 -> ()
  | _ -> Alcotest.fail "first claim failed");
  (match Resources.claim r ~owner:"B" Resources.Pwm_ch ~unit_index:0 () with
  | Error msg ->
      check_bool "names the owner" true (Astring_contains.contains msg "A")
  | Ok _ -> Alcotest.fail "conflict accepted");
  (* auto allocation skips the taken channel *)
  match Resources.claim r ~owner:"B" Resources.Pwm_ch () with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "auto allocation wrong"

let test_resource_exhaustion () =
  let r = Resources.create mcu in
  let n = mcu.Mcu_db.sci_count in
  for i = 0 to n - 1 do
    match Resources.claim r ~owner:(Printf.sprintf "S%d" i) Resources.Sci_port () with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done;
  match Resources.claim r ~owner:"extra" Resources.Sci_port () with
  | Error msg -> check_bool "reports exhaustion" true (Astring_contains.contains msg "in use")
  | Ok _ -> Alcotest.fail "over-allocation accepted"

let test_resource_release () =
  let r = Resources.create mcu in
  ignore (Resources.claim r ~owner:"A" Resources.Qdec_unit ());
  Resources.release_owner r "A";
  match Resources.claim r ~owner:"B" Resources.Qdec_unit () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_unknown_pin () =
  let r = Resources.create mcu in
  match Resources.claim r ~owner:"A" (Resources.Pin "NOPE") () with
  | Error msg -> check_bool "names the MCU" true (Astring_contains.contains msg "MC56F8367")
  | Ok _ -> Alcotest.fail "unknown pin accepted"

(* ---------- beans & projects ---------- *)

let test_bean_resolution () =
  let p = Bean_project.create mcu in
  let ti =
    Bean_project.add p
      (Bean.make ~name:"TI1" (Bean.Timer_int { period = 1e-3; tolerance_frac = 0.001 }))
  in
  check_bool "resolved ok" true (Bean.is_valid ti);
  match ti.Bean.resolved with
  | Some (Bean.R_timer (sol, ch)) ->
      check_int "first channel" 0 ch;
      check_float 1e-12 "period" 1e-3 sol.Expert.achieved_period
  | _ -> Alcotest.fail "wrong resolution"

let test_bean_error_reported () =
  let p = Bean_project.create mcu in
  let b =
    Bean_project.add p
      (Bean.make ~name:"AD1"
         (Bean.Adc { channel = None; resolution = 10; vref = 3.3; sample_period = 1e-3 }))
  in
  check_bool "invalid" false (Bean.is_valid b);
  check_bool "message mentions resolution" true
    (List.exists (fun e -> Astring_contains.contains e "resolution") b.Bean.errors)

let test_project_verify_collects_errors () =
  let p = Bean_project.create mcu in
  ignore
    (Bean_project.add p
       (Bean.make ~name:"PWM1"
          (Bean.Pwm { channel = None; freq_hz = 10.0; initial_ratio = 0.0 })));
  match Bean_project.verify p with
  | Error msgs ->
      check_bool "prefixed with bean name" true
        (List.exists (fun m -> Astring_contains.contains m "PWM1") msgs)
  | Ok () -> Alcotest.fail "expected verification failure"

let test_project_duplicate_name () =
  let p = Bean_project.create mcu in
  ignore (Bean_project.add p (Bean.make ~name:"X" (Bean.Quad_dec { lines_per_rev = 100 })));
  match
    Bean_project.add p (Bean.make ~name:"X" (Bean.Quad_dec { lines_per_rev = 50 }))
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate accepted"

let test_project_remove_releases () =
  let p = Bean_project.create mcu in
  ignore (Bean_project.add p (Bean.make ~name:"Q1" (Bean.Quad_dec { lines_per_rev = 100 })));
  Bean_project.remove p "Q1";
  let b = Bean_project.add p (Bean.make ~name:"Q2" (Bean.Quad_dec { lines_per_rev = 100 })) in
  check_bool "resource available again" true (Bean.is_valid b)

let test_retarget () =
  (* the paper's portability story: the same beans on another CPU *)
  let p = Bean_project.create mcu in
  ignore
    (Bean_project.add p
       (Bean.make ~name:"TI1" (Bean.Timer_int { period = 1e-3; tolerance_frac = 0.001 })));
  ignore
    (Bean_project.add p
       (Bean.make ~name:"QD1" (Bean.Quad_dec { lines_per_rev = 100 })));
  let p' = Bean_project.retarget p Mcu_db.mcf5213 in
  (match Bean_project.verify p' with
  | Ok () -> ()
  | Error msgs -> Alcotest.fail (String.concat "; " msgs));
  (* retargeting to an MCU without a decoder must surface an error *)
  let p'' = Bean_project.retarget p Mcu_db.mc9s12dp256 in
  match Bean_project.verify p'' with
  | Error msgs ->
      check_bool "decoder missing reported" true
        (List.exists (fun m -> Astring_contains.contains m "QD1") msgs)
  | Ok () -> Alcotest.fail "HCS12 should fail the decoder bean"

let test_bean_methods_events () =
  let b = Bean.make ~name:"AD1" (Bean.Adc { channel = None; resolution = 12; vref = 3.3; sample_period = 1e-3 }) in
  let names = List.map fst (Bean.methods b) in
  check_bool "Measure" true (List.mem "AD1_Measure" names);
  check_bool "GetValue" true (List.mem "AD1_GetValue" names);
  Alcotest.(check (list string)) "events" [ "AD1_OnEnd" ] (Bean.events b)

let test_inspector_output () =
  let p = Bean_project.create mcu in
  let ti =
    Bean_project.add p
      (Bean.make ~name:"TI1" (Bean.Timer_int { period = 1e-3; tolerance_frac = 0.001 }))
  in
  let s = Inspector.render_bean ti in
  check_bool "shows type" true (Astring_contains.contains s "TimerInt");
  check_bool "shows computed prescaler" true (Astring_contains.contains s "Prescaler");
  check_bool "shows methods" true (Astring_contains.contains s "TI1_Enable");
  let proj = Inspector.render_project p in
  check_bool "project shows CPU" true (Astring_contains.contains proj "MC56F8367");
  check_bool "project shows status" true (Astring_contains.contains proj "OK")

(* ---------- HAL generation ---------- *)

let servo_project () =
  let p = Bean_project.create mcu in
  let add name c = ignore (Bean_project.add p (Bean.make ~name c)) in
  add "TI1" (Bean.Timer_int { period = 1e-3; tolerance_frac = 0.001 });
  add "PWM1" (Bean.Pwm { channel = None; freq_hz = 20e3; initial_ratio = 0.0 });
  add "AD1" (Bean.Adc { channel = None; resolution = 12; vref = 3.3; sample_period = 1e-3 });
  add "QD1" (Bean.Quad_dec { lines_per_rev = 100 });
  add "AS1" (Bean.Serial { port = None; baud = 115200 });
  add "LED1"
    (Bean.Bit_io { pin = List.hd mcu.Mcu_db.pins; direction = Bean.Out_pin; init = false });
  p

let test_hal_units () =
  let p = servo_project () in
  let units = Bean_project.hal_units p in
  let names = List.map (fun u -> u.C_ast.unit_name) units in
  check_bool "types header" true (List.mem "PE_Types.h" names);
  check_bool "vectors" true (List.mem "Vectors.c" names);
  check_bool "per-bean unit" true (List.mem "TI1.c" names);
  let ti1 = List.find (fun u -> u.C_ast.unit_name = "TI1.c") units in
  let src = C_print.print_unit ti1 in
  check_bool "enable method" true (Astring_contains.contains src "byte TI1_Enable(void)");
  check_bool "modulo baked in" true (Astring_contains.contains src "59999");
  let pwm = List.find (fun u -> u.C_ast.unit_name = "PWM1.c") units in
  let src = C_print.print_unit pwm in
  check_bool "ratio method" true (Astring_contains.contains src "PWM1_SetRatio16");
  check_bool "period constant" true (Astring_contains.contains src "3000");
  check_bool "substantial HAL" true (Bean_project.hal_loc p > 100)

let test_hal_rejects_unresolved () =
  let p = Bean_project.create mcu in
  ignore
    (Bean_project.add p
       (Bean.make ~name:"PWM1"
          (Bean.Pwm { channel = None; freq_hz = 10.0; initial_ratio = 0.0 })));
  match Bean_project.hal_units p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "HAL generated from a broken project"

let test_vector_table_routes_events () =
  let p = servo_project () in
  let units = Bean_project.hal_units p in
  let v = List.find (fun u -> u.C_ast.unit_name = "Vectors.c") units in
  let src = C_print.print_unit v in
  check_bool "routes timer event" true (Astring_contains.contains src "TI1_OnInterrupt");
  check_bool "routes adc event" true (Astring_contains.contains src "AD1_OnEnd");
  check_bool "routes serial rx" true (Astring_contains.contains src "AS1_OnRxChar")

let test_dac_bean () =
  (* the DAC bean's HAL, plus the no-DAC part *)
  let p = Bean_project.create mcu in
  let bean =
    Bean_project.add p
      (Bean.make ~name:"DA1" (Bean.Dac { channel = None; resolution = 12; vref = 3.3 }))
  in
  check_bool "resolved" true (Bean.is_valid bean);
  let hal = Bean_project.hal_units p in
  let da1 = List.find (fun u -> u.C_ast.unit_name = "DA1.c") hal in
  check_bool "HAL clamps" true
    (Astring_contains.contains (C_print.print_unit da1) "4095");
  (* a part without a DAC rejects the bean with a diagnosis *)
  let hcs12 = Bean_project.create Mcu_db.mc9s12dp256 in
  let b = Bean_project.add hcs12 (Bean.make ~name:"DA1" (Bean.Dac { channel = None; resolution = 12; vref = 3.3 })) in
  check_bool "HCS12 has no DAC" false (Bean.is_valid b);
  check_bool "diagnosed" true
    (List.exists (fun e -> Astring_contains.contains e "no DAC") b.Bean.errors)

let test_watchdog_bean () =
  let p = Bean_project.create mcu in
  let wd = Bean_project.add p (Bean.make ~name:"WD1" (Bean.Watch_dog { timeout = 5e-3 })) in
  check_bool "resolved" true (Bean.is_valid wd);
  let names = List.map fst (Bean.methods wd) in
  check_bool "Clear method" true (List.mem "WD1_Clear" names);
  let units = Bean_project.hal_units p in
  let u = List.find (fun u -> u.C_ast.unit_name = "WD1.c") units in
  let src = C_print.print_unit u in
  check_bool "service sequence" true (Astring_contains.contains src "0x5555");
  (* nonsense timeout rejected *)
  let bad = Bean_project.add p (Bean.make ~name:"WD2" (Bean.Watch_dog { timeout = -1.0 })) in
  check_bool "negative timeout" false (Bean.is_valid bad)

let suite =
  [
    Alcotest.test_case "watchdog bean" `Quick test_watchdog_bean;
    Alcotest.test_case "dac bean" `Quick test_dac_bean;
    Alcotest.test_case "timer solver exact" `Quick test_timer_solver_exact;
    Alcotest.test_case "timer solver rounding" `Quick test_timer_solver_rounding;
    Alcotest.test_case "timer range" `Quick test_timer_solver_range;
    Alcotest.test_case "timer tolerance" `Quick test_timer_tolerance_check;
    Alcotest.test_case "pll solver" `Quick test_pll_solver;
    Alcotest.test_case "pwm solver" `Quick test_pwm_solver;
    Alcotest.test_case "adc timing check" `Quick test_adc_timing_check;
    Alcotest.test_case "sci solver" `Quick test_sci_solver;
    Alcotest.test_case "resource conflicts" `Quick test_resource_conflicts;
    Alcotest.test_case "resource exhaustion" `Quick test_resource_exhaustion;
    Alcotest.test_case "resource release" `Quick test_resource_release;
    Alcotest.test_case "unknown pin" `Quick test_unknown_pin;
    Alcotest.test_case "bean resolution" `Quick test_bean_resolution;
    Alcotest.test_case "bean error" `Quick test_bean_error_reported;
    Alcotest.test_case "project verify" `Quick test_project_verify_collects_errors;
    Alcotest.test_case "duplicate bean" `Quick test_project_duplicate_name;
    Alcotest.test_case "remove releases" `Quick test_project_remove_releases;
    Alcotest.test_case "retarget" `Quick test_retarget;
    Alcotest.test_case "methods/events" `Quick test_bean_methods_events;
    Alcotest.test_case "inspector" `Quick test_inspector_output;
    Alcotest.test_case "hal units" `Quick test_hal_units;
    Alcotest.test_case "hal rejects unresolved" `Quick test_hal_rejects_unresolved;
    Alcotest.test_case "vector table" `Quick test_vector_table_routes_events;
  ]

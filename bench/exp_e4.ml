(* E4 -- Fig 6.1 / §2: the code-generation pipeline. Generated code
   volume, memory estimates and execution cost per model and per MCU;
   MCU independence of the application code. *)

let run () =
  print_endline "==================================================================";
  print_endline "E4 (Fig 6.1): PEERT code generation -- volume, footprint, portability";
  print_endline "==================================================================";
  let t =
    Table.create ~title:"generated code per model (MC56F8367 target)"
      [ "model"; "blocks"; "app LoC"; "HAL LoC"; "state B"; "signals B";
        "flash est."; "RAM est."; "step [us]" ]
  in
  let add_model name built =
    let comp = Compile.compile built.Servo_system.controller in
    let a = Target.generate ~name ~project:built.Servo_system.project comp in
    let r = a.Target.report in
    Table.add_row t
      [
        name;
        string_of_int r.Target.n_blocks;
        string_of_int r.Target.app_loc;
        string_of_int r.Target.hal_loc;
        string_of_int r.Target.state_bytes;
        string_of_int r.Target.signal_bytes;
        Printf.sprintf "%d B" r.Target.est_flash_bytes;
        Printf.sprintf "%d B" r.Target.est_ram_bytes;
        Table.cell_f ~dec:1 (r.Target.step_time *. 1e6);
      ];
    a
  in
  let _ = add_model "servo (double PID)" (Servo_system.build ()) in
  let _ =
    add_model "servo (Q15 PID)"
      (Servo_system.build
         ~config:{ Servo_system.default_config with Servo_system.variant = Servo_system.Fixed_pid }
         ())
  in
  let _ =
    add_model "servo (no mode logic)"
      (Servo_system.build
         ~config:{ Servo_system.default_config with Servo_system.with_mode_logic = false }
         ())
  in
  let ar_built =
    Servo_system.build
      ~config:{ Servo_system.default_config with
                Servo_system.block_set = Servo_system.Autosar_blocks }
      ()
  in
  let ar = add_model "servo (AUTOSAR block set)" ar_built in
  Table.print t;
  (* the section-8 second block-set variant: same behaviour, MCAL API.
     The behaviour claim is the generated MCAL code's MIL <-> SIL
     lock-step over the closed loop *)
  let ar_c = C_print.print_unit ar.Target.model_c in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let steps = 2000 in
  let lockstep =
    Silvm_diff.run ~steps
      ~plant:
        (Silvm_diff.Plant
           (Servo_system.pil_plant ar_built, Servo_system.pil_driver ar_built))
      ~name:"servo" ~project:ar_built.Servo_system.project
      (Compile.compile ar_built.Servo_system.controller)
  in
  Printf.printf
    "AUTOSAR variant: MCAL API in generated code (Pwm_SetDutyCycle %b, \
     Icu_GetEdgeNumbers %b); MIL <-> SIL lock-step, %d steps: %s\n\n"
    (contains ar_c "Pwm_SetDutyCycle") (contains ar_c "Icu_GetEdgeNumbers") steps
    (match lockstep.Silvm_diff.divergence with
    | None -> "no divergence"
    | Some d ->
        Printf.sprintf "diverged at step %d on %s[%d]" d.Silvm_diff.d_step
          d.Silvm_diff.d_block d.Silvm_diff.d_port);

  (* MCU portability: identical application code, per-MCU HAL and timing *)
  let cfg =
    { Servo_system.default_config with
      Servo_system.control_period = 2e-3;
      with_mode_logic = false }
  in
  let t =
    Table.create ~title:"the same model retargeted (application code must not change)"
      [ "MCU"; "status"; "step [us]"; "step [% of period]"; "HAL LoC"; "app identical" ]
  in
  let reference = ref None in
  List.iter
    (fun mcu ->
      match Servo_system.build ~config:{ cfg with Servo_system.mcu } () with
      | exception Invalid_argument _ ->
          Table.add_row t
            [ mcu.Mcu_db.name; "REJECTED (no quadrature decoder)"; "-"; "-"; "-"; "-" ]
      | built ->
          let comp = Compile.compile built.Servo_system.controller in
          let a = Target.generate ~name:"servo" ~project:built.Servo_system.project comp in
          let app = C_print.print_unit a.Target.model_c in
          let identical =
            match !reference with
            | None ->
                reference := Some app;
                "(reference)"
            | Some r -> if r = app then "yes" else "NO"
          in
          Table.add_row t
            [
              mcu.Mcu_db.name;
              "OK";
              Table.cell_f ~dec:1 (a.Target.report.Target.step_time *. 1e6);
              Table.cell_pct (a.Target.report.Target.step_time /. 2e-3);
              string_of_int a.Target.report.Target.hal_loc;
              identical;
            ])
    [ Mcu_db.mc56f8367; Mcu_db.mcf5213; Mcu_db.mc9s12dp256 ];
  Table.print t;

  (* float-on-FPU-less cost: the same controller with double vs Q15
     arithmetic on each CPU -- why §7 insists on fixed point *)
  let t =
    Table.create ~title:"controller step cost: double vs Q15 arithmetic (cycle model)"
      [ "MCU"; "double PID step"; "Q15 PID step"; "ratio" ]
  in
  List.iter
    (fun mcu ->
      let g = Pid.gains ~kp:0.03 ~ki:2.5 () in
      let spec_f = Discrete_blocks.pid ~ts:1e-3 g in
      let spec_x =
        Discrete_blocks.fix_pid ~ts:1e-3 ~in_scale:512.0
          ~out_scale:24.0 g
      in
      let cf = Cost_model.cycles_of_block mcu spec_f Dtype.Double in
      let cx = Cost_model.cycles_of_block mcu spec_x Dtype.Int16 in
      Table.add_row t
        [
          mcu.Mcu_db.name;
          Printf.sprintf "%d cy (%.1f us)" cf (float_of_int cf /. mcu.Mcu_db.f_cpu_hz *. 1e6);
          Printf.sprintf "%d cy (%.1f us)" cx (float_of_int cx /. mcu.Mcu_db.f_cpu_hz *. 1e6);
          Table.cell_f ~dec:1 (float_of_int cf /. float_of_int cx);
        ])
    Mcu_db.all;
  Table.print t;
  print_newline ()

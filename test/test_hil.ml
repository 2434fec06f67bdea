(* HIL stage: the deployment execution model against the virtual
   peripherals, no communication redirection. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run_hil ?(periods = 600) ?preemptive ?background_load ?button cfg =
  let b = Servo_system.build ~config:cfg () in
  let comp = Compile.compile b.Servo_system.controller in
  let arts = Target.generate ~name:"servo" ~project:b.Servo_system.project comp in
  let controller = Sim.create comp in
  ( b,
    Hil_cosim.servo_run ?preemptive ?background_load ?button
      ~built_mcu:cfg.Servo_system.mcu ~schedule:arts.Target.schedule ~controller
      ~motor:cfg.Servo_system.motor ~load:cfg.Servo_system.load
      ~encoder:(Encoder.create ~lines_per_rev:cfg.Servo_system.encoder_lines ())
      ~periods () )

let speed_of trace =
  List.filter_map
    (fun (t, obs) -> Option.map (fun w -> (t, w)) (List.assoc_opt "speed" obs))
    trace

let test_hil_converges_at_1khz () =
  (* HIL has no RS-232 bottleneck: the paper's 1 kHz loop runs *)
  let _, r = run_hil Servo_system.default_config ~periods:1100 in
  match List.rev (speed_of r.Hil_cosim.trace) with
  | (_, w) :: _ -> Alcotest.(check (float 5.0)) "tracks 150" 150.0 w
  | [] -> Alcotest.fail "no trace"

let test_hil_profile () =
  let _, r = run_hil Servo_system.default_config ~periods:500 in
  let p = r.Hil_cosim.profile in
  check_int "no overruns" 0 p.Hil_cosim.target.Machine.overruns;
  check_bool "exec ~46 us" true
    (p.Hil_cosim.controller_exec > 20e-6
     && p.Hil_cosim.controller_exec < 100e-6);
  check_bool "release latency ~0 when idle" true
    (p.Hil_cosim.target.Machine.release.Stats.p95 < 1e-6);
  check_bool "utilization a few %" true
    (p.Hil_cosim.target.Machine.utilization > 0.01 && p.Hil_cosim.target.Machine.utilization < 0.2);
  check_bool "stack tracked" true (p.Hil_cosim.target.Machine.max_stack_bytes > 96)

let test_hil_background_load_jitter () =
  (* a competing ISR delays the non-preemptive control step *)
  let _, quiet = run_hil Servo_system.default_config ~periods:400 in
  let _, loaded =
    run_hil Servo_system.default_config ~periods:400 ~background_load:0.5
  in
  check_bool "loaded jitter larger" true
    (loaded.Hil_cosim.profile.Hil_cosim.target.Machine.release_jitter
     > quiet.Hil_cosim.profile.Hil_cosim.target.Machine.release_jitter +. 1e-6);
  (* but the loop still works *)
  match List.rev (speed_of loaded.Hil_cosim.trace) with
  | (_, w) :: _ -> check_bool "still regulates" true (Float.abs (w -. 50.0) < 10.0)
  | [] -> Alcotest.fail "no trace"

let test_hil_button_switches_mode () =
  let _, r =
    run_hil
      { Servo_system.default_config with
        Servo_system.setpoints = [ (0.0, 100.0) ];
        load = Load_profile.No_load }
      ~periods:1000
      ~button:(fun t -> t > 0.5)
  in
  let speed = speed_of r.Hil_cosim.trace in
  let final = match List.rev speed with (_, w) :: _ -> w | [] -> nan in
  let open_loop =
    Dc_motor.steady_state_speed Dc_motor.default ~u:(0.3 *. 24.0) ~tau_load:0.0
  in
  Alcotest.(check (float 10.0)) "manual mode after press" open_loop final

let test_hil_vs_mil_fidelity () =
  let b, r = run_hil Servo_system.default_config ~periods:1000 in
  let mil_speed, _ = Servo_system.mil_run b ~t_end:1.0 in
  let hil_speed = speed_of r.Hil_cosim.trace in
  let mil_at t =
    List.fold_left
      (fun best (ti, w) ->
        match best with
        | Some (tb, _) when Float.abs (ti -. t) >= Float.abs (tb -. t) -> best
        | _ -> Some (ti, w))
      None mil_speed
    |> Option.map snd
  in
  let dev =
    List.fold_left
      (fun acc (t, w) ->
        match mil_at t with Some wm -> Float.max acc (Float.abs (w -. wm)) | None -> acc)
      0.0
      (List.filter (fun (t, _) -> t > 0.05) hil_speed)
  in
  check_bool "HIL within 6 rad/s of MIL" true (dev < 6.0)

let test_hil_watchdog () =
  (* serviced every period: a 3-period timeout never bites *)
  let _, ok = run_hil Servo_system.default_config ~periods:300 in
  ignore ok;
  let b = Servo_system.build () in
  let comp = Compile.compile b.Servo_system.controller in
  let arts = Target.generate ~name:"servo" ~project:b.Servo_system.project comp in
  let run watchdog =
    let controller = Sim.create (Compile.compile b.Servo_system.controller) in
    ignore arts;
    Hil_cosim.servo_run ~watchdog
      ~built_mcu:Servo_system.default_config.Servo_system.mcu
      ~schedule:arts.Target.schedule ~controller
      ~motor:Servo_system.default_config.Servo_system.motor
      ~load:Servo_system.default_config.Servo_system.load
      ~encoder:(Encoder.create ()) ~periods:200 ()
  in
  let healthy = run 3e-3 in
  check_int "no bites when serviced" 0
    healthy.Hil_cosim.profile.Hil_cosim.watchdog_bites;
  (* a timeout shorter than the control period must bite repeatedly *)
  let starved = run 0.4e-3 in
  check_bool "short timeout bites" true
    (starved.Hil_cosim.profile.Hil_cosim.watchdog_bites > 100)

let suite =
  [
    Alcotest.test_case "watchdog" `Quick test_hil_watchdog;
    Alcotest.test_case "1 kHz loop runs (no comm bottleneck)" `Quick
      test_hil_converges_at_1khz;
    Alcotest.test_case "profile" `Quick test_hil_profile;
    Alcotest.test_case "background load jitter" `Quick test_hil_background_load_jitter;
    Alcotest.test_case "button mode switch" `Quick test_hil_button_switches_mode;
    Alcotest.test_case "HIL vs MIL fidelity" `Quick test_hil_vs_mil_fidelity;
  ]

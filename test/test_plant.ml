(* Physical models against their analytic oracles. *)

let check_float eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_motor p ~u ~tau ~t_end =
  let h = 1e-5 in
  let rec go s t = if t >= t_end then s else go (Dc_motor.step p ~u ~tau_load:tau ~h s) (t +. h) in
  go Dc_motor.initial 0.0

let test_motor_steady_state () =
  let p = Dc_motor.default in
  let s = run_motor p ~u:12.0 ~tau:0.0 ~t_end:0.5 in
  let w_ss = Dc_motor.steady_state_speed p ~u:12.0 ~tau_load:0.0 in
  check_float 0.5 "no-load speed" w_ss s.Dc_motor.w;
  (* steady-state current balances friction: Kt*i = b*w *)
  check_float 1e-3 "friction current"
    (p.Dc_motor.b *. s.Dc_motor.w /. p.Dc_motor.kt)
    s.Dc_motor.i

let test_motor_loaded_steady_state () =
  let p = Dc_motor.default in
  let tau = 5e-3 in
  let s = run_motor p ~u:12.0 ~tau ~t_end:0.5 in
  check_float 0.5 "loaded speed"
    (Dc_motor.steady_state_speed p ~u:12.0 ~tau_load:tau)
    s.Dc_motor.w

let test_motor_time_constants () =
  let p = Dc_motor.default in
  check_float 1e-9 "electrical tau" 5e-4 (Dc_motor.electrical_time_constant p);
  Alcotest.(check bool) "mech >> elec" true
    (Dc_motor.mechanical_time_constant p
     > 10.0 *. Dc_motor.electrical_time_constant p)

let test_motor_theta_integrates_speed () =
  let p = Dc_motor.default in
  let s = run_motor p ~u:12.0 ~tau:0.0 ~t_end:0.3 in
  (* after the transient, theta ~ w_ss * (t - t_startup); crude bound *)
  check_bool "theta positive and bounded" true
    (s.Dc_motor.theta > 0.0 && s.Dc_motor.theta < s.Dc_motor.w *. 0.3 +. 1.0)

let test_encoder_counts_per_rev () =
  let e = Encoder.create ~lines_per_rev:100 () in
  check_int "x4 counts" 400 (Encoder.counts_per_rev e);
  check_int "one rev" 400 (Encoder.count_of_angle e ~theta:(2.0 *. Float.pi));
  check_int "half rev" 200 (Encoder.count_of_angle e ~theta:Float.pi);
  check_int "negative" (-200) (Encoder.count_of_angle e ~theta:(-.Float.pi))

let test_encoder_quadrature_sequence () =
  let e = Encoder.create ~lines_per_rev:100 () in
  (* within one line the (A,B) sequence must be the gray code 11,01,00,10
     (A leads B) as the angle increases *)
  let line_angle = 2.0 *. Float.pi /. 100.0 in
  let states =
    List.map
      (fun k ->
        let theta = (0.125 +. (0.25 *. float_of_int k)) *. line_angle in
        let a, b, _ = Encoder.signals e ~theta in
        (a, b))
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list (pair bool bool)))
    "quadrature sequence"
    [ (true, false); (true, true); (false, true); (false, false) ]
    states

let test_encoder_index_pulse () =
  let e = Encoder.create ~lines_per_rev:100 () in
  let _, _, idx0 = Encoder.signals e ~theta:1e-4 in
  let _, _, idx_half = Encoder.signals e ~theta:Float.pi in
  check_bool "index at zero" true idx0;
  check_bool "no index elsewhere" false idx_half

let test_encoder_speed_estimate () =
  let e = Encoder.create ~lines_per_rev:100 () in
  let w = 100.0 and dt = 1e-3 in
  let c0 = Encoder.count_of_angle e ~theta:0.0 in
  let c1 = Encoder.count_of_angle e ~theta:(w *. dt) in
  let est = Encoder.speed_of_counts e ~dt c0 c1 in
  (* quantisation bounds the estimate error to one count per period *)
  check_bool "speed within one count" true
    (Float.abs (est -. w) <= 2.0 *. Float.pi /. 400.0 /. dt +. 1e-9)

let test_power_stage_ideal () =
  let s = Power_stage.ideal ~u_supply:24.0 in
  check_float 1e-12 "50% duty" 12.0 (Power_stage.output_voltage s ~duty:0.5 ~i:0.0);
  check_float 1e-12 "clamped high" 24.0 (Power_stage.output_voltage s ~duty:1.5 ~i:0.0);
  check_float 1e-12 "clamped low" 0.0 (Power_stage.output_voltage s ~duty:(-0.2) ~i:0.0);
  check_float 1e-12 "inverse" 0.5 (Power_stage.duty_of_voltage s 12.0)

let test_power_stage_bipolar () =
  let s = Power_stage.bipolar ~u_supply:24.0 in
  check_float 1e-12 "mid duty is 0V" 0.0 (Power_stage.output_voltage s ~duty:0.5 ~i:0.0);
  check_float 1e-12 "full reverse" (-24.0) (Power_stage.output_voltage s ~duty:0.0 ~i:0.0);
  check_float 1e-12 "inverse of -12" 0.25 (Power_stage.duty_of_voltage s (-12.0))

let test_power_stage_nonideal () =
  let s = { (Power_stage.ideal ~u_supply:24.0) with Power_stage.r_on = 0.5 } in
  check_float 1e-12 "resistive drop" (12.0 -. (0.5 *. 2.0))
    (Power_stage.output_voltage s ~duty:0.5 ~i:2.0)

let test_thermal_steady_state () =
  let p = Thermal.default in
  let t_inf = Thermal.steady_state p ~p_in:50.0 in
  check_float 1e-9 "analytic" (25.0 +. (50.0 *. 2.0)) t_inf;
  (* exact exponential step: after 5 tau we are within 1 % *)
  let tau = Thermal.time_constant p in
  let t = Thermal.step p ~p_in:50.0 ~h:(5.0 *. tau) p.Thermal.t_amb in
  check_bool "converged after 5 tau" true (Float.abs (t -. t_inf) < 0.01 *. (t_inf -. 25.0))

let test_thermal_power_clamp () =
  let p = Thermal.default in
  check_float 1e-9 "clamped at p_max"
    (Thermal.steady_state p ~p_in:p.Thermal.p_max)
    (Thermal.steady_state p ~p_in:(10.0 *. p.Thermal.p_max))

let test_load_profiles () =
  let open Load_profile in
  Alcotest.(check (float 0.0)) "no load" 0.0 (torque No_load ~time:1.0 ~w:10.0);
  Alcotest.(check (float 0.0)) "constant" 0.5 (torque (Constant 0.5) ~time:0.0 ~w:0.0);
  Alcotest.(check (float 1e-12)) "viscous" 0.02 (torque (Viscous 2e-3) ~time:0.0 ~w:10.0);
  Alcotest.(check (float 0.0)) "step before" 0.0
    (torque (Step { at = 1.0; torque = 0.3 }) ~time:0.5 ~w:0.0);
  Alcotest.(check (float 0.0)) "step after" 0.3
    (torque (Step { at = 1.0; torque = 0.3 }) ~time:1.5 ~w:0.0);
  Alcotest.(check (float 0.0)) "pulse inside" 0.2
    (torque (Pulse { start = 1.0; stop = 2.0; torque = 0.2 }) ~time:1.5 ~w:0.0);
  Alcotest.(check (float 1e-12)) "sum" 0.52
    (torque (Sum [ Constant 0.5; Viscous 2e-3 ]) ~time:0.0 ~w:10.0)

let prop_encoder_count_monotone =
  QCheck2.Test.make ~name:"encoder count monotone in angle" ~count:200
    QCheck2.Gen.(pair (float_range (-50.0) 50.0) (float_range 0.0 1.0))
    (fun (theta, dtheta) ->
      let e = Encoder.create () in
      Encoder.count_of_angle e ~theta:(theta +. dtheta)
      >= Encoder.count_of_angle e ~theta)

let prop_encoder_angle_roundtrip =
  QCheck2.Test.make ~name:"angle_of_count inverts count within resolution"
    ~count:200
    QCheck2.Gen.(float_range (-20.0) 20.0)
    (fun theta ->
      let e = Encoder.create () in
      let c = Encoder.count_of_angle e ~theta in
      let back = Encoder.angle_of_count e c in
      theta -. back >= -.1e-9 && theta -. back < (2.0 *. Float.pi /. 400.0) +. 1e-9)

(* the general fold [Load_profile.torque] had before its inline
   fast path for a single profile: the specification it must keep *)
let rec reference_torque t ~time ~w =
  match t with
  | Load_profile.No_load -> 0.0
  | Constant tau -> tau
  | Viscous k -> k *. w
  | Step { at; torque = tau } -> if time >= at then tau else 0.0
  | Pulse { start; stop; torque = tau } ->
      if time >= start && time < stop then tau else 0.0
  | Periodic { at; every; duration; torque = tau } ->
      if time >= at && Float.rem (time -. at) every < duration then tau
      else 0.0
  | Sum l ->
      List.fold_left (fun acc p -> acc +. reference_torque p ~time ~w) 0.0 l

let gen_profile =
  let open QCheck2.Gen in
  let f = float_range (-2.0) 2.0 and pos = float_range 0.0 2.0 in
  let leaf =
    oneof
      [
        return Load_profile.No_load;
        map (fun t -> Load_profile.Constant t) f;
        map (fun k -> Load_profile.Viscous k) f;
        map2 (fun at torque -> Load_profile.Step { at; torque }) pos f;
        map3
          (fun start d torque ->
            Load_profile.Pulse { start; stop = start +. d; torque })
          pos pos f;
        map3
          (fun (at, every) duration torque ->
            Load_profile.Periodic { at; every; duration; torque })
          (pair pos (oneof [ float_range 1e-3 0.5; return 0.0 ])) pos f;
      ]
  in
  sized_size (int_bound 3)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 1,
                 map (fun l -> Load_profile.Sum l)
                   (list_size (int_bound 4) (self (n - 1))) );
             ])

let prop_torque_fast_path =
  QCheck2.Test.make
    ~name:"load torque: the inline path gives the general fold's bits"
    ~count:1000
    QCheck2.Gen.(
      triple gen_profile (float_range (-1.0) 5.0) (float_range (-500.0) 500.0))
    (fun (p, time, w) ->
      Int64.equal
        (Int64.bits_of_float (Load_profile.torque p ~time ~w))
        (Int64.bits_of_float (reference_torque p ~time ~w)))

let suite =
  [
    Alcotest.test_case "motor steady state" `Quick test_motor_steady_state;
    Alcotest.test_case "motor loaded" `Quick test_motor_loaded_steady_state;
    Alcotest.test_case "motor time constants" `Quick test_motor_time_constants;
    Alcotest.test_case "motor theta" `Quick test_motor_theta_integrates_speed;
    Alcotest.test_case "encoder counts/rev" `Quick test_encoder_counts_per_rev;
    Alcotest.test_case "encoder quadrature" `Quick test_encoder_quadrature_sequence;
    Alcotest.test_case "encoder index" `Quick test_encoder_index_pulse;
    Alcotest.test_case "encoder speed" `Quick test_encoder_speed_estimate;
    Alcotest.test_case "power stage ideal" `Quick test_power_stage_ideal;
    Alcotest.test_case "power stage bipolar" `Quick test_power_stage_bipolar;
    Alcotest.test_case "power stage non-ideal" `Quick test_power_stage_nonideal;
    Alcotest.test_case "thermal steady state" `Quick test_thermal_steady_state;
    Alcotest.test_case "thermal clamp" `Quick test_thermal_power_clamp;
    Alcotest.test_case "load profiles" `Quick test_load_profiles;
    QCheck_alcotest.to_alcotest prop_encoder_count_monotone;
    QCheck_alcotest.to_alcotest prop_encoder_angle_roundtrip;
    QCheck_alcotest.to_alcotest prop_torque_fast_path;
  ]

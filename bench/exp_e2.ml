(* E2 -- Fig 7.2: the controller's fixed-point realisation. The default
   Simulink double is inappropriate for the 16-bit FPU-less MC56F8367; the
   Q15 controller must track the double one closely, the residual being
   quantisation. *)

let run () =
  print_endline "==================================================================";
  print_endline "E2 (Fig 7.2): double vs Q15 fixed-point controller";
  print_endline "==================================================================";
  let run variant =
    let cfg = { Servo_system.default_config with Servo_system.variant } in
    let b = Servo_system.build ~config:cfg () in
    (b, Servo_system.mil_run b ~t_end:1.0)
  in
  let b_float, (sp_float, _) = run Servo_system.Float_pid in
  let _b_fixed, (sp_fixed, _) = run Servo_system.Fixed_pid in
  let t =
    Table.create ~title:"controller arithmetic comparison (0..1.0 s, MIL)"
      [ "variant"; "rise [ms]"; "overshoot"; "sse [rad/s]"; "IAE" ]
  in
  let metrics name traj =
    let seg = List.filter (fun (t, _) -> t < 0.4) traj in
    let si = Metrics.step_info ~sp:50.0 seg in
    Table.add_row t
      [
        name;
        Table.cell_f ~dec:1 (si.Metrics.rise_time *. 1e3);
        Table.cell_pct si.Metrics.overshoot;
        Table.cell_f ~dec:3 si.Metrics.steady_state_error;
        Table.cell_f ~dec:3 (Metrics.iae ~sp:(fun _ -> 50.0) seg);
      ]
  in
  metrics "double (ideal)" sp_float;
  metrics "Q15 fixed point" sp_fixed;
  Table.print t;
  let dev = Metrics.max_deviation sp_float sp_fixed in
  Printf.printf "max trajectory deviation double vs Q15: %.3f rad/s\n" dev;

  (* the quantised gains the generator bakes into flash *)
  let fx =
    Pid.Fixpoint.create ~ts:1e-3 ~in_scale:512.0
      ~out_scale:Dc_motor.default.Dc_motor.u_max b_float.Servo_system.gains
  in
  let kp_q, ki_q, _ = Pid.Fixpoint.quantized_gains fx in
  let g = b_float.Servo_system.gains in
  Printf.printf "gain quantisation: kp %.6f -> %.6f (%.3g %%), ki %.4f -> %.4f (%.3g %%)\n"
    g.Pid.kp kp_q
    (100.0 *. Float.abs (kp_q -. g.Pid.kp) /. g.Pid.kp)
    g.Pid.ki ki_q
    (100.0 *. Float.abs (ki_q -. g.Pid.ki) /. g.Pid.ki);

  (* single-signal view: measurement quantisation by the 400-count encoder
     at 1 kHz dominates; one count per period = 15.7 rad/s of apparent
     speed -- visible as ripple on both variants *)
  let ripple traj =
    let tail = List.filter (fun (t, _) -> t > 0.3 && t < 0.4) traj in
    Stats.jitter (List.map snd tail)
  in
  Printf.printf
    "steady-state speed ripple: double %.3f rad/s, Q15 %.3f rad/s (1 count/T = %.1f rad/s)\n\n"
    (ripple sp_float) (ripple sp_fixed)
    (2.0 *. Float.pi /. 400.0 /. 1e-3)

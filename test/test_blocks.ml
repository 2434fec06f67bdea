(* Behaviour of the standard block library, one small harness per block. *)

let check_float eps = Alcotest.(check (float eps))
let check_bool = Alcotest.(check bool)

(* Run a single block fed by constant sources for n steps at dt, return
   the numeric value of output 0 after the last step. *)
let run_block ?(n = 1) ?(dt = 0.1) spec inputs =
  let m = Model.create "harness" in
  let blk = Model.add m ~name:"dut" spec in
  List.iteri
    (fun i v ->
      let src = Model.add m (Sources.constant v) in
      Model.connect m ~src:(src, 0) ~dst:(blk, i))
    inputs;
  (* keep unconnected outputs legal: nothing requires them to be wired *)
  let sim = Sim.create (Compile.compile ~default_dt:dt m) in
  for _ = 1 to n do
    Sim.step sim
  done;
  Sim.value_named sim "dut" 0

(* Run a block against a time-indexed input function, returning the
   output sequence. *)
let run_sequence ?(dt = 0.1) spec input_fn n =
  let m = Model.create "harness" in
  let feeder =
    Block.stateless ~kind:"Feeder" ~n_in:0 ~n_out:1
      ~out_types:[| Block.Fixed_type Dtype.Double |]
      (fun _ctx _ -> [| Value.F 0.0 |])
  in
  let feeder =
    {
      feeder with
      Block.make =
        (fun _ctx ->
          let k = ref 0 in
          {
            Block.no_beh_state with
            out =
              (fun ~minor ~time:_ _ ->
                let v = input_fn !k in
                if not minor then incr k;
                [| Value.F v |]);
            reset = (fun () -> k := 0);
          });
      sample = Sample_time.discrete dt;
    }
  in
  let src = Model.add m ~name:"src" feeder in
  let blk = Model.add m ~name:"dut" spec in
  Model.connect m ~src:(src, 0) ~dst:(blk, 0);
  let sim = Sim.create (Compile.compile ~default_dt:dt m) in
  List.init n (fun _ ->
      Sim.step sim;
      Value.to_float (Sim.value_named sim "dut" 0))

let test_sources () =
  check_float 1e-12 "constant" 4.2 (Value.to_float (run_block (Sources.constant 4.2) []));
  check_float 1e-12 "step before" 0.0
    (Value.to_float (run_block (Sources.step ~t_step:1.0 ~after:2.0 ()) []));
  check_float 1e-12 "ramp" 0.0
    (Value.to_float (run_block (Sources.ramp ~slope:3.0 ()) []));
  check_float 1e-12 "sine at 0 with bias" 1.0
    (Value.to_float (run_block (Sources.sine ~bias:1.0 ()) []))

let test_setpoint_schedule () =
  let spec = Sources.setpoint_schedule [ (0.0, 1.0); (0.5, 2.0) ] in
  check_float 1e-12 "first segment" 1.0 (Value.to_float (run_block ~n:2 spec []));
  check_float 1e-12 "second segment" 2.0 (Value.to_float (run_block ~n:7 spec []))

(* minor words of 1000 calls of a block's [out] on [inputs], at boxed
   times that cross every entry of the schedule below *)
let out_words ?(inputs = [||]) spec =
  let ctx =
    {
      Block.base_dt = 1e-3;
      block_dt = 1e-3;
      fire = ignore;
      in_dtypes = Array.map Value.dtype inputs;
      out_dtypes = [| Dtype.Double |];
    }
  in
  let beh = spec.Block.make ctx in
  let times = List.init 1000 (fun k -> float_of_int k *. 1e-3) in
  let w0 = Gc.minor_words () in
  List.iter (fun time -> ignore (beh.Block.out ~minor:false ~time inputs)) times;
  Gc.minor_words () -. w0

(* the schedule runs in every step of every campaign *)
let test_setpoint_schedule_allocation () =
  let sched =
    out_words
      (Sources.setpoint_schedule [ (0.0, 50.0); (0.3, 120.0); (0.6, 80.0) ])
  and step = out_words (Sources.step ~t_step:0.5 ~after:1.0 ()) in
  if sched > step then
    Alcotest.failf "1000 schedule outputs allocate %.0f minor words, Step %.0f"
      sched step

(* the Q15 step computes on plain ints: no more garbage than the double
   PID's, derivative filter and anti-windup included *)
let test_fix_pid_allocation () =
  let g = Pid.gains ~kp:0.03 ~ki:2.5 ~kd:0.05 ~n:1000.0 ~u_min:0.0 ~u_max:24.0 () in
  let inputs = [| Value.F 400.0; Value.F 10.0 |] in
  let fix =
    out_words ~inputs
      (Discrete_blocks.fix_pid ~ts:1e-3 ~in_scale:512.0 ~out_scale:24.0 g)
  and dbl = out_words ~inputs (Discrete_blocks.pid ~ts:1e-3 g) in
  if fix > dbl then
    Alcotest.failf "1000 FixPid steps allocate %.0f minor words, Pid %.0f" fix
      dbl

let test_pulse () =
  let outs = run_sequence (Discrete_blocks.zoh ~period:0.1 ()) (fun _ -> 0.0) 1 in
  ignore outs;
  let spec = Sources.pulse ~period:1.0 ~duty:0.3 ~amp:5.0 () in
  check_float 1e-12 "pulse high at t=0.2" 5.0 (Value.to_float (run_block ~n:3 spec []));
  check_float 1e-12 "pulse low at t=0.5" 0.0 (Value.to_float (run_block ~n:6 spec []))

let test_math_blocks () =
  check_float 1e-12 "sum +-" 1.5
    (Value.to_float (run_block (Math_blocks.sum "+-") [ 2.0; 0.5 ]));
  check_float 1e-12 "product" 6.0
    (Value.to_float (run_block (Math_blocks.product 3) [ 1.0; 2.0; 3.0 ]));
  check_float 1e-12 "divide" 2.5 (Value.to_float (run_block Math_blocks.divide [ 5.0; 2.0 ]));
  check_float 1e-12 "abs" 3.0 (Value.to_float (run_block Math_blocks.abs_block [ -3.0 ]));
  check_float 1e-12 "neg" (-3.0) (Value.to_float (run_block Math_blocks.neg [ 3.0 ]));
  check_float 1e-12 "min" 1.0 (Value.to_float (run_block Math_blocks.min_block [ 1.0; 2.0 ]));
  check_float 1e-12 "max" 2.0 (Value.to_float (run_block Math_blocks.max_block [ 1.0; 2.0 ]));
  check_float 1e-12 "sqrt" 3.0
    (Value.to_float (run_block (Math_blocks.math_fn `Sqrt) [ 9.0 ]))

let test_compare_logic () =
  check_bool "lt" true (Value.to_bool (run_block (Math_blocks.compare `Lt) [ 1.0; 2.0 ]));
  check_bool "ge" false (Value.to_bool (run_block (Math_blocks.compare `Ge) [ 1.0; 2.0 ]));
  check_bool "and" false
    (Value.to_bool (run_block (Math_blocks.logic `And) [ 1.0; 0.0 ]));
  check_bool "or" true (Value.to_bool (run_block (Math_blocks.logic `Or) [ 1.0; 0.0 ]));
  check_bool "not" true (Value.to_bool (run_block (Math_blocks.logic `Not) [ 0.0 ]));
  check_bool "xor" true (Value.to_bool (run_block (Math_blocks.logic `Xor) [ 1.0; 0.0 ]))

let test_cast_saturates () =
  let v = run_block (Math_blocks.cast Dtype.Int8) [ 300.0 ] in
  Alcotest.(check int) "int8 saturation" 127 (Value.to_int v)

let test_unit_delay () =
  let outs = run_sequence (Discrete_blocks.unit_delay ~init:9.0 ()) float_of_int 3 in
  Alcotest.(check (list (float 1e-12))) "delayed" [ 9.0; 0.0; 1.0 ] outs

let test_delay_n () =
  let outs = run_sequence (Discrete_blocks.delay_n 2) float_of_int 4 in
  Alcotest.(check (list (float 1e-12))) "two samples" [ 0.0; 0.0; 0.0; 1.0 ] outs

let test_discrete_integrator () =
  let outs =
    run_sequence (Discrete_blocks.discrete_integrator ~k:2.0 ()) (fun _ -> 1.0) 3
  in
  (* forward Euler: y lags by one sample; dt = 0.1, k = 2: 0, 0.2, 0.4 *)
  Alcotest.(check (list (float 1e-9))) "euler" [ 0.0; 0.2; 0.4 ] outs

let test_discrete_integrator_clamp () =
  let outs =
    run_sequence
      (Discrete_blocks.discrete_integrator ~hi:0.25 ())
      (fun _ -> 1.0)
      6
  in
  check_float 1e-12 "clamped" 0.25 (List.nth outs 5)

let test_discrete_derivative () =
  let outs = run_sequence (Discrete_blocks.discrete_derivative ()) float_of_int 3 in
  (* du = 1 per 0.1 s -> 10 *)
  Alcotest.(check (list (float 1e-9))) "derivative" [ 0.0; 10.0; 10.0 ] outs

let test_rate_limiter () =
  let outs =
    run_sequence
      (Discrete_blocks.rate_limiter ~rising:1.0 ~falling:1.0)
      (fun k -> if k = 0 then 0.0 else 10.0)
      4
  in
  (* slew 0.1 per step after the initial sample *)
  Alcotest.(check (list (float 1e-9))) "slew" [ 0.0; 0.1; 0.2; 0.3 ] outs

let test_moving_average () =
  let outs = run_sequence (Discrete_blocks.moving_average 2) float_of_int 4 in
  Alcotest.(check (list (float 1e-9))) "window" [ 0.0; 0.5; 1.5; 2.5 ] outs

let test_encoder_speed_block () =
  let outs =
    run_sequence ~dt:0.001
      (Discrete_blocks.encoder_speed ~counts_per_rev:400)
      (fun k -> float_of_int (k * 4))
      3
  in
  (* 4 counts per ms = 4/400 rev/ms = 62.8 rad/s *)
  check_float 1e-6 "speed" (4.0 /. 400.0 *. 2.0 *. Float.pi /. 0.001) (List.nth outs 2)

let test_encoder_speed_wraps () =
  (* position register wrap at 65536 must not glitch the estimate *)
  let outs =
    run_sequence ~dt:0.001
      (Discrete_blocks.encoder_speed ~counts_per_rev:400)
      (fun k -> float_of_int ((65530 + (4 * k)) land 0xFFFF))
      4
  in
  check_float 1e-6 "wrap transparent"
    (4.0 /. 400.0 *. 2.0 *. Float.pi /. 0.001)
    (List.nth outs 3)

let test_nonlinear_blocks () =
  check_float 1e-12 "saturation hi" 1.0
    (Value.to_float (run_block (Nonlinear_blocks.saturation ~lo:(-1.0) ~hi:1.0) [ 5.0 ]));
  check_float 1e-12 "quantizer" 0.4
    (Value.to_float (run_block (Nonlinear_blocks.quantizer ~interval:0.2) [ 0.45 ]));
  check_float 1e-12 "dead zone inside" 0.0
    (Value.to_float (run_block (Nonlinear_blocks.dead_zone ~lo:(-0.5) ~hi:0.5) [ 0.3 ]));
  check_float 1e-12 "dead zone outside" 0.5
    (Value.to_float (run_block (Nonlinear_blocks.dead_zone ~lo:(-0.5) ~hi:0.5) [ 1.0 ]));
  check_float 1e-12 "sign" (-1.0)
    (Value.to_float (run_block Nonlinear_blocks.sign_block [ -0.1 ]));
  check_float 1e-12 "switch true branch" 1.0
    (Value.to_float (run_block (Nonlinear_blocks.switch ~threshold:0.5) [ 1.0; 0.7; 2.0 ]));
  check_float 1e-12 "switch false branch" 2.0
    (Value.to_float (run_block (Nonlinear_blocks.switch ~threshold:0.5) [ 1.0; 0.2; 2.0 ]));
  check_float 1e-12 "coulomb" 1.5
    (Value.to_float (run_block (Nonlinear_blocks.coulomb_friction ~level:0.5) [ 1.0 ]))

let test_relay_hysteresis () =
  let spec =
    Nonlinear_blocks.relay ~on_point:1.0 ~off_point:(-1.0) ~on_value:5.0
      ~off_value:0.0 ()
  in
  let outs =
    run_sequence spec (fun k -> [| 0.0; 2.0; 0.0; -2.0; 0.0 |].(k)) 5
  in
  Alcotest.(check (list (float 1e-12)))
    "hysteresis memory" [ 0.0; 5.0; 5.0; 0.0; 0.0 ] outs

let test_backlash () =
  let spec = Nonlinear_blocks.backlash ~width:1.0 in
  let outs = run_sequence spec (fun k -> [| 0.0; 1.0; 0.8; 0.0 |].(k)) 4 in
  Alcotest.(check (list (float 1e-12))) "play" [ 0.0; 0.5; 0.5; 0.5 ] outs

let test_discrete_tf_block () =
  let outs =
    run_sequence
      (Discrete_blocks.discrete_tf ~num:[| 0.2 |] ~den:[| 1.0; -0.8 |])
      (fun _ -> 1.0)
      3
  in
  Alcotest.(check (list (float 1e-9))) "matches Ztransfer" [ 0.2; 0.36; 0.488 ] outs

let test_noise_bounds () =
  let outs = run_sequence (Discrete_blocks.zoh ~period:0.1 ()) (fun _ -> 0.0) 1 in
  ignore outs;
  let m = Model.create "noise" in
  let n = Model.add m ~name:"n" (Sources.uniform_noise ~seed:3 ~lo:(-2.0) ~hi:2.0 ()) in
  let z = Model.add m (Discrete_blocks.zoh ~period:0.01 ()) in
  Model.connect m ~src:(n, 0) ~dst:(z, 0);
  let sim = Sim.create (Compile.compile m) in
  Sim.probe_named sim "n" 0;
  Sim.run sim ~until:2.0 ();
  let samples = List.map snd (Sim.trace_named sim "n" 0) in
  check_bool "bounded" true (List.for_all (fun x -> x >= -2.0 && x < 2.0) samples);
  let mean = List.fold_left ( +. ) 0.0 samples /. float_of_int (List.length samples) in
  check_bool "roughly centred" true (Float.abs mean < 0.2)

let test_merge2 () =
  (* input 0 constant, input 1 changing: merge follows input 1 *)
  let m = Model.create "merge" in
  let c = Model.add m (Sources.constant 5.0) in
  let r = Model.add m ~name:"r" (Sources.ramp ~slope:1.0 ()) in
  let mg = Model.add m ~name:"mg" Routing_blocks.merge2 in
  let z = Model.add m (Discrete_blocks.zoh ~period:0.1 ()) in
  Model.connect m ~src:(c, 0) ~dst:(mg, 0);
  Model.connect m ~src:(r, 0) ~dst:(mg, 1);
  Model.connect m ~src:(mg, 0) ~dst:(z, 0);
  let sim = Sim.create (Compile.compile m) in
  Sim.run sim ~until:0.55 ();
  check_float 1e-9 "follows the changing input" 0.5
    (Value.to_float (Sim.value_named sim "mg" 0))

let test_thermal_block () =
  let m = Model.create "th" in
  let p = Model.add m (Sources.constant 100.0) in
  let th = Model.add m ~name:"th" (Plant_blocks.thermal_plant ()) in
  let z = Model.add m (Discrete_blocks.zoh ~period:1.0 ()) in
  Model.connect m ~src:(p, 0) ~dst:(th, 0);
  Model.connect m ~src:(th, 0) ~dst:(z, 0);
  let sim = Sim.create (Compile.compile m) in
  Sim.run sim ~until:(10.0 *. Thermal.time_constant Thermal.default) ();
  check_float 0.5 "thermal block converges"
    (Thermal.steady_state Thermal.default ~p_in:100.0)
    (Value.to_float (Sim.value_named sim "th" 0))

let suite =
  [
    Alcotest.test_case "sources" `Quick test_sources;
    Alcotest.test_case "setpoint schedule" `Quick test_setpoint_schedule;
    Alcotest.test_case "setpoint schedule allocates no more than Step" `Quick
      test_setpoint_schedule_allocation;
    Alcotest.test_case "fix_pid allocates no more than the double Pid" `Quick
      test_fix_pid_allocation;
    Alcotest.test_case "pulse" `Quick test_pulse;
    Alcotest.test_case "math blocks" `Quick test_math_blocks;
    Alcotest.test_case "compare/logic" `Quick test_compare_logic;
    Alcotest.test_case "cast saturates" `Quick test_cast_saturates;
    Alcotest.test_case "unit delay" `Quick test_unit_delay;
    Alcotest.test_case "delay n" `Quick test_delay_n;
    Alcotest.test_case "discrete integrator" `Quick test_discrete_integrator;
    Alcotest.test_case "integrator clamp" `Quick test_discrete_integrator_clamp;
    Alcotest.test_case "discrete derivative" `Quick test_discrete_derivative;
    Alcotest.test_case "rate limiter" `Quick test_rate_limiter;
    Alcotest.test_case "moving average" `Quick test_moving_average;
    Alcotest.test_case "encoder speed" `Quick test_encoder_speed_block;
    Alcotest.test_case "encoder speed wrap" `Quick test_encoder_speed_wraps;
    Alcotest.test_case "nonlinear blocks" `Quick test_nonlinear_blocks;
    Alcotest.test_case "relay hysteresis" `Quick test_relay_hysteresis;
    Alcotest.test_case "backlash" `Quick test_backlash;
    Alcotest.test_case "discrete tf block" `Quick test_discrete_tf_block;
    Alcotest.test_case "noise bounds" `Quick test_noise_bounds;
    Alcotest.test_case "merge2" `Quick test_merge2;
    Alcotest.test_case "thermal block" `Quick test_thermal_block;
  ]

(* Tests of the block-diagram core: compilation analyses and the MIL
   engine, including a full closed loop against an analytic oracle. *)

let check_float = Alcotest.(check (float 1e-6))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let build_gain_chain () =
  let m = Model.create "chain" in
  let src = Model.add m ~name:"src" (Sources.step ~after:2.0 ()) in
  let g1 = Model.add m ~name:"g1" (Math_blocks.gain 3.0) in
  let g2 = Model.add m ~name:"g2" (Math_blocks.gain (-0.5)) in
  Model.connect m ~src:(src, 0) ~dst:(g1, 0);
  Model.connect m ~src:(g1, 0) ~dst:(g2, 0);
  m

let test_chain_output () =
  let m = build_gain_chain () in
  let comp = Compile.compile ~default_dt:0.1 m in
  let sim = Sim.create comp in
  Sim.step sim;
  check_float "g2 = 2*3*-0.5" (-3.0) (Value.to_float (Sim.value_named sim "g2" 0))

let test_unconnected_input_rejected () =
  let m = Model.create "bad" in
  let _ = Model.add m (Math_blocks.gain 1.0) in
  (match Compile.compile m with
  | exception Compile.Compile_error msg ->
      check_bool "mentions unconnected" true
        (Astring_contains.contains msg "unconnected")
  | _ -> Alcotest.fail "expected Compile_error")

let test_algebraic_loop_detected () =
  let m = Model.create "loop" in
  let g1 = Model.add m ~name:"a" (Math_blocks.gain 1.0) in
  let g2 = Model.add m ~name:"b" (Math_blocks.gain 1.0) in
  Model.connect m ~src:(g1, 0) ~dst:(g2, 0);
  Model.connect m ~src:(g2, 0) ~dst:(g1, 0);
  (match Compile.compile m with
  | exception Compile.Compile_error msg ->
      check_bool "mentions loop" true (Astring_contains.contains msg "algebraic loop")
  | _ -> Alcotest.fail "expected algebraic loop error")

let test_loop_broken_by_delay () =
  let m = Model.create "okloop" in
  let g = Model.add m ~name:"g" (Math_blocks.gain 0.5) in
  let d = Model.add m ~name:"d" (Discrete_blocks.unit_delay ~init:1.0 ~period:0.1 ()) in
  Model.connect m ~src:(g, 0) ~dst:(d, 0);
  Model.connect m ~src:(d, 0) ~dst:(g, 0);
  let comp = Compile.compile m in
  let sim = Sim.create comp in
  (* x(k+1) = 0.5 x(k), starting at 1: geometric decay. *)
  Sim.step sim;
  check_float "after 1 step" 0.5 (Value.to_float (Sim.value_named sim "g" 0));
  Sim.step sim;
  check_float "after 2 steps" 0.25 (Value.to_float (Sim.value_named sim "g" 0))

let test_double_wire_rejected () =
  let m = Model.create "dw" in
  let s = Model.add m (Sources.constant 1.0) in
  let g = Model.add m (Math_blocks.gain 1.0) in
  Model.connect m ~src:(s, 0) ~dst:(g, 0);
  (match Model.connect m ~src:(s, 0) ~dst:(g, 0) with
  | exception Model.Model_error _ -> ()
  | _ -> Alcotest.fail "expected Model_error on double wiring")

let test_type_propagation () =
  let m = Model.create "types" in
  let src = Model.add m ~name:"c" (Sources.constant ~dtype:Dtype.Int16 100.0) in
  let g = Model.add m ~name:"g" (Math_blocks.gain 2.0) in
  let cast = Model.add m ~name:"cast" (Math_blocks.cast Dtype.Uint8) in
  Model.connect m ~src:(src, 0) ~dst:(g, 0);
  Model.connect m ~src:(g, 0) ~dst:(cast, 0);
  let comp = Compile.compile ~default_dt:0.1 m in
  check_bool "gain type follows input" true
    (Dtype.equal (Compile.out_type comp (g, 0)) Dtype.Int16);
  check_bool "cast type fixed" true
    (Dtype.equal (Compile.out_type comp (cast, 0)) Dtype.Uint8);
  let sim = Sim.create comp in
  Sim.step sim;
  (* 100 * 2 = 200 fits uint8; and int16 saturation applies upstream *)
  check_int "cast value" 200 (Value.to_int (Sim.value_named sim "cast" 0))

let test_integer_saturation_in_diagram () =
  let m = Model.create "sat" in
  let src = Model.add m ~name:"c" (Sources.constant ~dtype:Dtype.Int8 100.0) in
  let g = Model.add m ~name:"g" (Math_blocks.gain 2.0) in
  Model.connect m ~src:(src, 0) ~dst:(g, 0);
  let sim = Sim.create (Compile.compile ~default_dt:0.1 m) in
  Sim.step sim;
  check_int "int8 saturates at 127" 127 (Value.to_int (Sim.value_named sim "g" 0))

let test_sample_time_resolution () =
  let m = Model.create "rates" in
  let src = Model.add m ~name:"s" (Sources.step ~after:1.0 ()) in
  let z = Model.add m ~name:"z" (Discrete_blocks.zoh ~period:0.01 ()) in
  let g = Model.add m ~name:"g" (Math_blocks.gain 1.0) in
  Model.connect m ~src:(src, 0) ~dst:(z, 0);
  Model.connect m ~src:(z, 0) ~dst:(g, 0);
  let comp = Compile.compile m in
  check_float "base dt from zoh" 0.01 comp.Compile.base_dt;
  (match Compile.resolved_of comp g with
  | Sample_time.R_discrete { period; _ } -> check_float "gain inherits" 0.01 period
  | _ -> Alcotest.fail "gain should inherit the discrete rate")

let test_sample_offset () =
  (* a ZOH offset by half its period samples mid-period values of a ramp *)
  let m = Model.create "offset" in
  let r = Model.add m (Sources.ramp ~slope:1.0 ()) in
  let z0 = Model.add m ~name:"z0" (Discrete_blocks.zoh ~period:0.1 ()) in
  let z5 = Model.add m ~name:"z5" (Discrete_blocks.zoh ~offset:0.05 ~period:0.1 ()) in
  Model.connect m ~src:(r, 0) ~dst:(z0, 0);
  Model.connect m ~src:(r, 0) ~dst:(z5, 0);
  let comp = Compile.compile m in
  check_float "offset refines base step" 0.05 comp.Compile.base_dt;
  let sim = Sim.create comp in
  Sim.run sim ~until:0.401 ();
  (* after t in [0.4, 0.45): z0 sampled at 0.4, z5 last sampled at 0.35 *)
  check_float "aligned hold" 0.4 (Value.to_float (Sim.value_named sim "z0" 0));
  check_float "offset hold" 0.35 (Value.to_float (Sim.value_named sim "z5" 0))

let test_multirate_base_step () =
  let m = Model.create "multirate" in
  let s = Model.add m (Sources.constant 1.0) in
  let z1 = Model.add m (Discrete_blocks.zoh ~period:0.02 ()) in
  let z2 = Model.add m (Discrete_blocks.zoh ~period:0.03 ()) in
  Model.connect m ~src:(s, 0) ~dst:(z1, 0);
  Model.connect m ~src:(s, 0) ~dst:(z2, 0);
  let comp = Compile.compile m in
  check_float "gcd(0.02,0.03)" 0.01 comp.Compile.base_dt

let test_continuous_integrator () =
  (* dx/dt = 1 -> x(t) = t, exact for RK4. *)
  let m = Model.create "int" in
  let c = Model.add m (Sources.constant 1.0) in
  let i = Model.add m ~name:"i" (Continuous_blocks.integrator ()) in
  let z = Model.add m (Discrete_blocks.zoh ~period:0.1 ()) in
  Model.connect m ~src:(c, 0) ~dst:(i, 0);
  Model.connect m ~src:(i, 0) ~dst:(z, 0);
  let sim = Sim.create (Compile.compile m) in
  Sim.run sim ~until:1.0 ();
  check_float "x(1) = 1" 1.0 (Value.to_float (Sim.value_named sim "i" 0))

let test_first_order_step_response () =
  (* k/(tau s + 1) step response: y(t) = k(1 - exp(-t/tau)). *)
  let m = Model.create "fo" in
  let s = Model.add m (Sources.step ~after:1.0 ()) in
  let p = Model.add m ~name:"p" (Continuous_blocks.first_order ~k:2.0 ~tau:0.5) in
  let z = Model.add m (Discrete_blocks.zoh ~period:0.001 ()) in
  Model.connect m ~src:(s, 0) ~dst:(p, 0);
  Model.connect m ~src:(p, 0) ~dst:(z, 0);
  let sim = Sim.create (Compile.compile m) in
  Sim.run sim ~until:1.0 ();
  let expected = 2.0 *. (1.0 -. exp (-1.0 /. 0.5)) in
  Alcotest.(check (float 1e-4)) "y(1)" expected
    (Value.to_float (Sim.value_named sim "p" 0))

let test_closed_loop_pi_converges () =
  (* PI-controlled first-order plant must settle at the set-point. *)
  let m = Model.create "cl" in
  let sp = Model.add m (Sources.step ~after:5.0 ()) in
  let k, tau = (2.0, 0.5) in
  let kp, ki = Tuning.pi_for_first_order ~k ~tau () in
  let pid =
    Model.add m ~name:"pid"
      (Discrete_blocks.pid ~ts:0.001 (Pid.gains ~kp ~ki ~u_min:(-100.) ~u_max:100. ()))
  in
  let plant = Model.add m ~name:"plant" (Continuous_blocks.first_order ~k ~tau) in
  Model.connect m ~src:(sp, 0) ~dst:(pid, 0);
  Model.connect m ~src:(plant, 0) ~dst:(pid, 1);
  Model.connect m ~src:(pid, 0) ~dst:(plant, 0);
  let sim = Sim.create (Compile.compile m) in
  Sim.run sim ~until:3.0 ();
  Alcotest.(check (float 0.02)) "tracks set-point" 5.0
    (Value.to_float (Sim.value_named sim "plant" 0))

let test_probe_trace () =
  let m = build_gain_chain () in
  let sim = Sim.create (Compile.compile ~default_dt:0.1 m) in
  Sim.probe_named sim "g2" 0;
  Sim.run sim ~until:0.5 ();
  let tr = Sim.trace_named sim "g2" 0 in
  check_int "5 samples" 5 (List.length tr);
  List.iter (fun (_, y) -> check_float "all -3" (-3.0) y) tr

let test_function_call_group () =
  (* A source block that fires an event every step; the triggered group
     contains a counter built from a sum + unit delay. *)
  let firing =
    {
      Block.kind = "TestFiring";
      params = [];
      n_in = 0;
      n_out = 0;
      feedthrough = [||];
      out_types = [||];
      sample = Sample_time.discrete 0.1;
      event_outs = [| "tick" |];
      make =
        (fun ctx ->
          {
            Block.no_beh_state with
            update = (fun ~time:_ _ -> ctx.Block.fire 0);
          });
    }
  in
  let m = Model.create "fc" in
  let f = Model.add m ~name:"f" firing in
  let one = Model.add m ~name:"one" (Sources.constant 1.0) in
  let sum = Model.add m ~name:"sum" (Math_blocks.sum "++") in
  let d = Model.add m ~name:"d" (Discrete_blocks.unit_delay ()) in
  Model.connect m ~src:(one, 0) ~dst:(sum, 0);
  Model.connect m ~src:(d, 0) ~dst:(sum, 1);
  Model.connect m ~src:(sum, 0) ~dst:(d, 0);
  let g = Model.fc_group m "tick_handler" in
  Model.assign_group m sum g;
  Model.assign_group m d g;
  Model.connect_event m ~src:(f, 0) g;
  let sim = Sim.create (Compile.compile m) in
  Sim.run sim ~until:1.0 ();
  (* 10 update-phase firings in 1 s at 0.1 s period. *)
  Alcotest.(check (float 0.0)) "counter" 10.0
    (Value.to_float (Sim.value_named sim "sum" 0))

let test_inline_subsystem () =
  (* Sub-model: y = 2*u + 1; inline into a parent feeding u = 3. *)
  let sub = Model.create "sub" in
  let inp = Model.add sub (Routing_blocks.inport 0) in
  let g = Model.add sub (Math_blocks.gain 2.0) in
  let c = Model.add sub (Sources.constant 1.0) in
  let s = Model.add sub (Math_blocks.sum "++") in
  let outp = Model.add sub (Routing_blocks.outport 0) in
  Model.connect sub ~src:(inp, 0) ~dst:(g, 0);
  Model.connect sub ~src:(g, 0) ~dst:(s, 0);
  Model.connect sub ~src:(c, 0) ~dst:(s, 1);
  Model.connect sub ~src:(s, 0) ~dst:(outp, 0);
  let parent = Model.create "parent" in
  let u = Model.add parent ~name:"u" (Sources.constant 3.0) in
  let outs = Model.inline parent ~prefix:"inner" ~sub ~inputs:[| (u, 0) |] in
  Alcotest.(check int) "one boundary output" 1 (Array.length outs);
  let probe = Model.add parent ~name:"y" (Math_blocks.gain 1.0) in
  Model.connect parent ~src:outs.(0) ~dst:(probe, 0);
  let sim = Sim.create (Compile.compile ~default_dt:0.1 parent) in
  Sim.step sim;
  check_float "y = 2*3+1" 7.0 (Value.to_float (Sim.value_named sim "y" 0))

let test_override_output () =
  let m = build_gain_chain () in
  let comp = Compile.compile ~default_dt:0.1 m in
  let sim = Sim.create comp in
  let src = Model.find m "src" in
  Sim.override_output sim (src, 0) (Some (Value.F 10.0));
  Sim.step sim;
  check_float "forced input" (-15.0) (Value.to_float (Sim.value_named sim "g2" 0))

let test_reset_reproducibility () =
  let m = Model.create "rng" in
  let n = Model.add m ~name:"n" (Sources.uniform_noise ~seed:7 ()) in
  let z = Model.add m (Discrete_blocks.zoh ~period:0.1 ()) in
  Model.connect m ~src:(n, 0) ~dst:(z, 0);
  let sim = Sim.create (Compile.compile m) in
  Sim.probe_named sim "n" 0;
  Sim.run sim ~until:1.0 ();
  let t1 = Sim.trace_named sim "n" 0 in
  Sim.reset sim;
  Sim.run sim ~until:1.0 ();
  let t2 = Sim.trace_named sim "n" 0 in
  check_bool "same noise after reset" true (t1 = t2)

(* ---- per-rate sample hits ---- *)

(* a block that logs its id whenever its [update] runs; with an input
   it inherits the rate of the block driving it *)
let logged ~log ~id ~n_in sample =
  let base =
    Block.stateless ~kind:"Logged" ~n_in ~n_out:1 ~sample (fun _ _ ->
        [| Value.F 0.0 |])
  in
  {
    base with
    Block.make =
      (fun ctx ->
        let beh = base.Block.make ctx in
        { beh with Block.update = (fun ~time:_ _ -> log := id :: !log) });
  }

(* rate codes: 0-3 a period of 1, 2, 5 or 10 ms with an offset in
   0.5 ms ticks below it, 4 Const, 5 Continuous; and whether an
   inheriting block hangs off the source *)
let rate_of_code (code, off) =
  match code with
  | 0 | 1 | 2 | 3 ->
      let ms = [| 1; 2; 5; 10 |].(code) in
      Sample_time.discrete
        ~offset:(float_of_int (off mod (2 * ms)) *. 0.5e-3)
        (float_of_int ms *. 1e-3)
  | 4 -> Sample_time.Const
  | _ -> Sample_time.Continuous

let prop_sample_hits =
  QCheck2.Test.make ~name:"updates run exactly on their sample hits" ~count:100
    QCheck2.Gen.(
      list_size (int_range 1 8)
        (triple (int_range 0 5) (int_range 0 19) bool))
    (fun codes ->
      let m = Model.create "rates" in
      let log = ref [] in
      let blocks = ref [] in
      List.iteri
        (fun k (code, off, child) ->
          let src =
            Model.add m ~name:(Printf.sprintf "s%d" k)
              (logged ~log ~id:(2 * k) ~n_in:0 (rate_of_code (code, off)))
          in
          blocks := (2 * k, src) :: !blocks;
          if child then begin
            let c =
              Model.add m ~name:(Printf.sprintf "c%d" k)
                (logged ~log ~id:((2 * k) + 1) ~n_in:1 Sample_time.Inherited)
            in
            Model.connect m ~src:(src, 0) ~dst:(c, 0);
            blocks := ((2 * k) + 1, c) :: !blocks
          end)
        codes;
      let comp = Compile.compile ~default_dt:1e-3 m in
      let sim = Sim.create comp in
      for n = 0 to 59 do
        let time = Sim.time sim in
        let expected =
          List.filter_map
            (fun (id, b) ->
              let hit =
                match Compile.resolved_of comp b with
                | Sample_time.R_const -> n = 0
                | r -> Sample_time.hit r ~time ~base_dt:comp.Compile.base_dt
              in
              if hit then Some id else None)
            !blocks
          |> List.sort compare
        in
        log := [];
        Sim.step sim;
        let ran = List.sort compare !log in
        if ran <> expected then
          QCheck2.Test.fail_reportf "step %d (t=%g): updated [%s], expected [%s]"
            n time
            (String.concat ";" (List.map string_of_int ran))
            (String.concat ";" (List.map string_of_int expected))
      done;
      true)

let suite =
  [
    Alcotest.test_case "gain chain output" `Quick test_chain_output;
    Alcotest.test_case "unconnected input rejected" `Quick test_unconnected_input_rejected;
    Alcotest.test_case "algebraic loop detected" `Quick test_algebraic_loop_detected;
    Alcotest.test_case "delay breaks loops" `Quick test_loop_broken_by_delay;
    Alcotest.test_case "double wiring rejected" `Quick test_double_wire_rejected;
    Alcotest.test_case "type propagation" `Quick test_type_propagation;
    Alcotest.test_case "integer saturation" `Quick test_integer_saturation_in_diagram;
    Alcotest.test_case "sample time inheritance" `Quick test_sample_time_resolution;
    Alcotest.test_case "sample offset" `Quick test_sample_offset;
    Alcotest.test_case "multirate base step" `Quick test_multirate_base_step;
    Alcotest.test_case "continuous integrator" `Quick test_continuous_integrator;
    Alcotest.test_case "first-order step response" `Quick test_first_order_step_response;
    Alcotest.test_case "closed-loop PI converges" `Quick test_closed_loop_pi_converges;
    Alcotest.test_case "probe traces" `Quick test_probe_trace;
    Alcotest.test_case "function-call group" `Quick test_function_call_group;
    Alcotest.test_case "inline subsystem" `Quick test_inline_subsystem;
    Alcotest.test_case "override output (PIL hook)" `Quick test_override_output;
    Alcotest.test_case "reset reproducibility" `Quick test_reset_reproducibility;
    QCheck_alcotest.to_alcotest prop_sample_hits;
  ]

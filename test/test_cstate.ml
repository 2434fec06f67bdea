(* The continuous-time oracle: every output port of random diagrams that
   mix the continuous blocks (Integrator, TransferFcn, FirstOrder,
   StateSpace, DcMotor under each load shape, PowerStage) with
   stateless Gain/Sum at continuous rate is pinned bit for bit after
   every step, as an MD5 of the bits. The outputs of Integrator and
   DcMotor are their continuous states. Two fixed motor loops pin a
   fault hook and an output override on a continuous port. *)

let bits = function
  | Value.F x -> Int64.bits_of_float x
  | Value.I (_, n) -> Int64.of_int n
  | Value.B b -> if b then 1L else 0L

let all_ports m =
  List.concat_map
    (fun b -> List.init (Model.spec_of m b).Block.n_out (fun p -> (b, p)))
    (Model.blocks m)

let loads =
  Load_profile.
    [|
      No_load;
      Constant 1.5e-3;
      Viscous 2.0e-5;
      Step { at = 0.04; torque = 3.0e-3 };
      Pulse { start = 0.02; stop = 0.07; torque = -2.0e-3 };
      Sum [ Viscous 1.0e-5; Step { at = 0.05; torque = 1.0e-3 } ];
    |]

(* bounded continuous blocks, and the discrete palette for held inputs *)
let palette rng =
  let g gen = QCheck2.Gen.generate1 ~rand:rng gen in
  let f lo hi = g (QCheck2.Gen.float_range lo hi) in
  match g (QCheck2.Gen.int_bound 11) with
  | 0 -> Continuous_blocks.integrator ~init:(f (-1.0) 1.0) ~k:(f (-2.0) 2.0) ()
  | 1 ->
      Continuous_blocks.transfer_fcn ~num:[| f 0.5 2.0 |]
        ~den:[| f 0.01 0.05; f 0.2 0.6; 1.0 |]
  | 2 -> Continuous_blocks.first_order ~k:(f 0.5 2.0) ~tau:(f 0.005 0.05)
  | 3 ->
      Continuous_blocks.state_space
        ~a:[| [| -20.0; f (-5.0) 5.0 |]; [| f (-5.0) 5.0; -30.0 |] |]
        ~b:[| 1.0; f (-1.0) 1.0 |] ~c:[| f (-1.0) 1.0; 1.0 |]
        ~d:(if g QCheck2.Gen.bool then 0.0 else f (-0.5) 0.5)
        ()
  | 4 -> Plant_blocks.dc_motor ~load:loads.(g (QCheck2.Gen.int_bound 5)) ()
  | 5 ->
      Plant_blocks.power_stage
        {
          Power_stage.u_supply = 24.0;
          dead_time_frac = f 0.0 0.05;
          r_on = f 0.0 0.2;
          bipolar = g QCheck2.Gen.bool;
        }
  | 6 | 7 -> Math_blocks.gain (f (-0.9) 0.9)
  | 8 -> Math_blocks.sum "+-"
  | _ -> Test_model_fuzz.palette rng

let dt = 0.001
let substeps = 5 (* the motor's electrical pole at a 1 ms step *)

(* MD5 of the time and every port's bits after each of [n] steps;
   [at_step k] runs before step [k] *)
let digest ?(at_step = fun _ -> ()) sim ports n =
  let b = Buffer.create 4096 in
  for k = 0 to n - 1 do
    at_step k;
    Sim.step sim;
    Buffer.add_int64_le b (Int64.bits_of_float (Sim.time sim));
    List.iter (fun p -> Buffer.add_int64_le b (bits (Sim.value sim p))) ports
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let random_case seed =
  let m = Test_model_fuzz.random_dag_of palette ~seed ~size:14 in
  let sim =
    Sim.create ~solver_substeps:substeps (Compile.compile ~default_dt:dt m)
  in
  digest sim (all_ports m) 120

(* duty -> power stage -> motor, the current fed back to the stage, the
   speed through a continuous gain into an integrator *)
let motor_loop () =
  let m = Model.create "loop" in
  let add = Model.add m and connect = Model.connect m in
  let duty = add ~name:"duty" (Sources.pulse ~period:0.03 ~duty:0.6 ~amp:0.8 ()) in
  let stage =
    add ~name:"stage"
      (Plant_blocks.power_stage
         { Power_stage.u_supply = 24.0; dead_time_frac = 0.02; r_on = 0.1;
           bipolar = false })
  in
  let motor = add ~name:"motor" (Plant_blocks.dc_motor ~load:loads.(5) ()) in
  let k = add ~name:"k" (Math_blocks.gain 0.5) in
  let integ = add ~name:"integ" (Continuous_blocks.integrator ()) in
  connect ~src:(duty, 0) ~dst:(stage, 0);
  connect ~src:(motor, 2) ~dst:(stage, 1);
  connect ~src:(stage, 0) ~dst:(motor, 0);
  connect ~src:(motor, 0) ~dst:(k, 0);
  connect ~src:(k, 0) ~dst:(integ, 0);
  let sim =
    Sim.create ~solver_substeps:substeps (Compile.compile ~default_dt:dt m)
  in
  (m, sim, motor, integ)

(* the current fed back to the stage through a perturbation that counts
   its calls, so a changed number of writes changes the bits too *)
let hooked_case () =
  let m, sim, motor, _ = motor_loop () in
  let calls = ref 0 in
  Sim.set_fault_hook sim
    [
      ( (motor, 2),
        fun ~time v ->
          incr calls;
          Value.F
            (Value.to_float v
            +. (1e-3 *. sin (time *. 50.0))
            +. (1e-9 *. float_of_int !calls)) );
    ];
  digest sim (all_ports m) 150

(* the stage output forced from step 30 to step 90 *)
let override_case () =
  let m, sim, _, _ = motor_loop () in
  let stage = Model.find m "stage" in
  digest sim (all_ports m) 150 ~at_step:(fun k ->
      if k = 30 then Sim.override_output sim (stage, 0) (Some (Value.F 6.0));
      if k = 90 then Sim.override_output sim (stage, 0) None)

(* one open-loop motor per load shape, each behind its own stage *)
let loads_case () =
  let m = Model.create "loads" in
  let duty =
    Model.add m ~name:"duty" (Sources.sine ~amp:0.4 ~freq_hz:15.0 ~bias:0.5 ())
  in
  Array.iteri
    (fun k load ->
      let stage =
        Model.add m
          ~name:(Printf.sprintf "stage%d" k)
          (Plant_blocks.power_stage (Power_stage.bipolar ~u_supply:24.0))
      in
      let motor =
        Model.add m ~name:(Printf.sprintf "motor%d" k)
          (Plant_blocks.dc_motor ~load ())
      in
      Model.connect m ~src:(duty, 0) ~dst:(stage, 0);
      Model.connect m ~src:(motor, 2) ~dst:(stage, 1);
      Model.connect m ~src:(stage, 0) ~dst:(motor, 0))
    loads;
  let sim =
    Sim.create ~solver_substeps:substeps (Compile.compile ~default_dt:dt m)
  in
  digest sim (all_ports m) 120

let golden_random =
  [
    (1, "5f593ad9ce64c90e95deff4b257f37c3");
    (2, "c13ffde0d1d978acbcce59ad965024e9");
    (3, "7b1a47ed321e4621057ceb5d77a341c7");
    (4, "c2ac404d64a7e33f9ad77fdfd867e12b");
    (5, "ad8e1162dc815b1047f1552893a14e7d");
    (6, "e898cca7cdaacd3caa4e6ae6f9fdf8ec");
    (7, "f8825d83d34c82d4ce21f01d11c003cf");
    (8, "e1f9089ac56d9996964ce903e0048e22");
    (9, "e7f82d26f16247d6d0b6be5ca5972c4d");
    (10, "855c6ee4510f73825aa86fd4f25c0846");
    (11, "d1bfbfddfe5437c9223f369fa479e7af");
    (12, "11bc48f37d2b4d2803179c8ef1f6b37e");
  ]

let test_random () =
  List.iter
    (fun (seed, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "random diagram %d" seed)
        expected (random_case seed))
    golden_random

let test_loop () =
  let m, sim, _, _ = motor_loop () in
  Alcotest.(check string) "motor loop" "4a1187476a4e4ca62917bf406263eddc" (digest sim (all_ports m) 150);
  Alcotest.(check string) "one motor per load shape" "a9b6402fc4e8f4d6dde326a6464eeda3" (loads_case ());
  Alcotest.(check string) "fault hook on the current" "1e23964b9ebc146172323353bd074fc3" (hooked_case ());
  Alcotest.(check string) "override on the stage" "d7b68f1437dd4a69fdf9cf9abb5d16b1" (override_case ())

(* [Sim.reset] puts every continuous state back to its initial
   condition: a reset run replays the fresh one *)
let prop_reset_replays =
  QCheck2.Test.make ~name:"Sim.reset replays random continuous diagrams"
    ~count:30
    QCheck2.Gen.(pair (int_range 1 10000) (int_range 1 16))
    (fun (seed, size) ->
      let m = Test_model_fuzz.random_dag_of palette ~seed ~size in
      let sim =
        Sim.create ~solver_substeps:substeps (Compile.compile ~default_dt:dt m)
      in
      let first = digest sim (all_ports m) 60 in
      Sim.reset sim;
      first = digest sim (all_ports m) 60)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_reset_replays;
    Alcotest.test_case "random continuous diagrams: pinned bits" `Quick
      test_random;
    Alcotest.test_case "motor loop, hook, override: pinned bits" `Quick
      test_loop;
  ]

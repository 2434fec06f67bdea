(* PIL co-simulation: the servo on the virtual MC56F8367 over RS-232. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let pil_cfg =
  { Servo_system.default_config with Servo_system.control_period = 5e-3 }

let run_pil ?(periods = 300) ?baud ?error_rate ?preemptive () =
  let b = Servo_system.build ~config:pil_cfg () in
  let comp = Compile.compile b.Servo_system.controller in
  let a = Pil_target.generate ~name:"servo" ~project:b.Servo_system.project comp in
  let controller = Sim.create comp in
  let plant = Servo_system.pil_plant b in
  let driver = Servo_system.pil_driver b in
  ( b,
    Pil_cosim.run ?baud ?error_rate ?preemptive ~mcu:pil_cfg.Servo_system.mcu
      ~schedule:a.Target.schedule ~controller ~plant ~driver ~periods () )

let test_pil_converges () =
  let _, r = run_pil ~periods:300 () in
  let speed = Servo_system.pil_speed_trace r.Pil_cosim.trace in
  match List.rev speed with
  | (_, w) :: _ ->
      Alcotest.(check (float 5.0)) "tracks the final set-point" 150.0 w
  | [] -> Alcotest.fail "no trace"

let test_pil_vs_mil_deviation () =
  (* the PIL trajectory must stay close to MIL: quantisation and the
     one-period actuator latency bound the deviation *)
  let b = Servo_system.build ~config:pil_cfg () in
  let mil_speed, _ = Servo_system.mil_run b ~t_end:1.5 in
  let _, r = run_pil ~periods:300 () in
  let pil_speed = Servo_system.pil_speed_trace r.Pil_cosim.trace in
  (* compare at matching times (PIL trace is per control period) *)
  let mil_at t =
    List.fold_left
      (fun best (ti, w) ->
        match best with
        | Some (tb, _) when Float.abs (ti -. t) >= Float.abs (tb -. t) -> best
        | _ -> Some (ti, w))
      None mil_speed
    |> Option.map snd
  in
  let max_dev =
    List.fold_left
      (fun acc (t, w) ->
        match mil_at t with
        | Some wm -> Float.max acc (Float.abs (w -. wm))
        | None -> acc)
      0.0
      (* skip the first 50 ms transient where one-period shifts dominate *)
      (List.filter (fun (t, _) -> t > 0.05) pil_speed)
  in
  check_bool "PIL within 12 rad/s of MIL" true (max_dev < 12.0)

let test_pil_profile_contents () =
  let _, r = run_pil ~periods:200 () in
  let p = r.Pil_cosim.profile in
  check_bool "exec time plausible" true
    (p.Pil_cosim.controller_exec > 1e-6
     && p.Pil_cosim.controller_exec < 1e-3);
  check_bool "latency after comm" true
    (p.Pil_cosim.response_latency.Stats.p50 > p.Pil_cosim.comm_time_per_period /. 2.0);
  check_bool "latency within period" true
    (p.Pil_cosim.response_latency.Stats.max < 5e-3);
  check_int "no overruns" 0 p.Pil_cosim.overruns;
  check_int "no crc errors" 0 p.Pil_cosim.crc_errors;
  check_bool "stack watermark measured" true (p.Pil_cosim.target.Machine.max_stack_bytes > 96);
  check_bool "cpu mostly idle" true (p.Pil_cosim.target.Machine.utilization < 0.2)

let test_pil_baud_feasibility () =
  (* at 9600 baud the two packets cannot fit into 5 ms *)
  match run_pil ~baud:9600 () with
  | exception Invalid_argument msg ->
      check_bool "explains the minimum period" true
        (Astring_contains.contains msg "minimum feasible period")
  | _ -> Alcotest.fail "infeasible baud accepted"

let test_pil_error_injection () =
  let _, r = run_pil ~periods:300 ~error_rate:0.01 () in
  let p = r.Pil_cosim.profile in
  check_bool "crc errors observed" true (p.Pil_cosim.crc_errors > 0);
  check_bool "corrupted periods overrun" true (p.Pil_cosim.overruns > 0);
  (* the loop must survive: the motor still spins roughly at set-point *)
  match List.rev (Servo_system.pil_speed_trace r.Pil_cosim.trace) with
  | (_, w) :: _ -> check_bool "loop survives noise" true (Float.abs (w -. 150.0) < 20.0)
  | [] -> Alcotest.fail "no trace"

let test_pil_comm_accounting () =
  let _, r = run_pil ~periods:50 () in
  let p = r.Pil_cosim.profile in
  (* 2 sensors (2B each) + 1 actuator: sensor pkt 6+4=10B, actuator 6+2=8B
     before stuffing *)
  check_bool "bytes per period >= raw size" true (p.Pil_cosim.comm_bytes_per_period >= 18);
  Alcotest.(check (float 1e-9)) "comm time consistent"
    (float_of_int p.Pil_cosim.comm_bytes_per_period *. 10.0 /. 115200.0)
    p.Pil_cosim.comm_time_per_period

let test_pil_fixed_point_variant () =
  let cfg = { pil_cfg with Servo_system.variant = Servo_system.Fixed_pid } in
  let b = Servo_system.build ~config:cfg () in
  let comp = Compile.compile b.Servo_system.controller in
  let a = Pil_target.generate ~name:"servofx" ~project:b.Servo_system.project comp in
  let controller = Sim.create comp in
  let plant = Servo_system.pil_plant b in
  let driver = Servo_system.pil_driver b in
  let r =
    Pil_cosim.run ~mcu:cfg.Servo_system.mcu ~schedule:a.Target.schedule
      ~controller ~plant ~driver ~periods:300 ()
  in
  match List.rev (Servo_system.pil_speed_trace r.Pil_cosim.trace) with
  | (_, w) :: _ ->
      Alcotest.(check (float 6.0)) "fixed-point PIL tracks" 150.0 w
  | [] -> Alcotest.fail "no trace"

let test_pil_duplicate_frames_idempotent () =
  (* every sensor frame transmitted twice: the target's sequence-number
     deduplication must step the controller exactly once per period, so
     the closed-loop trajectory is identical to the clean run *)
  let _, clean = run_pil ~periods:200 () in
  let b = Servo_system.build ~config:pil_cfg () in
  let comp = Compile.compile b.Servo_system.controller in
  let a = Pil_target.generate ~name:"servo" ~project:b.Servo_system.project comp in
  let controller = Sim.create comp in
  let plant = Servo_system.pil_plant b in
  let driver = Servo_system.pil_driver b in
  let dup =
    Pil_cosim.run ~dup_frames:true ~mcu:pil_cfg.Servo_system.mcu
      ~schedule:a.Target.schedule ~controller ~plant ~driver ~periods:200 ()
  in
  check_int "no overruns with duplicated frames" 0
    dup.Pil_cosim.profile.Pil_cosim.overruns;
  let speeds r = List.map snd (Servo_system.pil_speed_trace r.Pil_cosim.trace) in
  let pairs = List.combine (speeds clean) (speeds dup) in
  List.iter
    (fun (a, b) ->
      Alcotest.(check (float 1e-9)) "trajectory unchanged by duplicates" a b)
    pairs

let test_pil_timeout_holds_last_actuator () =
  (* heavy noise: periods whose frames die must reuse the previous
     actuator command (frame hold), never a stale mis-parse or a crash *)
  let _, r = run_pil ~periods:300 ~error_rate:0.05 () in
  let p = r.Pil_cosim.profile in
  check_bool "overruns under heavy noise" true (p.Pil_cosim.overruns > 0);
  check_bool "crc rejections counted" true (p.Pil_cosim.crc_errors > 0);
  (* the held-frame policy keeps the loop alive and bounded *)
  List.iter
    (fun (_, obs) ->
      List.iter
        (fun (_, v) -> check_bool "observation finite" true (Float.is_finite v))
        obs)
    r.Pil_cosim.trace

(* Golden trajectory of the PIL plant (motor, power stage, load step,
   encoder register) driven open-loop through its driver, recorded
   before the plant moved onto the in-place stepper: the rewrite must
   not change a bit. 5000 periods of 1 ms cross the default load step
   at 1.2 s. *)
let golden_periods = 5000

(* duty word per period: a staircase through 0..48000 with a
   deterministic ripple, so the run both accelerates and coasts *)
let golden_duty_word k = (k / 250 mod 5 * 12000) + (k * 7919 mod 3000)

let plant_trajectory () =
  let b = Servo_system.build () in
  let plant = Servo_system.pil_plant b in
  let d = Servo_system.pil_driver b in
  let dt = 1e-3 in
  Array.init golden_periods (fun k ->
      let s = d.Pil_cosim.read_sensors plant ~time:(float_of_int k *. dt) in
      d.Pil_cosim.apply_actuators plant [| golden_duty_word k |];
      d.Pil_cosim.advance plant ~dt;
      let bits name =
        Int64.bits_of_float (List.assoc name (d.Pil_cosim.observe plant))
      in
      (bits "speed", bits "theta", bits "current", s.(0)))

(* (period, speed, theta, current bits, encoder count read before it) *)
let golden_spots =
  [
    (0, 0L, 0L, 0L, 0);
    (1, 4604091958843274584L, 4553272694686410284L, 4599003271977974893L, 0);
    (7, 4617660731082047122L, 4581110741815715134L, 4594892365759578834L, 0);
    (249, 4622584783719394844L, 4612999886852364990L, -4631214798611695033L, 163);
    (250, 4625041938253025986L, 4613029133524014317L, 4611740598101860270L, 164);
    (1199, 4645027457323072980L, 4641569030767258575L, 4599020199415673239L, 13303);
    (1200, 4645030574659303873L, 4641581674865404786L, 4594791316291956912L, 13326);
    (1201, 4645023558178043843L, 4641594315470955313L, -4639067110915157212L, 13349);
    (1250, 4644694581034433304L, 4642210136163356963L, -4603593868293923559L, 14463);
    (2000, 4640735202024411869L, 4643996731752810150L, 4611281895277663808L, 19128);
    (3333, 4643433027509391443L, 4648046313535574014L, -4631800333655721074L, 34977);
    (4999, 4644969483530498887L, 4651216689480043527L, 4597377192218705643L, 57917);
  ]

(* polynomial hashes over every period, so no sample between the spots
   can drift either *)
let golden_state_hash = -215840587649663302L
let golden_count_hash = 164907223

let test_pil_plant_golden () =
  let traj = plant_trajectory () in
  List.iter
    (fun (k, w, th, i, c) ->
      let w', th', i', c' = traj.(k) in
      let chk what e a =
        if not (Int64.equal e a) then
          Alcotest.failf "period %d %s: bits %Ld, golden %Ld" k what a e
      in
      chk "speed" w w';
      chk "theta" th th';
      chk "current" i i';
      check_int (Printf.sprintf "period %d encoder count" k) c c')
    golden_spots;
  let h = ref 0L and hc = ref 0 in
  Array.iter
    (fun (w, th, i, c) ->
      List.iter (fun v -> h := Int64.add (Int64.mul !h 1000003L) v) [ w; th; i ];
      hc := ((!hc * 31) + c) land 0x3FFFFFFF)
    traj;
  Alcotest.(check int64) "state hash" golden_state_hash !h;
  check_int "encoder count hash" golden_count_hash !hc

let suite =
  [
    Alcotest.test_case "pil converges" `Quick test_pil_converges;
    Alcotest.test_case "pil vs mil" `Quick test_pil_vs_mil_deviation;
    Alcotest.test_case "profile contents" `Quick test_pil_profile_contents;
    Alcotest.test_case "baud feasibility" `Quick test_pil_baud_feasibility;
    Alcotest.test_case "error injection" `Quick test_pil_error_injection;
    Alcotest.test_case "comm accounting" `Quick test_pil_comm_accounting;
    Alcotest.test_case "fixed-point PIL" `Quick test_pil_fixed_point_variant;
    Alcotest.test_case "duplicated frames idempotent" `Quick
      test_pil_duplicate_frames_idempotent;
    Alcotest.test_case "timeout holds last actuator frame" `Quick
      test_pil_timeout_holds_last_actuator;
    Alcotest.test_case "PIL plant golden trajectory" `Quick
      test_pil_plant_golden;
  ]

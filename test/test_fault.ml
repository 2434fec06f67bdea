(* Fault-injection subsystem: taxonomy windows, scenario parsing, the
   seeded injector, the safe-state supervisor campaign on the servo
   loop, MIL-vs-SIL lock-step under fault, and the CON004 watchdog
   rule. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ---- fault windows ---- *)

let test_fault_window () =
  let f = Fault.make ~at:0.5 ~duration:0.2 Fault.Sensor_dropout in
  check_bool "before onset" false (Fault.active f ~time:0.4);
  check_bool "at onset" true (Fault.active f ~time:0.5);
  check_bool "inside" true (Fault.active f ~time:0.69);
  check_bool "closed at end" false (Fault.active f ~time:0.7);
  Alcotest.(check (float 1e-9)) "clear time" 0.7 (Fault.clear_time f ~horizon:2.0);
  Alcotest.(check (float 1e-9)) "clear clamped" 0.6 (Fault.clear_time f ~horizon:0.6);
  let p = Fault.make ~every:0.5 ~at:0.1 ~duration:0.05 (Fault.Sensor_noise 10) in
  check_bool "first burst" true (Fault.active p ~time:0.12);
  check_bool "between bursts" false (Fault.active p ~time:0.3);
  check_bool "second burst" true (Fault.active p ~time:0.62);
  Alcotest.(check (float 1e-9)) "periodic never clears" 2.0
    (Fault.clear_time p ~horizon:2.0);
  let raises f = match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "negative onset rejected" true
    (raises (fun () -> Fault.make ~at:(-1.0) ~duration:0.1 Fault.Sensor_stuck));
  check_bool "zero duration rejected" true
    (raises (fun () -> Fault.make ~at:0.0 ~duration:0.0 Fault.Sensor_stuck));
  check_bool "period shorter than burst rejected" true
    (raises (fun () ->
         Fault.make ~every:0.05 ~at:0.0 ~duration:0.1 Fault.Sensor_stuck))

(* ---- scenario file format ---- *)

let test_scenario_parse () =
  let text =
    "# servo abuse\n\n\
     dropout at=0.5 duration=0.1\n\
     offset at=0.2 duration=0.3 slot=1 value=-30\n\
     noise at=0.1 duration=0.05 every=0.5 value=12\n\
     load at=1.0 duration=0.2 value=2.5e-3\n"
  in
  match Fault_scenario.of_string ~name:"abuse" text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok s ->
      check_string "name" "abuse" s.Fault_scenario.sname;
      check_int "faults" 4 (List.length s.Fault_scenario.faults);
      (match s.Fault_scenario.faults with
      | [ d; o; n; l ] ->
          check_bool "dropout kind" true (d.Fault.kind = Fault.Sensor_dropout);
          check_bool "offset kind" true (o.Fault.kind = Fault.Sensor_offset (-30));
          check_int "offset slot" 1 o.Fault.slot;
          check_bool "noise periodic" true (n.Fault.every = Some 0.5);
          check_bool "load kind" true (l.Fault.kind = Fault.Load_torque 2.5e-3)
      | _ -> Alcotest.fail "wrong fault order");
      Alcotest.(check (float 1e-9)) "onset" 0.1 (Fault_scenario.onset s);
      Alcotest.(check (float 1e-9)) "clear" 2.0
        (Fault_scenario.clear_time s ~horizon:2.0);
      (match Fault_scenario.active_names s ~time:0.55 with
      | [ n ] -> check_bool "dropout active at 0.55" true (contains "dropout" n)
      | l -> Alcotest.failf "expected one active fault, got %d" (List.length l));
      check_int "noise burst active at 0.12" 1
        (List.length (Fault_scenario.active_names s ~time:0.12))

let test_scenario_errors () =
  let expect_err text frag =
    match Fault_scenario.of_string ~name:"t" text with
    | Ok _ -> Alcotest.failf "accepted %S" text
    | Error e ->
        check_bool (Printf.sprintf "%S mentions %S (got %S)" text frag e) true
          (contains frag e)
  in
  expect_err "bogus at=1 duration=1" "unknown fault kind";
  expect_err "offset at=1 duration=1" "needs value=";
  expect_err "dropout duration=1" "missing at=";
  expect_err "dropout at=1" "missing duration=";
  expect_err "dropout at=x duration=1" "not a number";
  expect_err "dropout at=1 duration=1 junk" "stray token";
  expect_err "dropout at=1 duration=1 flavor=3" "unknown key";
  expect_err "dropout at=2 duration=1 every=0.5" "line 1";
  expect_err "# only comments\n\n" "no faults"

(* values that used to run as something else ([at=nan] as an empty
   window, [value=1e300] as "+0 cycles") or crash are errors naming
   their line *)
let test_scenario_bad_values () =
  List.iter
    (fun (line, frag) ->
      let text = "dropout at=0.5 duration=0.1\n" ^ line ^ "\n" in
      match Fault_scenario.of_string ~name:"t" text with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error e ->
          check_bool (Printf.sprintf "%S: %S names line 2 and %S" line e frag)
            true
            (contains "line 2" e && contains frag e))
    [
      ("stuck at=nan duration=0.1", "at=nan");
      ("stuck at=0.1 duration=nan", "duration=nan");
      ("stuck at=inf duration=0.1", "at=inf");
      ("stuck at=0.1 duration=0.1 every=nan", "every=nan");
      ("overrun at=0.1 duration=0.1 value=nan", "value=nan");
      ("jam at=0.1 duration=0.1 value=inf", "value=inf");
      ("overrun at=0.1 duration=0.1 value=1e300", "value=1e+300");
      ("overrun at=0.1 duration=0.1 value=-5", "value=-5");
      ("noise at=0.1 duration=0.1 value=-1", "value=-1");
      ("glitch at=0.1 duration=0.1 value=-1", "value=-1");
      ("noise at=0.1 duration=0.1 value=2.5", "value=2.5");
      ("offset at=0.1 duration=0.1 value=-1e19", "value=-1e+19");
      ("stuck at=0.1 duration=0.1 slot=-1", "slot=-1");
      ("stuck at=0.1 duration=0.1 slot=nan", "slot=nan");
      ("stuck at=0.1 duration=0.1 slot=1.5", "slot=1.5");
    ]

(* the shipped example scenarios still parse *)
let test_example_scenarios () =
  List.iter
    (fun f ->
      match Fault_scenario.load (Filename.concat "../examples" f) with
      | Ok s -> check_bool (f ^ " has faults") true (s.Fault_scenario.faults <> [])
      | Error e -> Alcotest.failf "%s: %s" f e)
    [ "brownout.fault"; "encoder_dropout.fault" ]

let test_builtins () =
  List.iter
    (fun name ->
      match Fault_scenario.find name with
      | Ok s -> check_string "resolves" name s.Fault_scenario.sname
      | Error e -> Alcotest.failf "builtin %s: %s" name e)
    [ "encoder-dropout"; "sensor-stuck"; "noise-burst"; "encoder-glitch";
      "actuator-jam"; "overrun-burst"; "wdog-suppress" ];
  match Fault_scenario.find "no-such-scenario" with
  | Ok _ -> Alcotest.fail "nonsense scenario resolved"
  | Error e ->
      check_bool "error lists builtins" true (contains "encoder-dropout" e)

(* ---- the seeded injector ---- *)

let scn faults = { Fault_scenario.sname = "test"; faults }

let test_injector_sensor () =
  let inj =
    Fault_inject.arm
      (scn [ Fault.make ~at:0.5 ~duration:0.2 (Fault.Sensor_offset 10) ])
  in
  check_int "inactive passthrough" 100
    (Fault_inject.sensor inj ~slot:0 ~time:0.1 100);
  check_int "offset applied" 110 (Fault_inject.sensor inj ~slot:0 ~time:0.6 100);
  check_int "other slot untouched" 100
    (Fault_inject.sensor inj ~slot:1 ~time:0.6 100);
  let drop =
    Fault_inject.arm (scn [ Fault.make ~at:0.5 ~duration:0.2 Fault.Sensor_dropout ])
  in
  check_int "dropout zeroes" 0 (Fault_inject.sensor drop ~slot:0 ~time:0.6 4321);
  (* stuck freezes the last clean code *)
  let stuck =
    Fault_inject.arm (scn [ Fault.make ~at:0.5 ~duration:0.2 Fault.Sensor_stuck ])
  in
  check_int "clean" 7 (Fault_inject.sensor stuck ~slot:0 ~time:0.4 7);
  check_int "frozen at last clean" 7
    (Fault_inject.sensor stuck ~slot:0 ~time:0.6 9);
  check_int "still frozen" 7 (Fault_inject.sensor stuck ~slot:0 ~time:0.65 12);
  check_int "released" 12 (Fault_inject.sensor stuck ~slot:0 ~time:0.8 12)

let test_injector_determinism () =
  let mk seed =
    Fault_inject.arm ~seed
      (scn [ Fault.make ~at:0.0 ~duration:1.0 (Fault.Sensor_noise 40) ])
  in
  let stream seed =
    let inj = mk seed in
    List.init 50 (fun k ->
        Fault_inject.sensor inj ~slot:0 ~time:(float_of_int k *. 1e-3) 1000)
  in
  check_bool "same seed replays exactly" true (stream 3 = stream 3);
  check_bool "different seed differs" true (stream 3 <> stream 4);
  check_bool "noise stays within amplitude" true
    (List.for_all (fun v -> abs (v - 1000) <= 40) (stream 3));
  (* actuator faults *)
  let jam =
    Fault_inject.arm (scn [ Fault.make ~at:0.0 ~duration:1.0 (Fault.Actuator_jam 1.0) ])
  in
  Alcotest.(check (float 1e-12)) "jam forces duty" 1.0
    (Fault_inject.duty jam ~time:0.5 0.2);
  let sat =
    Fault_inject.arm
      (scn [ Fault.make ~at:0.0 ~duration:1.0 (Fault.Actuator_saturation 0.3) ])
  in
  Alcotest.(check (float 1e-12)) "saturation clips" 0.3
    (Fault_inject.duty sat ~time:0.5 0.8);
  Alcotest.(check (float 1e-12)) "saturation passes small" 0.1
    (Fault_inject.duty sat ~time:0.5 0.1)

(* the injector memoizes the active sublist per window; every answer
   must still match the Fault.active predicate — across one-shot and
   periodic windows, and after non-monotonic queries (each campaign run
   rewinds time to zero) *)
let test_injector_cache_equivalence () =
  let f1 = Fault.make ~at:0.2 ~duration:0.2 (Fault.Sensor_offset 10) in
  let f2 =
    Fault.make ~every:0.5 ~at:0.05 ~duration:0.1 (Fault.Sensor_offset 300)
  in
  let inj = Fault_inject.arm (scn [ f1; f2 ]) in
  let expected time =
    List.fold_left
      (fun v f ->
        match f.Fault.kind with
        | Fault.Sensor_offset d when Fault.active f ~time -> v + d
        | _ -> v)
      1000 [ f1; f2 ]
  in
  for k = 0 to 1200 do
    let time = float_of_int k *. 1e-3 in
    check_int
      (Printf.sprintf "t=%g" time)
      (expected time)
      (Fault_inject.sensor inj ~slot:0 ~time 1000)
  done;
  (* rewinding time must invalidate the cached window *)
  check_int "rewound inside the one-shot window" 1010
    (Fault_inject.sensor inj ~slot:0 ~time:0.3 1000);
  check_int "rewound before every onset" 1000
    (Fault_inject.sensor inj ~slot:0 ~time:0.0 1000);
  (* next_transition edges are the exact float window bounds *)
  Alcotest.(check (float 0.0)) "edge: onset" 0.2
    (Fault.next_transition f1 ~time:0.1);
  Alcotest.(check (float 0.0)) "edge: clear" (0.2 +. 0.2)
    (Fault.next_transition f1 ~time:0.25);
  check_bool "edge: gone for good" true
    (Fault.next_transition f1 ~time:0.5 = infinity);
  Alcotest.(check (float 0.0)) "periodic: revalidate every instant" 0.3
    (Fault.next_transition f2 ~time:0.3)

(* Every kind, with a magnitude where it takes one. *)
let gen_kind =
  QCheck2.Gen.(
    oneof
      [
        return Fault.Sensor_stuck;
        map (fun n -> Fault.Sensor_offset n) (int_range (-50) 50);
        map (fun n -> Fault.Sensor_noise n) (int_range 1 50);
        return Fault.Sensor_dropout;
        map (fun n -> Fault.Encoder_glitch n) (int_range 1 500);
        map (fun x -> Fault.Actuator_saturation x) (float_range 0.1 1.0);
        map (fun x -> Fault.Actuator_jam x) (float_range (-1.0) 1.0);
        map (fun x -> Fault.Load_torque x) (float_range 0.0 0.01);
        map (fun n -> Fault.Overrun n) (int_range 0 100_000);
        return Fault.Wdog_suppress;
        map
          (fun r -> Fault.Comm { Faulty.clean with corrupt_rate = r })
          (float_range 0.0 0.5);
      ])

(* times on the 1 ms control grid, so queries land on window edges *)
let gen_time = QCheck2.Gen.(map (fun k -> float_of_int k *. 1e-3) (int_range 0 1500))

(* windows of 1-400 ms, one-shot or recurring 0-500 ms after they close *)
let gen_fault =
  QCheck2.Gen.(
    map
      (fun (kind, slot, (at, duration), gap) ->
        let ms k = float_of_int k *. 1e-3 in
        let every = Option.map (fun g -> ms (duration + g)) gap in
        Fault.make ~slot ?every ~at ~duration:(ms duration) kind)
      (quad gen_kind (int_range 0 1)
         (pair gen_time (int_range 1 400))
         (opt (int_range 0 500))))

type call = Sensor of int * float * int | Duty of float * float | Timing of float

let gen_call =
  QCheck2.Gen.(
    oneof
      [
        map3 (fun slot time v -> Sensor (slot, time, v)) (int_range 0 1)
          gen_time (int_range 0 65535);
        map2 (fun time u -> Duty (time, u)) gen_time (float_range (-1.5) 1.5);
        map (fun time -> Timing time) gen_time;
      ])

(* A kind {!Fault_inject.draws} calls non-drawing must give every seed
   the same answers: campaigns simulate such a run once and hand it to
   every seed. The quiet MCU query must agree with the recording ones. *)
let prop_non_drawing_seed_free =
  QCheck2.Test.make ~name:"non-drawing kinds answer every seed alike"
    ~count:300
    QCheck2.Gen.(
      triple (list_size (int_range 1 4) gen_fault)
        (list_size (int_range 1 60) gen_call)
        (pair (int_range 1 1000) (int_range 1 1000)))
    (fun (faults, calls, (s1, d)) ->
      let faults =
        List.filter (fun f -> not (Fault_inject.draws f.Fault.kind)) faults
      in
      let answers seed =
        let inj = Fault_inject.arm ~seed (scn faults) in
        List.map
          (function
            | Sensor (slot, time, v) ->
                `I (Fault_inject.sensor inj ~slot ~time v)
            | Duty (time, u) -> `F (Fault_inject.duty inj ~time u)
            | Timing time ->
                let quiet = Fault_inject.replay_timing inj ~time in
                let n = Fault_inject.overrun_cycles inj ~time in
                let lost = Fault_inject.wdog_suppressed inj ~time in
                if quiet <> (n, lost) then QCheck2.Test.fail_report "replay_timing";
                `T quiet)
          calls
      in
      answers s1 = answers (s1 + d))

let test_unarmed_identity () =
  (* an empty scenario arms nothing at all *)
  check_bool "empty scenario installs no hook" true
    (Fault_inject.sim_hook
       (Fault_inject.arm (scn []))
       ~sensor_ports:[||] ()
    = []);
  (* a hook whose windows never open must not perturb the trace *)
  let final_speed armed =
    let scenario =
      scn [ Fault.make ~at:10.0 ~duration:0.1 Fault.Sensor_dropout ]
    in
    let subject, _ = Servo_system.faultsim_subject ~scenario () in
    if armed then ignore (Fault_campaign.arm subject scenario)
    else Fault_campaign.disarm subject;
    for _ = 1 to 300 do
      Sim.step subject.Fault_campaign.sim
    done;
    Value.to_float
      (Sim.value subject.Fault_campaign.sim
         subject.Fault_campaign.ports.Fault_campaign.speed_port)
  in
  let w_off = final_speed false and w_on = final_speed true in
  check_bool "armed-but-idle hook is bit-identical" true (w_off = w_on)

(* ---- the planned MIL step: allocation budget and hooked ports ---- *)

let builtin name =
  match Fault_scenario.builtin name with
  | Some s -> s
  | None -> Alcotest.failf "no builtin scenario %s" name

(* run [f] with span and flight recording off, restoring both after *)
let quiet f =
  let obs = Obs.enabled () and fl = Flight.enabled () in
  if obs then Obs.set_enabled false;
  Flight.set_enabled false;
  Fun.protect
    ~finally:(fun () ->
      if obs then Obs.set_enabled true;
      Flight.set_enabled fl)
    f

(* minor words per [Sim.step] on the faultsim subject: 2000 steps after
   a 100-step warm-up, so the run crosses the 0.9 s fault window *)
let words_per_step ?armed () =
  let scenario = Option.value armed ~default:(scn []) in
  let subject, _ = Servo_system.faultsim_subject ~scenario () in
  (match armed with
  | Some s -> ignore (Fault_campaign.arm subject s)
  | None -> Fault_campaign.disarm subject);
  let sim = subject.Fault_campaign.sim in
  quiet (fun () ->
      for _ = 1 to 100 do
        Sim.step sim
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to 2000 do
        Sim.step sim
      done;
      (Gc.minor_words () -. w0) /. 2000.0)

let test_step_allocation () =
  let unarmed = words_per_step () in
  let armed = words_per_step ~armed:(builtin "sensor-stuck") () in
  (* measured 1043 words with OCaml 5.1 (RK4, 5 sub-steps: 20 derivative
     stages per step), nearly all of it the behaviours' fresh output and
     derivative arrays; a step that re-derived its inputs, arities and
     continuous order every call allocated 3356 *)
  let budget = Float.min (1.25 *. 1043.0) (3356.0 /. 2.0) in
  if unarmed > budget then
    Alcotest.failf "unarmed step allocates %.0f minor words, budget %.0f"
      unarmed budget;
  if Float.abs (armed -. unarmed) > 0.1 *. unarmed then
    Alcotest.failf "armed (sensor-stuck) step allocates %.0f words, unarmed %.0f"
      armed unarmed

(* minor words per [Silvm_diff.run] lock-step on servo [--opt] (MIL
   step, compiled SIL step, compare, PIL plant): the difference of a
   6000- and a 1000-step run, after a warm-up run that fills the
   compile cache *)
let words_per_lockstep () =
  let subject steps =
    match
      Diff_subject.make ~config:Servo_system.default_config ~steps ~opt:true
        "servo"
    with
    | Ok s -> s
    | Error _ -> Alcotest.fail "no servo diff subject"
  in
  let words steps =
    let s = subject steps in
    let w0 = Gc.minor_words () in
    let r = Diff_subject.run s in
    let w = Gc.minor_words () -. w0 in
    check_bool "lock-step agrees" true (r.Silvm_diff.divergence = None);
    w
  in
  quiet (fun () ->
      ignore (words 10);
      let short = words 1000 in
      (words 6000 -. short) /. 5000.0)

let test_lockstep_allocation () =
  let w = words_per_lockstep () in
  (* measured 442 words with OCaml 5.1; the lock-step allocated 1366
     while the PIL plant rebuilt its state, RK4 closure and workspace
     every motor sub-step *)
  let budget = Float.min (1.25 *. 442.0) (1366.0 /. 3.0) in
  if w > budget then
    Alcotest.failf "a diff lock-step allocates %.0f minor words, budget %.0f" w
      budget

(* minor words per PIL period of the servo plant, through its driver as
   the lock-step uses it: read the sensors, apply the duty, advance *)
let test_pil_plant_allocation () =
  let b = Servo_system.build () in
  let plant = Servo_system.pil_plant b in
  let d = Servo_system.pil_driver b in
  let acts = [| 30000 |] in
  let period k =
    ignore (d.Pil_cosim.read_sensors plant ~time:(float_of_int k *. 1e-3));
    d.Pil_cosim.apply_actuators plant acts;
    d.Pil_cosim.advance plant ~dt:1e-3
  in
  for k = 0 to 99 do
    period k
  done;
  let w0 = Gc.minor_words () in
  for k = 100 to 2099 do
    period k
  done;
  let w = (Gc.minor_words () -. w0) /. 2000.0 in
  (* measured 153 words with OCaml 5.1, against 1055 for 8 fresh-state
     [Dc_motor.step] calls a period *)
  if w > 1055.0 /. 5.0 then
    Alcotest.failf "a PIL plant period allocates %.0f minor words, budget %.0f"
      w (1055.0 /. 5.0)

let test_hooked_ports () =
  let subject, built = Servo_system.faultsim_subject ~scenario:(scn []) () in
  let sim = subject.Fault_campaign.sim in
  let m = built.Servo_system.closed_loop in
  let qd = (Model.find m "ctl/qd", 0)
  and duty = (Model.find m "duty_junction", 0) in
  let calls = [| 0; 0 |] and seen = [| Value.F nan; Value.F nan |] in
  let counting slot ~time:_ v =
    calls.(slot) <- calls.(slot) + 1;
    seen.(slot) <- v;
    v
  in
  Sim.set_fault_hook sim [ (qd, counting 0); (duty, counting 1) ];
  let steps = 300 in
  for k = 1 to steps do
    Sim.step sim;
    check_int (Printf.sprintf "qd hook calls after step %d" k) k calls.(0);
    check_int (Printf.sprintf "duty hook calls after step %d" k) k calls.(1);
    (* each hook sees exactly its own port's writes *)
    check_bool "qd hook bound to ctl/qd" true (Sim.value sim qd == seen.(0));
    check_bool "duty hook bound to duty_junction" true
      (Sim.value sim duty == seen.(1))
  done;
  let rejects what hooks =
    match Sim.set_fault_hook sim hooks with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s accepted" what
  in
  let n_out = (Model.spec_of m (fst qd)).Block.n_out in
  rejects "port past n_out" [ ((fst qd, n_out), counting 0) ];
  rejects "negative port" [ ((fst qd, -1), counting 0) ];
  (* a block of a bigger model lies outside this one *)
  let big = Model.create "big" in
  let outside = ref (fst qd) in
  for _ = 0 to Model.n_blocks m do
    outside := Model.add big (Sources.constant 0.0)
  done;
  rejects "block outside the model" [ ((!outside, 0), counting 0) ];
  rejects "port hooked twice" [ (qd, counting 0); (qd, counting 1) ];
  (* a rejected install leaves the installed hooks in place *)
  Sim.step sim;
  check_int "hooks survive a rejected install" (steps + 1) calls.(0);
  Sim.set_fault_hook sim [];
  Sim.step sim;
  check_int "cleared hooks see nothing" (steps + 1) calls.(0);
  check_int "cleared duty hook sees nothing" (steps + 1) calls.(1)

(* ---- recovery campaigns on the servo loop ---- *)

let campaign ?(seeds = 2) name =
  let scenario =
    match Fault_scenario.find name with
    | Ok s -> s
    | Error e -> Alcotest.failf "scenario %s: %s" name e
  in
  let subject, _ = Servo_system.faultsim_subject ~scenario () in
  Fault_campaign.run ~seeds ~scenario subject

let test_campaign_dropout () =
  let r = campaign "encoder-dropout" in
  check_int "two runs" 2 (List.length r.Fault_campaign.runs);
  check_bool "all detected" true (Fault_campaign.all_detected r);
  check_bool "all recovered" true (Fault_campaign.all_recovered r);
  List.iter
    (fun run ->
      check_bool "left Nominal" true (run.Fault_campaign.max_mode >= 1);
      check_bool "spent steps degraded" true (run.Fault_campaign.steps_degraded > 0);
      (match run.Fault_campaign.detection_s with
      | Some d ->
          (* the wrapped count delta reads as a huge speed: range check
             fires within a few control periods *)
          check_bool "fast detection" true (d < 0.01)
      | None -> Alcotest.fail "no detection latency");
      (match run.Fault_campaign.recovery_s with
      | Some rt -> check_bool "recovers within 0.5 s" true (rt < 0.5)
      | None -> Alcotest.fail "no recovery time");
      check_bool "tracks the set-point again" true
        (run.Fault_campaign.residual_rms < 20.0))
    r.Fault_campaign.runs

(* the sharded campaign must reproduce the sequential one run-for-run:
   seeds are independent, results land in seed order, and each worker
   domain builds its own subject. Both bodies of the seed sweep are
   held to it: the MIL fault campaign and the MIL<->SIL diff. *)
let test_parallel_campaign_matches_sequential () =
  let scenario =
    match Fault_scenario.find "encoder-dropout" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let subject, _ = Servo_system.faultsim_subject ~scenario () in
  let seq = Fault_campaign.run ~t_end:0.4 ~seeds:6 ~scenario subject in
  let par =
    Exec_pool.with_pool ~workers:3 (fun pool ->
        Fault_campaign.sweep ~t_end:0.4 ~seeds:6 ~pool ~scenario (fun () ->
            fst (Servo_system.faultsim_subject ~scenario ())))
  in
  check_int "same number of runs" 6 (List.length par.Fault_campaign.runs);
  check_bool "identical run lists" true
    (seq.Fault_campaign.runs = par.Fault_campaign.runs);
  check_int "same steps per run" seq.Fault_campaign.steps_per_run
    par.Fault_campaign.steps_per_run;
  (* The diff body. Its reports are seed-blind while MIL and SIL agree,
     and a dropout is not seeded at all, so the sweep runs the seeded
     noise burst, a divergence is forced inside it, and the forensics
     bundles, which carry each seed's perturbed sensor stream, are
     compared as well as the reports. *)
  let noise =
    match Fault_scenario.find "noise-burst" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let sweep_diffs ?pool () =
    Flight.reset ();
    let s =
      Seed_sweep.run ?pool ~seeds:6 ~track:"noise-burst" ~label:"diff"
        ~subject:(fun () ->
          Result.get_ok
            (Diff_subject.make ~config:Servo_system.default_config ~steps:1000
               ~scenario:noise "servo"))
        ~plan:ignore
        (fun () s seed -> Diff_subject.run ~seed s)
    in
    let reports =
      Array.to_list
        (Array.map
           (fun (seed, o) ->
             let r = Result.get_ok o.Supervise.result in
             (* the timing fields are the only schedule-dependent ones *)
             (seed, { r with Silvm_diff.mil_seconds = 0.0; sil_seconds = 0.0 }))
           s.Seed_sweep.outcomes)
    in
    (reports, Flight.captures_jsonl ())
  in
  Unix.putenv "ECSD_DIVERGE_AT" "950";
  Flight.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "ECSD_DIVERGE_AT" "";
      Flight.set_enabled false;
      Flight.reset ())
  @@ fun () ->
  let seq, seq_bundles = sweep_diffs () in
  let par, par_bundles =
    Exec_pool.with_pool ~workers:3 (fun pool -> sweep_diffs ~pool ())
  in
  check_int "diff: one report per seed" 6 (List.length par);
  check_bool "diff: identical report lists" true (seq = par);
  check_bool "diff: every seed diverged at the forced step" true
    (List.for_all
       (fun (_, r) ->
         match r.Silvm_diff.divergence with
         | Some d -> d.Silvm_diff.d_step = 950
         | None -> false)
       seq);
  check_int "diff: one bundle per seed" 6 (List.length (Flight.captures ()));
  check_bool "diff: identical bundles" true (seq_bundles = par_bundles)

(* run sizes are validated once, by the seed sweep and the diff
   subject: seeds >= 1, steps >= 0, a finite t_end of at least one
   step; anything else is a bad request raised before any run *)
let test_run_sizes_validated () =
  let scenario =
    match Fault_scenario.find "encoder-dropout" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let subject, _ = Servo_system.faultsim_subject ~scenario () in
  let bad what f =
    check_bool what true
      (match f () with
      | exception Supervise.Bad_request _ -> true
      | _ -> false)
  in
  let campaign ?t_end seeds () =
    Fault_campaign.run ?t_end ~seeds ~scenario subject
  in
  bad "seeds 0" (campaign 0);
  bad "seeds -3" (campaign (-3));
  bad "t_end -1" (campaign ~t_end:(-1.0) 2);
  bad "t_end nan" (campaign ~t_end:Float.nan 2);
  bad "t_end inf" (campaign ~t_end:Float.infinity 2);
  bad "t_end under one step" (campaign ~t_end:0.0001 2);
  (* 5e18 steps of 1 ms: past max_int, so the step count cannot be
     rounded, and the message must say so rather than blame finiteness *)
  (match campaign ~t_end:5e15 2 () with
  | exception Supervise.Bad_request msg ->
      check_bool "overlong t_end names the step limit" true
        (Astring_contains.contains msg "step limit")
  | _ -> Alcotest.fail "t_end 5e15 was accepted");
  check_int "t_end of ten steps" 10
    (campaign ~t_end:0.01 1 ()).Fault_campaign.steps_per_run;
  let built = ref 0 in
  bad "sweep seeds 0" (fun () ->
      Seed_sweep.run ~seeds:0 ~track:"t" ~label:"t"
        ~subject:(fun () -> incr built)
        ~plan:ignore
        (fun () () _ -> ()));
  check_int "rejected before any subject is built" 0 !built;
  let config = Servo_system.default_config in
  bad "diff steps -5" (fun () -> Diff_subject.make ~config ~steps:(-5) "servo");
  (match Diff_subject.make ~config ~steps:0 "isr-demo" with
  | Ok s ->
      check_string "isr-demo report name" "isr_demo" (Diff_subject.name s);
      check_int "zero steps run" 0 (Diff_subject.run s).Silvm_diff.steps_run
  | Error _ -> Alcotest.fail "isr-demo is a known model");
  check_bool "unknown model is a typed error" true
    (Diff_subject.make ~config "nosuch"
    = Error (Diff_subject.Unknown_model "nosuch"))

(* a fault on a port the subject does not hook is a bad request naming
   the fault and the slot count, not a campaign that injects nothing *)
let test_fault_ports_validated () =
  let subject, _ =
    Servo_system.faultsim_subject ~scenario:(scn []) ()
  in
  let no_duty =
    {
      subject with
      Fault_campaign.ports =
        { subject.Fault_campaign.ports with Fault_campaign.duty_port = None };
    }
  in
  List.iter
    (fun (subject, line, expect) ->
      let scenario =
        match Fault_scenario.of_string ~name:"t" line with
        | Ok s -> s
        | Error e -> Alcotest.failf "%s: %s" line e
      in
      match Fault_campaign.run ~t_end:0.01 ~seeds:1 ~scenario subject with
      | _ -> if expect <> None then Alcotest.failf "%s: accepted" line
      | exception Supervise.Bad_request msg -> (
          match expect with
          | None -> Alcotest.failf "%s: rejected (%s)" line msg
          | Some parts ->
              List.iter
                (fun part ->
                  check_bool
                    (Printf.sprintf "%s: %S names %S" line msg part)
                    true (contains part msg))
                parts))
    [
      (subject, "stuck at=0.9 duration=0.15 slot=99",
       Some [ "sensor-stuck@99"; "slot 99"; "1 sensor slot" ]);
      (subject, "noise at=0.9 duration=0.1 value=5 slot=1",
       Some [ "sensor-noise(+-5)@1"; "slot 1"; "1 sensor slot" ]);
      (subject, "dropout at=0.9 duration=0.1\nglitch at=0 duration=1 value=9 slot=2",
       Some [ "encoder-glitch(+-9)@2"; "slot 2" ]);
      (subject, "dropout at=0.9 duration=0.1 slot=0", None);
      (subject, "overrun at=0.9 duration=0.1 value=100 slot=7", None);
      (subject, "wdog-suppress at=0.9 duration=0.1 slot=3", None);
      (subject, "jam at=0.9 duration=0.1 value=1", None);
      (no_duty, "jam at=0.9 duration=0.1 value=1",
       Some [ "actuator-jam(1)"; "no duty port" ]);
      (no_duty, "saturation at=0.9 duration=0.1 value=0.5",
       Some [ "actuator-saturation(0.5)"; "no duty port" ]);
      (no_duty, "offset at=0.9 duration=0.1 value=3", None);
    ]

let test_campaign_stuck_reaches_safestop () =
  let r = campaign "sensor-stuck" in
  check_bool "all detected" true (Fault_campaign.all_detected r);
  check_bool "all recovered" true (Fault_campaign.all_recovered r);
  List.iter
    (fun run ->
      check_int "escalates to SafeStop" 2 run.Fault_campaign.max_mode;
      check_bool "spent steps safe-stopped" true
        (run.Fault_campaign.steps_safestop > 0))
    r.Fault_campaign.runs

let test_campaign_timing_faults_bite () =
  (* injected overruns stretch the step past the watchdog budget *)
  let r = campaign ~seeds:1 "overrun-burst" in
  check_bool "overruns detected" true (Fault_campaign.all_detected r);
  List.iter
    (fun run -> check_bool "watchdog bit" true (run.Fault_campaign.wdog_bites > 0))
    r.Fault_campaign.runs;
  let r = campaign ~seeds:1 "wdog-suppress" in
  check_bool "lost service detected" true (Fault_campaign.all_detected r);
  List.iter
    (fun run -> check_bool "watchdog bit" true (run.Fault_campaign.wdog_bites > 0))
    r.Fault_campaign.runs

let test_campaign_json () =
  let r = campaign ~seeds:2 "noise-burst" in
  let doc = Fault_campaign.to_json ~model:"servo" r in
  let text = Bench_json.to_string doc in
  let j = Bench_json.parse text in
  let str k = match Bench_json.member k j with
    | Some (Bench_json.Str s) -> s
    | _ -> Alcotest.failf "missing %s" k
  in
  check_string "schema" "ecsd-fault-1" (str "schema");
  check_string "model" "servo" (str "model");
  check_string "scenario" "noise-burst" (str "scenario");
  (match Bench_json.member "runs" j with
  | Some (Bench_json.Arr rows) -> check_int "rows" 2 (List.length rows)
  | _ -> Alcotest.fail "runs missing");
  (match Bench_json.member "all_recovered" j with
  | Some (Bench_json.Bool _) -> ()
  | _ -> Alcotest.fail "all_recovered missing")

(* ---- MIL vs SIL stays bit-exact through a fault transient ---- *)

let test_diff_under_fault () =
  let b =
    Servo_system.build
      ~config:{ Servo_system.default_config with Servo_system.with_supervisor = true }
      ()
  in
  let comp = Compile.compile b.Servo_system.controller in
  let plant = Servo_system.pil_plant b in
  let driver = Servo_system.pil_driver b in
  let scenario =
    match Fault_scenario.find "noise-burst" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let injector = Diff_subject.injector scenario ~seed:7 in
  let r =
    Silvm_diff.run ~steps:1200 ~plant:(Silvm_diff.Plant (plant, driver))
      ~injector ~name:"servo" ~project:b.Servo_system.project comp
  in
  (match r.Silvm_diff.divergence with
  | None -> ()
  | Some d ->
      Alcotest.failf "diverged under fault at step %d %s:%d (MIL %s, SIL %s; %s)"
        d.Silvm_diff.d_step d.Silvm_diff.d_block d.Silvm_diff.d_port
        d.Silvm_diff.d_mil d.Silvm_diff.d_sil
        (String.concat ", " d.Silvm_diff.d_faults));
  check_int "ran every step" 1200 r.Silvm_diff.steps_run

(* ---- deployment-side watchdog behaviour ---- *)

let test_wdog_rearm () =
  let machine = Machine.create Mcu_db.mc56f8367 in
  let wd = Wdog_periph.create machine ~timeout:1e-3 () in
  Wdog_periph.enable wd;
  let half = Machine.cycles_of_time machine 0.5e-3 in
  Machine.advance machine ~cycles:(4 * half);
  let n1 = Wdog_periph.bites wd in
  check_bool "starved watchdog bites" true (n1 >= 1);
  (* serviced twice per timeout: the re-armed countdown never expires *)
  for _ = 1 to 8 do
    Wdog_periph.refresh wd;
    Machine.advance machine ~cycles:half
  done;
  check_int "no bites while serviced" n1 (Wdog_periph.bites wd);
  Machine.advance machine ~cycles:(4 * half);
  check_bool "bites again after re-arm" true (Wdog_periph.bites wd > n1)

let test_hil_wdog_under_injected_overruns () =
  let cfg = Servo_system.default_config in
  let b = Servo_system.build ~config:cfg () in
  let comp = Compile.compile b.Servo_system.controller in
  let arts = Target.generate ~name:"servo" ~project:b.Servo_system.project comp in
  let run ?overrun_inject () =
    let controller = Sim.create (Compile.compile b.Servo_system.controller) in
    Hil_cosim.servo_run ~watchdog:3e-3 ?overrun_inject
      ~built_mcu:cfg.Servo_system.mcu ~schedule:arts.Target.schedule ~controller
      ~motor:cfg.Servo_system.motor ~load:cfg.Servo_system.load
      ~encoder:(Encoder.create ~lines_per_rev:cfg.Servo_system.encoder_lines ())
      ~periods:300 ()
  in
  let clean = run () in
  check_int "no bites uninjected" 0
    clean.Hil_cosim.profile.Hil_cosim.watchdog_bites;
  (* a 100-period burst of +4 ms per step starves a 3 ms watchdog *)
  let cycles_4ms = 4 * 60_000 in
  let faulted =
    run ~overrun_inject:(fun k -> if k >= 100 && k < 200 then cycles_4ms else 0) ()
  in
  let p = faulted.Hil_cosim.profile in
  check_bool "injected overruns recorded" true (p.Hil_cosim.overruns > 0);
  check_bool "watchdog bites under overrun burst" true
    (p.Hil_cosim.watchdog_bites > 0)

(* ---- CON004 ---- *)

let test_con004 () =
  (* a watchdog bean nobody services *)
  let p = Bean_project.create Mcu_db.mc56f8367 in
  let _wd = Bean_project.add p (Bean.make ~name:"WD1" (Bean.Watch_dog { timeout = 8e-3 })) in
  let m = Model.create "wd_orphan" in
  let c = Model.add m ~name:"c" (Sources.constant 1.0) in
  let g = Model.add m ~name:"g" (Math_blocks.gain 2.0) in
  Model.connect m ~src:(c, 0) ~dst:(g, 0);
  let comp = Compile.compile m in
  (match Concurrency.watchdog_findings ~project:p comp with
  | [ f ] ->
      check_string "rule" "CON004" f.Diag.rule;
      check_string "subject" "WD1" f.Diag.subject;
      check_bool "severity error" true (f.Diag.severity = Diag.Error)
  | fs -> Alcotest.failf "expected one CON004, got %d" (List.length fs));
  (* the supervisor services WD1 from the periodic step: clean *)
  let b =
    Servo_system.build
      ~config:{ Servo_system.default_config with Servo_system.with_supervisor = true }
      ()
  in
  let comp = Compile.compile b.Servo_system.controller in
  check_int "supervised servo passes" 0
    (List.length
       (Concurrency.watchdog_findings ~project:b.Servo_system.project comp))

let suite =
  [
    Alcotest.test_case "fault windows" `Quick test_fault_window;
    Alcotest.test_case "scenario parse" `Quick test_scenario_parse;
    Alcotest.test_case "scenario errors" `Quick test_scenario_errors;
    Alcotest.test_case "scenario bad values" `Quick test_scenario_bad_values;
    Alcotest.test_case "example scenarios parse" `Quick test_example_scenarios;
    Alcotest.test_case "builtin scenarios" `Quick test_builtins;
    Alcotest.test_case "injector: sensor kinds" `Quick test_injector_sensor;
    Alcotest.test_case "injector: seeds and actuators" `Quick
      test_injector_determinism;
    Alcotest.test_case "injector: cache matches Fault.active" `Quick
      test_injector_cache_equivalence;
    QCheck_alcotest.to_alcotest prop_non_drawing_seed_free;
    Alcotest.test_case "unarmed hooks are identity" `Quick test_unarmed_identity;
    Alcotest.test_case "MIL step allocation budget" `Quick test_step_allocation;
    Alcotest.test_case "diff lock-step allocation budget" `Quick
      test_lockstep_allocation;
    Alcotest.test_case "PIL plant allocation budget" `Quick
      test_pil_plant_allocation;
    Alcotest.test_case "fault hooks see only their ports" `Quick
      test_hooked_ports;
    Alcotest.test_case "campaign: encoder dropout recovers" `Quick
      test_campaign_dropout;
    Alcotest.test_case "campaign: parallel matches sequential" `Quick
      test_parallel_campaign_matches_sequential;
    Alcotest.test_case "campaign: run sizes validated" `Quick
      test_run_sizes_validated;
    Alcotest.test_case "campaign: fault ports validated" `Quick
      test_fault_ports_validated;
    Alcotest.test_case "campaign: stuck sensor reaches SafeStop" `Quick
      test_campaign_stuck_reaches_safestop;
    Alcotest.test_case "campaign: timing faults bite the watchdog" `Quick
      test_campaign_timing_faults_bite;
    Alcotest.test_case "campaign: JSON roundtrip" `Quick test_campaign_json;
    Alcotest.test_case "MIL vs SIL bit-exact under fault" `Quick
      test_diff_under_fault;
    Alcotest.test_case "watchdog re-arms after bite" `Quick test_wdog_rearm;
    Alcotest.test_case "HIL watchdog bites under injected overruns" `Quick
      test_hil_wdog_under_injected_overruns;
    Alcotest.test_case "CON004 watchdog service path" `Quick test_con004;
  ]

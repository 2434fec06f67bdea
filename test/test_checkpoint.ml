(* Checkpointed campaigns: [Sim.save]/[Sim.restore] step on
   bit-identically (random diagrams and the servo faultsim subject),
   [Sim.save] refuses a behaviour it cannot save, a re-recorded Flight
   segment reads as recorded afresh, and every built-in scenario's
   campaign rows, counters and bundles are pinned bit for bit while each
   domain simulates once the stretch every seed shares. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let builtin name = Option.get (Fault_scenario.builtin name)

let bits = function
  | Value.F x -> Int64.bits_of_float x
  | Value.I (_, n) -> Int64.of_int n
  | Value.B b -> if b then 1L else 0L
  | Value.X f -> Int64.of_int (Fixed.raw f)

let all_ports m =
  List.concat_map
    (fun b -> List.init (Model.spec_of m b).Block.n_out (fun p -> (b, p)))
    (Model.blocks m)

(* the time and every output port's bits after each of [n] steps *)
let run_bits sim ports n =
  List.init n (fun _ ->
      Sim.step sim;
      Int64.bits_of_float (Sim.time sim)
      :: List.map (fun p -> bits (Sim.value sim p)) ports)

(* k steps, save, m steps; then restore and m steps, twice *)
let replays sim ports ~k ~m =
  for _ = 1 to k do
    Sim.step sim
  done;
  let sn = Sim.save sim in
  let first = run_bits sim ports m in
  Sim.restore sim sn;
  let second = run_bits sim ports m in
  Sim.restore sim sn;
  let third = run_bits sim ports m in
  first = second && second = third

let prop_random_models_restore =
  QCheck2.Test.make ~name:"save/restore replays random diagrams bit for bit"
    ~count:60
    QCheck2.Gen.(
      quad (int_range 1 10000) (int_range 1 25) (int_range 0 60)
        (int_range 1 40))
    (fun (seed, size, k, m) ->
      let model = Test_model_fuzz.random_dag ~seed ~size in
      let sim = Sim.create (Compile.compile ~default_dt:0.01 model) in
      replays sim (all_ports model) ~k ~m)

(* armed with a fault whose hooks draw nothing, so a replay across the
   0.9 s window exercises the supervisor and the mode chart too *)
let prop_servo_restore =
  let servo =
    lazy
      (let scenario = Option.get (Fault_scenario.builtin "encoder-dropout") in
       let subject, built = Servo_system.faultsim_subject ~scenario () in
       ignore (Fault_campaign.arm subject scenario);
       (subject.Fault_campaign.sim, all_ports built.Servo_system.closed_loop))
  in
  QCheck2.Test.make ~name:"save/restore replays the servo faultsim subject"
    ~count:12
    QCheck2.Gen.(pair (int_range 0 1300) (int_range 1 300))
    (fun (k, m) ->
      let sim, ports = Lazy.force servo in
      Sim.reset sim;
      replays sim ports ~k ~m)

(* the case study's mode chart, toggled by a button every second:
   snapshots taken in either mode, with the button up or down, replay
   across later toggles *)
let test_mode_chart_restore () =
  let m = Model.create "modes" in
  let btn =
    Model.add m ~name:"btn" (Sources.pulse ~period:1.0 ~duty:0.2 ~amp:1.0 ())
  in
  let chart =
    Model.add m ~name:"chart"
      (Chart_block.block ~kind:"ModeChart" ~n_in:1 ~n_out:1 ~period:0.1
         Servo_system.mode_chart_factory)
  in
  Model.connect m ~src:(btn, 0) ~dst:(chart, 0);
  let sim = Sim.create (Compile.compile m) in
  List.iter
    (fun k ->
      Sim.reset sim;
      check_bool
        (Printf.sprintf "replay from step %d" k)
        true
        (replays sim (all_ports m) ~k ~m:25))
    [ 0; 1; 9; 11; 14 ]

let counter_spec ~saveable =
  {
    (Sources.constant 0.0) with
    Block.kind = "Counter";
    sample = Sample_time.discrete 0.1;
    make =
      (fun _ctx ->
        let k = ref 0 in
        let beh =
          {
            Block.no_beh_state with
            out =
              (fun ~minor ~time:_ _ ->
                if not minor then incr k;
                [| Value.F (float_of_int !k) |]);
            reset = (fun () -> k := 0);
          }
        in
        if saveable then
          { beh with save = (fun () -> let v = !k in fun () -> k := v) }
        else beh);
  }

let counter_sim ~saveable =
  let m = Model.create "counter" in
  ignore (Model.add m ~name:"ctr" (counter_spec ~saveable));
  Sim.create (Compile.compile ~default_dt:0.1 m)

let test_save_refuses_unsaveable () =
  (match Sim.save (counter_sim ~saveable:false) with
  | _ -> Alcotest.fail "Sim.save accepted a block that cannot save its state"
  | exception Invalid_argument msg ->
      check_bool "names the block" true (Astring_contains.contains msg "ctr"));
  let sim = counter_sim ~saveable:true in
  Sim.run sim ~until:0.5 ();
  let sn = Sim.save sim in
  Sim.run sim ~until:1.0 ();
  Sim.restore sim sn;
  Alcotest.(check (float 0.0)) "time restored" 0.5 (Sim.time sim);
  Alcotest.(check (float 0.0)) "state restored" 5.0
    (Value.to_float (Sim.value_named sim "ctr" 0));
  match Sim.restore (counter_sim ~saveable:true) sn with
  | () -> Alcotest.fail "restored a snapshot into another simulation"
  | exception Invalid_argument _ -> ()

(* a segment replayed under another track gives the bundle that track
   would have had recording the events itself, inside and past the
   ring's capacity *)
let test_flight_replay () =
  let stretch n =
    for i = 0 to n - 1 do
      Flight.step_mark ~step:i ~time:(float_of_int i) "servo";
      if i mod 3 = 0 then
        Flight.signal ~step:i ~time:(float_of_int i) ~port:1
          ~value:(float_of_int (i * i)) "speed"
    done
  in
  let strip (b : Flight.bundle) =
    ( b.b_dropped,
      List.map (fun e -> { e with Flight.ev_track = 0 }) b.b_events )
  in
  List.iter
    (fun (capacity, n) ->
      Flight.reset ();
      Flight.set_capacity capacity;
      Flight.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Flight.set_enabled false;
          Flight.set_capacity 4096;
          Flight.reset ())
      @@ fun () ->
      let run id body =
        Flight.begin_track ~id ~name:"t";
        Flight.mark "arm";
        body ();
        Flight.mark ~step:n "onset";
        stretch 5;
        Flight.capture ~reason:"r"
      in
      (* an earlier, longer recording of track 1 stays on the ring *)
      Flight.begin_track ~id:1 ~name:"t";
      stretch (2 * n);
      let seg = ref None in
      run 1 (fun () ->
          let from = Flight.track_seq () in
          stretch n;
          seg := Some (Flight.since from));
      run 2 (fun () -> Flight.replay (Option.get !seg));
      run 3 (fun () -> stretch n);
      match Flight.captures () with
      | [ _; b2; b3 ] ->
          check_bool
            (Printf.sprintf "replayed = recorded (cap %d, %d events)" capacity n)
            true
            (strip b2 = strip b3)
      | bs -> Alcotest.failf "expected 3 bundles, got %d" (List.length bs))
    [ (4096, 100); (64, 100); (16, 7) ]

(* sensor-stuck draws nothing from the RNG, so the three seeds of an
   unrecovered 1 s campaign record the same events but for the arm
   label; seeds 2 and 3 restore seed 1's checkpoint at the end of the
   run and re-record all of it *)
let test_campaign_bundles () =
  let scenario = Option.get (Fault_scenario.builtin "sensor-stuck") in
  Flight.reset ();
  Flight.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Flight.set_enabled false;
      Flight.reset ())
  @@ fun () ->
  let r =
    Fault_campaign.sweep ~t_end:1.0 ~seeds:3 ~scenario (fun () ->
        fst (Servo_system.faultsim_subject ~scenario ()))
  in
  check_bool "unrecovered" false (Fault_campaign.all_recovered r);
  let strip (b : Flight.bundle) =
    ( b.b_dropped,
      List.map
        (fun e ->
          if e.Flight.ev_seq = 0 then { e with Flight.ev_track = 0; ev_label = "" }
          else { e with Flight.ev_track = 0 })
        b.b_events )
  in
  match Flight.captures () with
  | [ b1; b2; b3 ] ->
      check_bool "seed 1 recorded the prefix" true
        (List.length b1.Flight.b_events > 900);
      check_bool "seeds 2 and 3 read as recorded in full" true
        (strip b2 = strip b1 && strip b3 = strip b1)
  | bs -> Alcotest.failf "expected 3 bundles, got %d" (List.length bs)

(* Every run row of the seven built-in scenarios and the two
   examples/*.fault x 8 seeds (2 s), captured before any
   checkpointing: scenario, seed, detected,
   detection_s, recovered, recovery_s, steps degraded / safe-stopped,
   max mode, residual RMS, watchdog bites; floats as their bits. *)
let golden =
  [
    ("encoder-dropout", 1, true, Some 0x0000000000000000L, true, Some 0x3f9a9fbe76c8b440L, 141, 25, 2, 0x3fbd785b231a6a39L, 0);
    ("encoder-dropout", 2, true, Some 0x0000000000000000L, true, Some 0x3f9a9fbe76c8b440L, 141, 25, 2, 0x3fbd785b231a6a39L, 0);
    ("encoder-dropout", 3, true, Some 0x0000000000000000L, true, Some 0x3f9a9fbe76c8b440L, 141, 25, 2, 0x3fbd785b231a6a39L, 0);
    ("encoder-dropout", 4, true, Some 0x0000000000000000L, true, Some 0x3f9a9fbe76c8b440L, 141, 25, 2, 0x3fbd785b231a6a39L, 0);
    ("encoder-dropout", 5, true, Some 0x0000000000000000L, true, Some 0x3f9a9fbe76c8b440L, 141, 25, 2, 0x3fbd785b231a6a39L, 0);
    ("encoder-dropout", 6, true, Some 0x0000000000000000L, true, Some 0x3f9a9fbe76c8b440L, 141, 25, 2, 0x3fbd785b231a6a39L, 0);
    ("encoder-dropout", 7, true, Some 0x0000000000000000L, true, Some 0x3f9a9fbe76c8b440L, 141, 25, 2, 0x3fbd785b231a6a39L, 0);
    ("encoder-dropout", 8, true, Some 0x0000000000000000L, true, Some 0x3f9a9fbe76c8b440L, 141, 25, 2, 0x3fbd785b231a6a39L, 0);
    ("sensor-stuck", 1, true, Some 0x3f9db22d0e560420L, true, Some 0x3f9a9fbe76c8b440L, 117, 25, 2, 0x3fbd785b231a6a39L, 0);
    ("sensor-stuck", 2, true, Some 0x3f9db22d0e560420L, true, Some 0x3f9a9fbe76c8b440L, 117, 25, 2, 0x3fbd785b231a6a39L, 0);
    ("sensor-stuck", 3, true, Some 0x3f9db22d0e560420L, true, Some 0x3f9a9fbe76c8b440L, 117, 25, 2, 0x3fbd785b231a6a39L, 0);
    ("sensor-stuck", 4, true, Some 0x3f9db22d0e560420L, true, Some 0x3f9a9fbe76c8b440L, 117, 25, 2, 0x3fbd785b231a6a39L, 0);
    ("sensor-stuck", 5, true, Some 0x3f9db22d0e560420L, true, Some 0x3f9a9fbe76c8b440L, 117, 25, 2, 0x3fbd785b231a6a39L, 0);
    ("sensor-stuck", 6, true, Some 0x3f9db22d0e560420L, true, Some 0x3f9a9fbe76c8b440L, 117, 25, 2, 0x3fbd785b231a6a39L, 0);
    ("sensor-stuck", 7, true, Some 0x3f9db22d0e560420L, true, Some 0x3f9a9fbe76c8b440L, 117, 25, 2, 0x3fbd785b231a6a39L, 0);
    ("sensor-stuck", 8, true, Some 0x3f9db22d0e560420L, true, Some 0x3f9a9fbe76c8b440L, 117, 25, 2, 0x3fbd785b231a6a39L, 0);
    ("noise-burst", 1, true, Some 0x0000000000000000L, true, Some 0x3f9a9fbe76c8b440L, 226, 0, 1, 0x3fbdafffa4e93907L, 0);
    ("noise-burst", 2, true, Some 0x3f50624dd2f1aa00L, true, Some 0x3f9a9fbe76c8b440L, 225, 0, 1, 0x3fbda05c7dfb6e41L, 0);
    ("noise-burst", 3, true, Some 0x3f50624dd2f1aa00L, true, Some 0x3f989374bc6a7f00L, 223, 0, 1, 0x3fbda4e133f5967bL, 0);
    ("noise-burst", 4, true, Some 0x0000000000000000L, true, Some 0x3f9a9fbe76c8b440L, 226, 0, 1, 0x3fbdafffa4e93907L, 0);
    ("noise-burst", 5, true, Some 0x0000000000000000L, true, Some 0x3f99999999999980L, 225, 0, 1, 0x3fbd77722acfe799L, 0);
    ("noise-burst", 6, true, Some 0x3f50624dd2f1aa00L, true, Some 0x3f9a9fbe76c8b440L, 225, 0, 1, 0x3fbd8f099a6fdc11L, 0);
    ("noise-burst", 7, true, Some 0x0000000000000000L, true, Some 0x3f9a9fbe76c8b440L, 226, 0, 1, 0x3fbdaa0e8e630f58L, 0);
    ("noise-burst", 8, true, Some 0x0000000000000000L, true, Some 0x3f9a9fbe76c8b440L, 226, 0, 1, 0x3fbd556148733957L, 0);
    ("encoder-glitch", 1, true, Some 0x0000000000000000L, true, Some 0x3f9a9fbe76c8b440L, 226, 0, 1, 0x3fbddfa0cf4592d7L, 0);
    ("encoder-glitch", 2, true, Some 0x3f50624dd2f1aa00L, true, Some 0x3f947ae147ae1480L, 219, 0, 1, 0x3fbdba60e4382d4dL, 0);
    ("encoder-glitch", 3, true, Some 0x3f926e978d4fdf40L, true, Some 0x3f989374bc6a7f00L, 206, 0, 1, 0x3fbd8793d6cfdfb8L, 0);
    ("encoder-glitch", 4, true, Some 0x3f50624dd2f1aa00L, true, Some 0x3f7cac083126e900L, 206, 0, 1, 0x3fbd9079d44d9dc5L, 0);
    ("encoder-glitch", 5, true, Some 0x3f847ae147ae1480L, true, Some 0x3f96872b020c49c0L, 212, 0, 1, 0x3fbd91c93f8fa940L, 0);
    ("encoder-glitch", 6, true, Some 0x3f70624dd2f1aa00L, true, Some 0x3f95810624dd2f00L, 217, 0, 1, 0x3fbd68dabb204c35L, 0);
    ("encoder-glitch", 7, true, Some 0x3f60624dd2f1aa00L, true, Some 0x3f99999999999980L, 223, 0, 1, 0x3fbdb9a4a37eddafL, 0);
    ("encoder-glitch", 8, true, Some 0x3f60624dd2f1aa00L, true, Some 0x3f96872b020c49c0L, 220, 0, 1, 0x3fbdbae5134e291dL, 0);
    ("actuator-jam", 1, true, Some 0x3f789374bc6a7f00L, true, Some 0x3fadb22d0e560400L, 75, 177, 2, 0x3fbdb240256a7e5dL, 0);
    ("actuator-jam", 2, true, Some 0x3f789374bc6a7f00L, true, Some 0x3fadb22d0e560400L, 75, 177, 2, 0x3fbdb240256a7e5dL, 0);
    ("actuator-jam", 3, true, Some 0x3f789374bc6a7f00L, true, Some 0x3fadb22d0e560400L, 75, 177, 2, 0x3fbdb240256a7e5dL, 0);
    ("actuator-jam", 4, true, Some 0x3f789374bc6a7f00L, true, Some 0x3fadb22d0e560400L, 75, 177, 2, 0x3fbdb240256a7e5dL, 0);
    ("actuator-jam", 5, true, Some 0x3f789374bc6a7f00L, true, Some 0x3fadb22d0e560400L, 75, 177, 2, 0x3fbdb240256a7e5dL, 0);
    ("actuator-jam", 6, true, Some 0x3f789374bc6a7f00L, true, Some 0x3fadb22d0e560400L, 75, 177, 2, 0x3fbdb240256a7e5dL, 0);
    ("actuator-jam", 7, true, Some 0x3f789374bc6a7f00L, true, Some 0x3fadb22d0e560400L, 75, 177, 2, 0x3fbdb240256a7e5dL, 0);
    ("actuator-jam", 8, true, Some 0x3f789374bc6a7f00L, true, Some 0x3fadb22d0e560400L, 75, 177, 2, 0x3fbdb240256a7e5dL, 0);
    ("overrun-burst", 1, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f01e8fdb2ddL, 100);
    ("overrun-burst", 2, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f01e8fdb2ddL, 100);
    ("overrun-burst", 3, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f01e8fdb2ddL, 100);
    ("overrun-burst", 4, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f01e8fdb2ddL, 100);
    ("overrun-burst", 5, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f01e8fdb2ddL, 100);
    ("overrun-burst", 6, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f01e8fdb2ddL, 100);
    ("overrun-burst", 7, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f01e8fdb2ddL, 100);
    ("overrun-burst", 8, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f01e8fdb2ddL, 100);
    ("wdog-suppress", 1, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f01e8fdb2ddL, 12);
    ("wdog-suppress", 2, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f01e8fdb2ddL, 12);
    ("wdog-suppress", 3, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f01e8fdb2ddL, 12);
    ("wdog-suppress", 4, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f01e8fdb2ddL, 12);
    ("wdog-suppress", 5, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f01e8fdb2ddL, 12);
    ("wdog-suppress", 6, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f01e8fdb2ddL, 12);
    ("wdog-suppress", 7, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f01e8fdb2ddL, 12);
    ("wdog-suppress", 8, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f01e8fdb2ddL, 12);
    ("brownout", 1, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f1dc78d6365L, 12);
    ("brownout", 2, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f1dc78d6365L, 12);
    ("brownout", 3, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f1dc78d6365L, 12);
    ("brownout", 4, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f1dc78d6365L, 12);
    ("brownout", 5, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f1dc78d6365L, 12);
    ("brownout", 6, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f1dc78d6365L, 12);
    ("brownout", 7, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f1dc78d6365L, 12);
    ("brownout", 8, true, None, true, Some 0x0000000000000000L, 0, 0, 0, 0x3fbd9f1dc78d6365L, 12);
    ("encoder_dropout", 1, true, Some 0x0000000000000000L, true, Some 0x3f989374bc6a7f00L, 389, 25, 2, 0x3fbd785b231a6a39L, 0);
    ("encoder_dropout", 2, true, Some 0x0000000000000000L, true, Some 0x3f978d4fdf3b6440L, 388, 25, 2, 0x3fbd785b231a6a39L, 0);
    ("encoder_dropout", 3, true, Some 0x0000000000000000L, true, Some 0x3f99999999999980L, 390, 25, 2, 0x3fbd785b231a6a39L, 0);
    ("encoder_dropout", 4, true, Some 0x0000000000000000L, true, Some 0x3f96872b020c49c0L, 387, 25, 2, 0x3fbd785b231a6a39L, 0);
    ("encoder_dropout", 5, true, Some 0x0000000000000000L, true, Some 0x3f96872b020c49c0L, 387, 25, 2, 0x3fbd785b231a6a39L, 0);
    ("encoder_dropout", 6, true, Some 0x0000000000000000L, true, Some 0x3f978d4fdf3b6440L, 388, 25, 2, 0x3fbd785b231a6a39L, 0);
    ("encoder_dropout", 7, true, Some 0x0000000000000000L, true, Some 0x3f96872b020c49c0L, 387, 25, 2, 0x3fbd785b231a6a39L, 0);
    ("encoder_dropout", 8, true, Some 0x0000000000000000L, true, Some 0x3f8a9fbe76c8b400L, 378, 25, 2, 0x3fbd785b231a6a39L, 0);
  ]

let row scenario (x : Fault_campaign.run_result) =
  ( scenario,
    x.seed,
    x.detected,
    Option.map Int64.bits_of_float x.detection_s,
    x.recovered,
    Option.map Int64.bits_of_float x.recovery_s,
    x.steps_degraded,
    x.steps_safestop,
    x.max_mode,
    Int64.bits_of_float x.residual_rms,
    x.wdog_bites )

let campaign ?pool ?(t_end = 2.0) ?(seeds = 8) scenario =
  Fault_campaign.sweep ~t_end ~seeds ?pool ~scenario (fun () ->
      fst (Servo_system.faultsim_subject ~scenario ()))

let check_golden (r : Fault_campaign.result) =
  let name = r.scenario.Fault_scenario.sname in
  let expected =
    List.filter (fun (s, _, _, _, _, _, _, _, _, _, _) -> s = name) golden
  in
  Alcotest.(check int) (name ^ ": runs") (List.length expected)
    (List.length r.runs);
  List.iter2
    (fun e (x : Fault_campaign.run_result) ->
      if row name x <> e then
        Alcotest.failf "%s seed %d: run row differs from the golden bits" name
          x.seed)
    expected r.runs

let test_campaign_golden () =
  List.iter (fun s -> check_golden (campaign s)) Fault_scenario.builtins

let example name =
  match Fault_scenario.load ("../examples/" ^ name ^ ".fault") with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let fault_counters =
  List.map Obs.counter
    [
      "fault.sensor_perturbations";
      "fault.actuator_perturbations";
      "fault.injected_overrun_periods";
      "fault.wdog_clears_suppressed";
    ]

(* [f ()] with metrics on: its result, the [sim.steps] it added and the
   four [fault.*] counts it added *)
let counting f =
  let steps = Obs.counter "sim.steps" in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      let read () = List.map Obs.counter_value (steps :: fault_counters) in
      let before = read () in
      let r = f () in
      match List.map2 ( - ) (read ()) before with
      | n :: faults -> (r, n, faults)
      | [] -> assert false)

(* 8 seeds x 2000 steps: a run is shared by every seed up to the first
   step at which a noise or glitch fault draws (0.9 s), so the five
   scenarios that never draw simulate one run per domain, and the two
   that do 2000 + 7 x 1100 steps. The fault.* counters (sensor,
   actuator, overrun, wdog) are those of simulating every step, at
   --jobs 1 and under a pool. *)
let test_prefix_simulated_once () =
  List.iter
    (fun (scenario, max_steps, faults) ->
      let name = scenario.Fault_scenario.sname in
      let r, n, counted = counting (fun () -> campaign scenario) in
      check_golden r;
      if n > max_steps then
        Alcotest.failf "%s: 8-seed campaign ran %d Sim steps (> %d)" name n
          max_steps;
      Alcotest.(check (list int)) (name ^ ": fault counters") faults counted;
      Exec_pool.with_pool ~workers:2 (fun pool ->
          let r, _, counted = counting (fun () -> campaign ~pool scenario) in
          check_golden r;
          Alcotest.(check (list int))
            (name ^ ": fault counters, 2 workers")
            faults counted))
    [
      (builtin "encoder-dropout", 2000, [ 1208; 0; 0; 0 ]);
      (builtin "sensor-stuck", 2000, [ 1208; 0; 0; 0 ]);
      (builtin "noise-burst", 9700, [ 1608; 0; 0; 0 ]);
      (builtin "encoder-glitch", 9700, [ 311; 0; 0; 0 ]);
      (builtin "actuator-jam", 2000, [ 0; 1608; 0; 0 ]);
      (builtin "overrun-burst", 2000, [ 0; 0; 800; 0 ]);
      (builtin "wdog-suppress", 2000, [ 0; 0; 0; 800 ]);
      (example "brownout", 2000, [ 0; 0; 960; 256 ]);
      (example "encoder_dropout", 2000 + (7 * 949), [ 3208; 0; 0; 0 ]);
    ]

(* encoder_dropout.fault: a dropout from 0.9 s, then noise from 1.05 s,
   so the checkpoint lands as the dropout clears and the noise fires.
   The 5 unrecovered 1.2 s runs' bundles are pinned by digest (taken
   before any checkpointing), at --jobs 1 and under a pool. *)
let test_mixed_capture_digest () =
  let scenario = example "encoder_dropout" in
  let digest ?pool () =
    Flight.reset ();
    Flight.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Flight.set_enabled false;
        Flight.reset ())
    @@ fun () ->
    ignore (campaign ?pool ~t_end:1.2 ~seeds:5 scenario);
    check_int "bundles" 5 (List.length (Flight.captures ()));
    Digest.to_hex (Digest.string (Flight.captures_jsonl ()))
  in
  let golden = "e2bb1d0ed8b41ad2f288a7d3ce570529" in
  Alcotest.(check string) "bundle digest" golden (digest ());
  Exec_pool.with_pool ~workers:2 (fun pool ->
      Alcotest.(check string) "bundle digest, 2 workers" golden (digest ~pool ()))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_random_models_restore;
    QCheck_alcotest.to_alcotest prop_servo_restore;
    Alcotest.test_case "mode chart block replays across toggles" `Quick
      test_mode_chart_restore;
    Alcotest.test_case "Sim.save refuses an unsaveable block" `Quick
      test_save_refuses_unsaveable;
    Alcotest.test_case "flight segment replays as recorded" `Quick
      test_flight_replay;
    Alcotest.test_case "campaign bundles: prefix re-recorded" `Quick
      test_campaign_bundles;
    Alcotest.test_case "campaign rows: golden bits, 7 scenarios x 8 seeds"
      `Quick test_campaign_golden;
    Alcotest.test_case "campaign: fault-free prefix simulated once" `Quick
      test_prefix_simulated_once;
    Alcotest.test_case "campaign: mixed scenario bundles pinned" `Quick
      test_mixed_capture_digest;
  ]

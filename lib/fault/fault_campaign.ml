(* Campaign runner: per-seed faulted runs of a MIL closed loop with a
   virtual MCU + watchdog alongside, reduced to recovery metrics. *)

type ports = {
  sensor_ports : (Model.blk * int) array;
  duty_port : (Model.blk * int) option;
  mode_port : Model.blk * int;
  speed_port : Model.blk * int;
  setpoint_port : (Model.blk * int) option;
}

type subject = { sim : Sim.t; ports : ports; mcu : Mcu_db.t }

type run_result = {
  seed : int;
  detected : bool;
  detection_s : float option;
  recovered : bool;
  recovery_s : float option;
  steps_degraded : int;
  steps_safestop : int;
  max_mode : int;
  residual_rms : float;
  wdog_bites : int;
}

type result = {
  scenario : Fault_scenario.t;
  t_end : float;
  period : float;
  runs : run_result list;
  failures : (int * Supervise.error) list;
      (* supervised mode: seeds whose run ended in an error record
         instead of metrics, sorted by seed *)
  retries_total : int;
  steps_per_run : int;
  wall_s : float;
}

let arm subject ?seed scn =
  let inj = Fault_inject.arm ?seed scn in
  Sim.set_fault_hook subject.sim
    (Fault_inject.sim_hook inj ~sensor_ports:subject.ports.sensor_ports
       ?duty_port:subject.ports.duty_port ());
  inj

let disarm subject = Sim.set_fault_hook subject.sim []

(* The recovery metrics, folded as the run goes: O(1) memory in the
   horizon, and the tail sum of squares in the same order as a post-hoc
   pass over the last [tail] steps. *)
type metrics = {
  mutable first_nz : int;  (* first non-nominal step at or after onset *)
  mutable last_nz : int;  (* last non-nominal step *)
  mutable n_degraded : int;
  mutable n_safestop : int;
  mutable max_mode : int;
  mutable sq : float;  (* tail sum of squared control error *)
}

(* A run is the same bits for every seed up to the first step at which a
   fault that samples the injector's RNG is on ({!Fault_inject.draws}):
   load faults are part of the subject, and every other kind is a
   function of time alone. The first seed a domain runs leaves a
   checkpoint at that step — at the end of a run that never draws — and
   every later seed there restores it instead of simulating the shared
   stretch again. What the stretch changed is all here, except the
   virtual MCU, which is cheap to re-advance. *)
type checkpoint = {
  ck_sim : Sim.t;
  ck_scenario : Fault_scenario.t;
  ck_steps : int;  (* with the two above, fixes the stretch *)
  ck_prefix : int;  (* steps in the shared stretch *)
  ck_state : Sim.snapshot;
  ck_metrics : metrics;
  ck_inj : Fault_inject.saved;
  ck_flight : Flight.segment;  (* the stretch's events, after the arm *)
}

let one_run slot subject ~scenario ~seed ~steps ~period ~t_end ~wdog_timeout =
  let sim = subject.sim in
  let inj = arm subject ~seed scenario in
  let flight_from = Flight.track_seq () in
  let machine = Machine.create subject.mcu in
  let wdog = Wdog_periph.create machine ~timeout:wdog_timeout () in
  Wdog_periph.enable wdog;
  let period_cycles = Machine.cycles_of_time machine period in
  (* the virtual MCU lives the same period, stretched by any injected
     overrun; the watchdog is serviced at the end of the step unless
     the scenario eats the service call *)
  let advance extra lost =
    Machine.advance machine ~cycles:(period_cycles + extra);
    if not lost then Wdog_periph.refresh wdog
  in
  let mcu_step time =
    let extra = Fault_inject.overrun_cycles inj ~time in
    advance extra (Fault_inject.wdog_suppressed inj ~time)
  in
  let onset = Fault_scenario.onset scenario in
  let first_draw = Fault_scenario.onset ~only:Fault_inject.draws scenario in
  let clear = Fault_scenario.clear_time scenario ~horizon:t_end in
  let onset_step = max 0 (int_of_float (onset /. period)) in
  let tail = max 1 (steps / 8) in
  let tail_start = steps - tail in
  let m, start, fresh =
    match !slot with
    | Some ck
      when ck.ck_sim == sim && ck.ck_scenario == scenario && ck.ck_steps = steps
      ->
        let time = ref 0.0 in
        for _ = 1 to ck.ck_prefix do
          let extra, lost = Fault_inject.replay_timing inj ~time:!time in
          advance extra lost;
          time := !time +. period
        done;
        Flight.replay ck.ck_flight;
        Fault_inject.restore inj ck.ck_inj;
        Sim.restore sim ck.ck_state;
        ({ ck.ck_metrics with sq = ck.ck_metrics.sq }, ck.ck_prefix, false)
    | _ ->
        Sim.reset sim;
        ( {
            first_nz = -1;
            last_nz = -1;
            n_degraded = 0;
            n_safestop = 0;
            max_mode = 0;
            sq = 0.0;
          },
          0,
          true )
  in
  (* a run that checkpoints hands its checkpoint over only once it has
     completed: a failed or cancelled one leaves none *)
  let built = ref None in
  let checkpoint k =
    built :=
      Some
        {
          ck_sim = sim;
          ck_scenario = scenario;
          ck_steps = steps;
          ck_prefix = k;
          ck_state = Sim.save sim;
          ck_metrics = { m with sq = m.sq };
          ck_inj = Fault_inject.save inj;
          ck_flight = Flight.since flight_from;
        }
  in
  for k = start to steps - 1 do
    (* supervision fuel point (Sim.step polls too; this one covers the
       MCU/watchdog half of the loop) *)
    Cancel.poll ();
    let time = Sim.time sim in
    if fresh && Option.is_none !built && time >= first_draw then checkpoint k;
    Sim.step sim;
    mcu_step time;
    let mode = int_of_float (Value.to_float (Sim.value sim subject.ports.mode_port)) in
    if mode > 0 then begin
      if m.first_nz < 0 && k >= onset_step then m.first_nz <- k;
      m.last_nz <- k
    end;
    if mode = 1 then m.n_degraded <- m.n_degraded + 1
    else if mode = 2 then m.n_safestop <- m.n_safestop + 1;
    if mode > m.max_mode then m.max_mode <- mode;
    if k >= tail_start then begin
      let speed = Value.to_float (Sim.value sim subject.ports.speed_port) in
      let sp =
        match subject.ports.setpoint_port with
        | Some p -> Value.to_float (Sim.value sim p)
        | None -> 0.0
      in
      let err = speed -. sp in
      m.sq <- m.sq +. (err *. err)
    end
  done;
  if fresh && Option.is_none !built then checkpoint steps;
  if Option.is_some !built then slot := !built;
  disarm subject;
  let detection_s =
    if m.first_nz < 0 then None
    else Some (Float.max 0.0 ((float_of_int m.first_nz *. period) -. onset))
  in
  let wdog_bites = Wdog_periph.bites wdog in
  let last_nz = m.last_nz in
  let recovered, recovery_s =
    if last_nz < 0 then (true, Some 0.0)
    else if last_nz = steps - 1 then (false, None)
    else
      ( true,
        Some
          (Float.max 0.0 ((float_of_int (last_nz + 1) *. period) -. clear)) )
  in
  if (not recovered) && Flight.enabled () then
    Flight.capture
      ~reason:
        (Printf.sprintf "unrecovered run: scenario=%s seed=%d"
           scenario.Fault_scenario.sname seed);
  {
    seed;
    detected = detection_s <> None || wdog_bites > 0;
    detection_s;
    recovered;
    recovery_s;
    steps_degraded = m.n_degraded;
    steps_safestop = m.n_safestop;
    max_mode = m.max_mode;
    residual_rms = sqrt (m.sq /. float_of_int tail);
    wdog_bites;
  }

let sweep ?(t_end = 2.0) ?(seeds = 5) ?wdog_timeout ?on_run ?policy ?pool
    ~scenario mk_subject =
  let name = scenario.Fault_scenario.sname in
  (* the run sizes, from the subject's control period *)
  let plan subject =
    let period = Sim.base_dt subject.sim in
    if not (Float.is_finite t_end) then
      Seed_sweep.bad_request "t_end must be finite, got %g" t_end;
    (* rounding a ratio past [max_int] to int would overflow *)
    let ratio = (t_end /. period) +. 0.5 in
    if ratio >= float_of_int max_int then
      Seed_sweep.bad_request
        "t_end %g s is %.3g steps of %g s, more than the %d-step limit" t_end
        ratio period max_int;
    let steps = int_of_float ratio in
    if steps < 1 then
      Seed_sweep.bad_request
        "t_end must span at least one %g s step, got %g" period t_end;
    (* a fault on a port the subject does not hook would inject nothing *)
    let slots = Array.length subject.ports.sensor_ports in
    List.iter
      (fun fl ->
        let kind = fl.Fault.kind in
        if Fault.is_sensor kind && (fl.Fault.slot < 0 || fl.Fault.slot >= slots)
        then
          Seed_sweep.bad_request
            "fault %s: sensor slot %d does not exist (the subject has %d \
             sensor slot%s)"
            (Fault.name fl) fl.Fault.slot slots
            (if slots = 1 then "" else "s");
        if Fault.is_actuator kind && subject.ports.duty_port = None then
          Seed_sweep.bad_request "fault %s: the subject has no duty port"
            (Fault.name fl))
      scenario.Fault_scenario.faults;
    let wdog_timeout = Option.value wdog_timeout ~default:(8.0 *. period) in
    (period, steps, wdog_timeout)
  in
  let s =
    Seed_sweep.run ?pool ?policy
      ?on_run:(Option.map (fun f _ r -> f r) on_run)
      ~seeds ~track:name ~label:("faultsim:" ^ name)
      ~subject:(fun () -> (mk_subject (), ref None))
      ~plan:(fun (subject, _) -> plan subject)
      (fun (period, steps, wdog_timeout) (subject, slot) seed ->
        one_run slot subject ~scenario ~seed ~steps ~period ~t_end
          ~wdog_timeout)
  in
  let period, steps, _ = s.Seed_sweep.plan in
  let outcomes = Array.to_list s.Seed_sweep.outcomes in
  let runs, failures =
    List.partition_map
      (fun (seed, o) ->
        match o.Supervise.result with
        | Ok r -> Either.Left r
        | Error e -> Either.Right (seed, e))
      outcomes
  in
  {
    scenario;
    t_end;
    period;
    runs;
    failures;
    retries_total =
      List.fold_left (fun a (_, o) -> a + o.Supervise.attempts - 1) 0 outcomes;
    steps_per_run = steps;
    (* the one timing-dependent field of the campaign document:
       ECSD_WALL_ZERO=1 zeroes it so CI can assert a --jobs N report
       byte-identical to the --jobs 1 one with plain cmp *)
    wall_s = Telemetry.wall s.Seed_sweep.wall_s;
  }

let run ?t_end ?seeds ?wdog_timeout ?on_run ?policy ~scenario subject =
  sweep ?t_end ?seeds ?wdog_timeout ?on_run ?policy ~scenario (fun () ->
      subject)

let throughput ?scenario ~steps subject =
  Sim.reset subject.sim;
  (match scenario with
  | Some scn -> ignore (arm subject ~seed:1 scn)
  | None -> disarm subject);
  let t0 = Obs.now_ns () in
  for _ = 1 to steps do
    Sim.step subject.sim
  done;
  let dt = Float.max 1e-9 ((Obs.now_ns () -. t0) *. 1e-9) in
  disarm subject;
  Sim.reset subject.sim;
  float_of_int steps /. dt

let all_detected r = List.for_all (fun x -> x.detected) r.runs
let all_recovered r = List.for_all (fun x -> x.recovered) r.runs

let json_stats = function
  | [] -> Bench_json.Null
  | xs ->
      let s = Stats.summarize xs in
      let open Bench_json in
      Obj
        [
          ("min", Float s.Stats.min); ("mean", Float s.mean); ("max", Float s.max);
        ]

let to_json ~model r =
  let open Bench_json in
  let opt_f = function None -> Null | Some x -> Float x in
  let run_row x =
    Obj
      [
        ("seed", Int x.seed);
        ("detected", Bool x.detected);
        ("detection_s", opt_f x.detection_s);
        ("recovered", Bool x.recovered);
        ("recovery_s", opt_f x.recovery_s);
        ("steps_degraded", Int x.steps_degraded);
        ("steps_safestop", Int x.steps_safestop);
        ("max_mode", Int x.max_mode);
        ("residual_rms", Float x.residual_rms);
        ("wdog_bites", Int x.wdog_bites);
      ]
  in
  Obj
    [
      ("schema", Str "ecsd-fault-1");
      ("model", Str model);
      ("git_rev", Str (git_rev ()));
      ("scenario", Str r.scenario.Fault_scenario.sname);
      ( "faults",
        Arr
          (List.map
             (fun f -> Str (Fault.name f))
             r.scenario.Fault_scenario.faults) );
      ("t_end", Float r.t_end);
      ("period", Float r.period);
      ("steps_per_run", Int r.steps_per_run);
      ("seeds", Int (List.length r.runs + List.length r.failures));
      ("wall_s", Float r.wall_s);
      ("runs", Arr (List.map run_row r.runs));
      ( "failures",
        Arr
          (List.map
             (fun (seed, e) ->
               Obj
                 [
                   ("seed", Int seed);
                   ("class", Str (Supervise.error_class e));
                   ("error", Str (Supervise.error_message e));
                 ])
             r.failures) );
      ("retries_total", Int r.retries_total);
      ("all_detected", Bool (all_detected r));
      ("all_recovered", Bool (all_recovered r));
      ("detection_s", json_stats (List.filter_map (fun x -> x.detection_s) r.runs));
      ("recovery_s", json_stats (List.filter_map (fun x -> x.recovery_s) r.runs));
      ( "residual_rms_max",
        Float
          (List.fold_left (fun a x -> Float.max a x.residual_rms) 0.0 r.runs) );
      ( "wdog_bites_total",
        Int (List.fold_left (fun a x -> a + x.wdog_bites) 0 r.runs) );
    ]

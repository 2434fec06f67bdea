(* P1-P8: performance of the environment itself (bechamel micro-benches).
   One Test.make per metric; time-per-run estimated by OLS against the
   monotonic clock. *)

open Bechamel
open Toolkit

(* P1: MIL engine throughput on the servo closed loop *)
let bench_mil =
  let built = Servo_system.build () in
  let comp = Compile.compile built.Servo_system.closed_loop in
  let sim = Sim.create ~solver_substeps:3 comp in
  Test.make ~name:"P1 MIL engine step (servo, 21 blocks)"
    (Staged.stage (fun () -> Sim.step sim))

(* P2: virtual-MCU event throughput *)
let bench_machine =
  let machine = Machine.create Mcu_db.mc56f8367 in
  let irq =
    Machine.register_irq machine ~name:"x" ~prio:1 ~handler:(fun () ->
        { Machine.jname = "x"; cycles = 100; action = (fun () -> ());
          stack_bytes = 16 })
  in
  Test.make ~name:"P2 virtual MCU: event + ISR dispatch"
    (Staged.stage (fun () ->
         Machine.raise_irq machine irq;
         Machine.advance machine ~cycles:500))

(* P3: full code generation of the servo controller *)
let bench_codegen =
  let built = Servo_system.build () in
  let comp = Compile.compile built.Servo_system.controller in
  Test.make ~name:"P3 PEERT codegen (servo controller)"
    (Staged.stage (fun () ->
         ignore (Target.generate ~name:"servo" ~project:built.Servo_system.project comp)))

(* P4: comm path: packet encode + framer decode roundtrip *)
let bench_comm =
  let payload = List.init 16 (fun i -> i * 7 land 0xFF) in
  let sink = Framer.create ~on_packet:(fun _ -> ()) in
  Test.make ~name:"P4 packet encode + frame decode (16 B payload)"
    (Staged.stage (fun () ->
         Framer.feed_all sink
           (Packet.encode { Packet.ptype = 1; seq = 0; payload })))

(* P5: controller arithmetic, float vs Q15 *)
let bench_pid_float =
  let c = Pid.create ~ts:1e-3 (Pid.gains ~kp:0.03 ~ki:2.5 ~u_min:0.0 ~u_max:24.0 ()) in
  let x = ref 0.0 in
  Test.make ~name:"P5a PID step (double)"
    (Staged.stage (fun () ->
         x := Pid.step c ~sp:100.0 ~pv:!x *. 0.99))

let bench_pid_fixed =
  let c =
    Pid.Fixpoint.create ~ts:1e-3 ~fmt:Qformat.q15 ~in_scale:512.0 ~out_scale:24.0
      (Pid.gains ~kp:0.03 ~ki:2.5 ~u_min:0.0 ~u_max:24.0 ())
  in
  let x = ref 0.0 in
  Test.make ~name:"P5b PID step (Q15 fixed)"
    (Staged.stage (fun () ->
         x := Pid.Fixpoint.step c ~sp:100.0 ~pv:!x *. 0.99))

(* P6: one full PIL co-simulated control period *)
let bench_pil =
  let cfg = { Servo_system.default_config with Servo_system.control_period = 5e-3 } in
  let built = Servo_system.build ~config:cfg () in
  let comp = Compile.compile built.Servo_system.controller in
  let arts = Pil_target.generate ~name:"servo" ~project:built.Servo_system.project comp in
  Test.make ~name:"P6 PIL co-simulation (100 control periods)"
    (Staged.stage (fun () ->
         let controller = Sim.create comp in
         let plant = Servo_system.pil_plant built in
         let driver = Servo_system.pil_driver built in
         ignore
           (Pil_cosim.run ~mcu:cfg.Servo_system.mcu ~schedule:arts.Target.schedule
              ~controller ~plant ~driver ~periods:100 ())))

(* P8: the whole static-analysis pipeline (model lint, interval
   fixpoint, concurrency, MISRA over the generated units) on the servo
   controller — the cost of one `ecsd check` *)
let bench_check =
  let built = Servo_system.build () in
  Test.make ~name:"P8 static analysis: ecsd check (servo)"
    (Staged.stage (fun () ->
         ignore
           (Check.run ~project:built.Servo_system.project
              built.Servo_system.controller)))

(* P9: one SIL step — the interpreted generated servo application
   (servo_step plus the exchange-buffer reads) against P1's MIL step *)
let bench_sil =
  let built = Servo_system.build () in
  let comp = Compile.compile built.Servo_system.controller in
  let app =
    Silvm_app.create ~engine:`Interp ~name:"servo"
      ~project:built.Servo_system.project comp
  in
  Silvm_app.initialize app;
  Silvm_app.set_sensor app 0 2048;
  Silvm_app.set_sensor app 1 0;
  Test.make ~name:"P9 SIL interpreter step (servo generated app)"
    (Staged.stage (fun () ->
         Silvm_app.step app;
         ignore (Silvm_app.actuator app 0)))

(* P13: the same step through the closure-compiled engine *)
let bench_sil_compiled =
  let built = Servo_system.build () in
  let comp = Compile.compile built.Servo_system.controller in
  let app =
    Silvm_app.create ~engine:`Compiled ~name:"servo"
      ~project:built.Servo_system.project comp
  in
  Silvm_app.initialize app;
  Silvm_app.set_sensor app 0 2048;
  Silvm_app.set_sensor app 1 0;
  Test.make ~name:"P13 SIL compiled step (servo generated app)"
    (Staged.stage (fun () ->
         Silvm_app.step app;
         ignore (Silvm_app.actuator app 0)))

(* P7: sustained MIL throughput with probes on, measured wall-clock and
   recorded — with the metrics layer — into BENCH_perf.json, the
   machine-readable perf trajectory of the repo. ECSD_BENCH_STEPS
   overrides the step count; ECSD_BENCH_QUICK=1 shrinks everything to a
   CI smoke run. *)

let quick () =
  match Sys.getenv_opt "ECSD_BENCH_QUICK" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

let bench_steps () =
  match Sys.getenv_opt "ECSD_BENCH_STEPS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> n
      | _ -> invalid_arg "ECSD_BENCH_STEPS must be a positive integer")
  | None -> if quick () then 20_000 else 200_000

let bench_json () =
  Obs.reset ();
  Obs.set_enabled true;
  let built = Servo_system.build () in
  (* MIL throughput, every block output probed (the configuration the
     probe-buffer hot path serves) *)
  let comp = Compile.compile built.Servo_system.closed_loop in
  let sim = Sim.create ~solver_substeps:3 comp in
  List.iter
    (fun b ->
      let spec = Model.spec_of comp.Compile.model b in
      for p = 0 to spec.Block.n_out - 1 do
        Sim.probe sim (b, p)
      done)
    (Model.blocks comp.Compile.model);
  let steps = bench_steps () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to steps do
    Sim.step sim
  done;
  let wall_s = Unix.gettimeofday () -. t0 in
  (* one PIL co-simulation to populate the response-latency histograms
     and the comm counters *)
  let cfg =
    { Servo_system.default_config with Servo_system.control_period = 5e-3 }
  in
  let built_pil = Servo_system.build ~config:cfg () in
  let comp_pil = Compile.compile built_pil.Servo_system.controller in
  let arts =
    Pil_target.generate ~name:"servo" ~project:built_pil.Servo_system.project
      comp_pil
  in
  let controller = Sim.create comp_pil in
  let plant = Servo_system.pil_plant built_pil in
  let driver = Servo_system.pil_driver built_pil in
  let periods = if quick () then 60 else 320 in
  ignore
    (Pil_cosim.run ~mcu:cfg.Servo_system.mcu ~schedule:arts.Target.schedule
       ~controller ~plant ~driver ~periods ());
  (* static analysis throughput; the analysis.check spans and the
     models-checked counter ride into the snapshot below *)
  let checks = if quick () then 3 else 10 in
  let t0_chk = Unix.gettimeofday () in
  for _ = 1 to checks do
    ignore
      (Check.run ~project:built.Servo_system.project
         built.Servo_system.controller)
  done;
  let chk_wall = Unix.gettimeofday () -. t0_chk in
  (* P9: MIL<->SIL differential execution rate on the servo in closed
     loop — every block output of every step compared bit-for-bit *)
  let diff_steps = if quick () then 200 else 1000 in
  let comp_diff = Compile.compile built_pil.Servo_system.controller in
  let diff_report =
    Silvm_diff.run ~steps:diff_steps ~engine:Silvm_diff.Interp
      ~plant:
        (Silvm_diff.Plant
           (Servo_system.pil_plant built_pil, Servo_system.pil_driver built_pil))
      ~name:"servo" ~project:built_pil.Servo_system.project comp_diff
  in
  (match diff_report.Silvm_diff.divergence with
  | None -> ()
  | Some d ->
      failwith
        (Printf.sprintf "P9: MIL/SIL divergence at step %d on %s"
           d.Silvm_diff.d_step d.Silvm_diff.d_block));
  let sil_rate =
    if diff_report.Silvm_diff.sil_seconds > 0.0 then
      float_of_int diff_report.Silvm_diff.steps_run
      /. diff_report.Silvm_diff.sil_seconds
    else 0.0
  in
  (* P10: fault-injection hook overhead — the same supervised closed
     loop stepped with the injector armed (encoder-dropout) and with the
     hook absent; the gap is what arming costs, the unarmed rate is what
     merely having the hook point in Sim costs everyone else *)
  let fault_scn =
    match Fault_scenario.find "encoder-dropout" with
    | Ok s -> s
    | Error e -> failwith e
  in
  let fault_subject, _ = Servo_system.faultsim_subject ~scenario:fault_scn () in
  let fault_steps = if quick () then 2_000 else 20_000 in
  let unarmed_sps = Fault_campaign.throughput ~steps:fault_steps fault_subject in
  let armed_sps =
    Fault_campaign.throughput ~scenario:fault_scn ~steps:fault_steps
      fault_subject
  in
  let armed_overhead =
    if unarmed_sps > 0.0 then 1.0 -. (armed_sps /. unarmed_sps) else 0.0
  in
  (* P11: campaign scaling — the 64-seed encoder-dropout campaign run
     through the seed sweep at --jobs 1 (on this domain) and --jobs 4
     (this domain and three spawned ones sharing one seed counter,
     Exec_pool.map), as `ecsd faultsim` runs them. The speedup is
     whatever this machine's cores allow (recorded next to
     [domains_available] so the number can be judged); the merged
     report must be identical either way, which is asserted here. *)
  let scaling_seeds = if quick () then 16 else 64 in
  let scaling_t_end = if quick () then 0.5 else 2.0 in
  let mk_subject () =
    fst (Servo_system.faultsim_subject ~scenario:fault_scn ())
  in
  let campaign jobs =
    let t0 = Unix.gettimeofday () in
    let r =
      Fault_campaign.sweep ~t_end:scaling_t_end ~seeds:scaling_seeds ~jobs
        ~scenario:fault_scn mk_subject
    in
    (r, Unix.gettimeofday () -. t0)
  in
  let r1, wall1 = campaign 1 in
  let r4, wall4 = campaign 4 in
  if r1.Fault_campaign.runs <> r4.Fault_campaign.runs then
    failwith "P11: --jobs 4 campaign differs from --jobs 1";
  let speedup = if wall4 > 0.0 then wall1 /. wall4 else 0.0 in
  (* P12: MIR optimization-pass ablation — the same servo controller
     generated with and without --opt: emitted code size and SIL
     interpreter throughput, with the MIL<->SIL diff re-run on the
     optimized build as the bit-exactness witness *)
  let gen_loc opt =
    let arts =
      Target.generate ~opt ~name:"servo"
        ~project:built_pil.Servo_system.project comp_pil
    in
    let count u =
      String.fold_left
        (fun n c -> if c = '\n' then n + 1 else n)
        0
        (C_print.print_unit u)
    in
    count arts.Target.model_c + count arts.Target.main_c
  in
  let loc_noopt = gen_loc false and loc_opt = gen_loc true in
  let diff_opt =
    Silvm_diff.run ~steps:diff_steps ~opt:true ~engine:Silvm_diff.Interp
      ~plant:
        (Silvm_diff.Plant
           (Servo_system.pil_plant built_pil, Servo_system.pil_driver built_pil))
      ~name:"servo" ~project:built_pil.Servo_system.project comp_diff
  in
  (match diff_opt.Silvm_diff.divergence with
  | None -> ()
  | Some d ->
      failwith
        (Printf.sprintf "P12: --opt MIL/SIL divergence at step %d on %s"
           d.Silvm_diff.d_step d.Silvm_diff.d_block));
  let opt_rate =
    if diff_opt.Silvm_diff.sil_seconds > 0.0 then
      float_of_int diff_opt.Silvm_diff.steps_run
      /. diff_opt.Silvm_diff.sil_seconds
    else 0.0
  in
  (* P13: compiled SIL execution — the closure-compiled servo app
     through the batched Bigarray path, wall-clocked against the
     interpreter on the same stimulus, with a tri-lockstep diff as the
     bit-exactness witness for the numbers being compared *)
  let compiled_steps = if quick () then 20_000 else 400_000 in
  let interp_steps = if quick () then 5_000 else 40_000 in
  let stim_buf = [| 0 |] in
  let stimulus k =
    stim_buf.(0) <- 2048 + (k * 37 land 1023);
    stim_buf
  in
  let batched_rate engine n =
    let app =
      Silvm_app.create ~engine ~name:"servo"
        ~project:built_pil.Servo_system.project comp_pil
    in
    Silvm_app.initialize app;
    let t0 = Unix.gettimeofday () in
    ignore (Silvm_app.run_n_steps ~stimulus app n);
    let w = Unix.gettimeofday () -. t0 in
    if w > 0.0 then float_of_int n /. w else 0.0
  in
  let compiled_rate = batched_rate `Compiled compiled_steps in
  let interp_batched_rate = batched_rate `Interp interp_steps in
  let diff_tri =
    Silvm_diff.run ~steps:diff_steps ~engine:Silvm_diff.Both
      ~plant:
        (Silvm_diff.Plant
           (Servo_system.pil_plant built_pil, Servo_system.pil_driver built_pil))
      ~name:"servo" ~project:built_pil.Servo_system.project comp_diff
  in
  (match diff_tri.Silvm_diff.divergence with
  | None -> ()
  | Some d ->
      failwith
        (Printf.sprintf "P13: compiled/interp divergence at step %d on %s"
           d.Silvm_diff.d_step d.Silvm_diff.d_block));
  (* P14: flight-recorder overhead — the always-on claim, quantified.
     The same three hot paths timed with the recorder off and on:
     probed MIL stepping (every event is a ring store), the compiled
     batched SIL path, and the armed fault campaign. Best-of-3 rates on
     both sides squeeze scheduler noise out of the ratio. *)
  (* alternate off/on repetitions so machine drift during the
     measurement hits both sides, and keep the best rate of each; the
     first pair is an untimed warmup so caches and code paths are hot
     on both sides before anything counts *)
  let paired_best n f_off f_on =
    let bo = ref 0.0 and bn = ref 0.0 in
    for i = 0 to n do
      let o = f_off () in
      let x = f_on () in
      if i > 0 then begin
        if o > !bo then bo := o;
        if x > !bn then bn := x
      end;
      if Sys.getenv_opt "ECSD_BENCH_DEBUG" <> None then
        Printf.printf "  rep off %.0f on %.0f%s\n%!" o x
          (if i = 0 then " (warmup)" else "")
    done;
    (!bo, !bn)
  in
  let flight_on f =
    Flight.reset ();
    Flight.set_enabled true;
    Flight.begin_track ~id:1 ~name:"bench";
    (* pre-touch every ring page so first-write faults on the freshly
       allocated arrays land here, not inside the timed region *)
    for k = 0 to Flight.capacity () - 1 do
      Flight.mark ~step:k "warm"
    done;
    Fun.protect
      ~finally:(fun () ->
        Flight.set_enabled false;
        Flight.reset ())
      f
  in
  (* short repetitions keep each off/on pair tightly adjacent in time,
     which is what makes the ratio robust on a loaded machine *)
  let fr_mil_steps = if quick () then 5_000 else 20_000 in
  let probed_rate () =
    let sim2 = Sim.create ~solver_substeps:3 comp in
    List.iter
      (fun b ->
        let spec = Model.spec_of comp.Compile.model b in
        for p = 0 to spec.Block.n_out - 1 do
          Sim.probe sim2 (b, p)
        done)
      (Model.blocks comp.Compile.model);
    let t0 = Unix.gettimeofday () in
    for _ = 1 to fr_mil_steps do
      Sim.step sim2
    done;
    let w = Unix.gettimeofday () -. t0 in
    if w > 0.0 then float_of_int fr_mil_steps /. w else 0.0
  in
  (* the probed MIL path records the most events per step (a marker plus
     every probed output), so it gets the most repetitions *)
  let mil_off, mil_on =
    paired_best
      (if quick () then 5 else 10)
      probed_rate
      (fun () -> flight_on probed_rate)
  in
  let fr_sil_steps = if quick () then 20_000 else 200_000 in
  let sil_off, sil_on =
    paired_best 3
      (fun () -> batched_rate `Compiled fr_sil_steps)
      (fun () -> flight_on (fun () -> batched_rate `Compiled fr_sil_steps))
  in
  let armed_rate () =
    Fault_campaign.throughput ~scenario:fault_scn ~steps:fault_steps
      fault_subject
  in
  let armed_off, armed_on =
    paired_best 3 armed_rate (fun () -> flight_on armed_rate)
  in
  let overhead off on = if off > 0.0 then 1.0 -. (on /. off) else 0.0 in
  (* P15: supervised-execution overhead + retry/backoff latency. The
     supervision tax is the cancellation poll at the engines' step-loop
     fuel points: one domain-local read when no token is armed, plus an
     amortized clock read when a deadline is. Measured on the armed
     campaign path with a (never-firing) deadline token installed — the
     worst case — against the raw rate, using the same paired best-of
     protocol as the recorder numbers. *)
  let supervised_rate () =
    let tok = Cancel.make ~deadline_s:3600.0 () in
    Cancel.with_token tok armed_rate
  in
  let sup_off, sup_on = paired_best 3 armed_rate supervised_rate in
  let sup_overhead = overhead sup_off sup_on in
  (* retry/backoff latency: supervise a transient-once job many times
     under a small backoff policy; the wall latency of each call is
     dominated by the deterministic backoff sleep, so its quantiles
     characterize what one transient failure costs a campaign job *)
  let retry_calls = if quick () then 100 else 200 in
  let retry_policy =
    {
      Supervise.default_policy with
      Supervise.retries = 2;
      backoff_base_s = 2e-4;
      backoff_max_s = 2e-3;
    }
  in
  let lat =
    Array.init retry_calls (fun i ->
        let first = ref true in
        let t0 = Unix.gettimeofday () in
        let o =
          Supervise.supervise ~policy:retry_policy
            ~label:(Printf.sprintf "bench-retry-%d" i)
            (fun () ->
              if !first then begin
                first := false;
                raise (Supervise.Transient_failure "bench blip")
              end)
        in
        (match o.Supervise.result with
        | Ok () -> ()
        | Error _ -> failwith "P15: transient retry failed to recover");
        Unix.gettimeofday () -. t0)
  in
  Array.sort compare lat;
  let pct p =
    lat.(min (retry_calls - 1) (int_of_float (p *. float_of_int retry_calls)))
  in
  let backoffs =
    List.init retry_calls (fun i ->
        Supervise.backoff_s retry_policy
          ~label:(Printf.sprintf "bench-retry-%d" i)
          ~attempt:0)
  in
  let bmin = List.fold_left Float.min infinity backoffs in
  let bmax = List.fold_left Float.max 0.0 backoffs in
  let bmean = List.fold_left ( +. ) 0.0 backoffs /. float_of_int retry_calls in
  Obs.set_enabled false;
  let snap = Obs.snapshot () in
  let extra =
    [
      ( "sil_diff",
        Bench_json.Obj
          [
            ("steps", Bench_json.Int diff_report.Silvm_diff.steps_run);
            ("signals", Bench_json.Int diff_report.Silvm_diff.signals);
            ("divergences", Bench_json.Int 0);
            ( "mil_seconds",
              Bench_json.Float diff_report.Silvm_diff.mil_seconds );
            ( "sil_seconds",
              Bench_json.Float diff_report.Silvm_diff.sil_seconds );
            ("sil_steps_per_s", Bench_json.Float sil_rate);
          ] );
      ( "faultsim",
        Bench_json.Obj
          [
            ("steps", Bench_json.Int fault_steps);
            ("unarmed_steps_per_s", Bench_json.Float unarmed_sps);
            ("armed_steps_per_s", Bench_json.Float armed_sps);
            ("armed_overhead_frac", Bench_json.Float armed_overhead);
          ] );
      ( "campaign_scaling",
        Bench_json.Obj
          [
            ("seeds", Bench_json.Int scaling_seeds);
            ("t_end", Bench_json.Float scaling_t_end);
            ("steps_per_run", Bench_json.Int r1.Fault_campaign.steps_per_run);
            ("jobs1_wall_s", Bench_json.Float wall1);
            ("jobs4_wall_s", Bench_json.Float wall4);
            ("speedup_jobs4", Bench_json.Float speedup);
            ( "domains_available",
              Bench_json.Int (Domain.recommended_domain_count ()) );
            ("identical_reports", Bench_json.Bool true);
          ] );
      ( "mir_opt",
        Bench_json.Obj
          [
            ("generated_loc_noopt", Bench_json.Int loc_noopt);
            ("generated_loc_opt", Bench_json.Int loc_opt);
            ("sil_steps_per_s_noopt", Bench_json.Float sil_rate);
            ("sil_steps_per_s_opt", Bench_json.Float opt_rate);
            ("opt_divergences", Bench_json.Int 0);
          ] );
      ( "sil_compiled",
        Bench_json.Obj
          [
            ("steps", Bench_json.Int compiled_steps);
            ("sil_compiled_steps_per_s", Bench_json.Float compiled_rate);
            ("sil_interp_steps_per_s", Bench_json.Float interp_batched_rate);
            ( "speedup_vs_interp",
              Bench_json.Float
                (if interp_batched_rate > 0.0 then
                   compiled_rate /. interp_batched_rate
                 else 0.0) );
            ("tri_lockstep_steps", Bench_json.Int diff_tri.Silvm_diff.steps_run);
            ("divergences", Bench_json.Int 0);
          ] );
      ( "recorder",
        Bench_json.Obj
          [
            ("mil_probed_steps", Bench_json.Int fr_mil_steps);
            ("mil_probed_steps_per_s_off", Bench_json.Float mil_off);
            ("mil_probed_steps_per_s_on", Bench_json.Float mil_on);
            ("mil_overhead_frac", Bench_json.Float (overhead mil_off mil_on));
            ("sil_compiled_steps", Bench_json.Int fr_sil_steps);
            ("sil_compiled_steps_per_s_off", Bench_json.Float sil_off);
            ("sil_compiled_steps_per_s_on", Bench_json.Float sil_on);
            ( "sil_compiled_overhead_frac",
              Bench_json.Float (overhead sil_off sil_on) );
            ("armed_campaign_steps", Bench_json.Int fault_steps);
            ("armed_campaign_steps_per_s_off", Bench_json.Float armed_off);
            ("armed_campaign_steps_per_s_on", Bench_json.Float armed_on);
            ( "armed_campaign_overhead_frac",
              Bench_json.Float (overhead armed_off armed_on) );
          ] );
      ( "supervised",
        Bench_json.Obj
          [
            ("armed_campaign_steps", Bench_json.Int fault_steps);
            ("raw_steps_per_s", Bench_json.Float sup_off);
            ("supervised_steps_per_s", Bench_json.Float sup_on);
            ("overhead_frac", Bench_json.Float sup_overhead);
            ("retry_calls", Bench_json.Int retry_calls);
            ("retry_latency_p50_s", Bench_json.Float (pct 0.5));
            ("retry_latency_p95_s", Bench_json.Float (pct 0.95));
            ("retry_latency_max_s", Bench_json.Float lat.(retry_calls - 1));
            ("backoff_first_min_s", Bench_json.Float bmin);
            ("backoff_first_mean_s", Bench_json.Float bmean);
            ("backoff_first_max_s", Bench_json.Float bmax);
          ] );
    ]
  in
  let doc = Bench_json.bench ~name:"perf" ~steps ~wall_s ~extra snap in
  let path = "BENCH_perf.json" in
  Bench_json.write ~path doc;
  (* read back through the parser: the file must stay machine-readable *)
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let parsed = Bench_json.parse text in
  (match Bench_json.member "steps_per_s" parsed with
  | Some (Bench_json.Float sps) ->
      Printf.printf
        "P7 MIL throughput (servo, all outputs probed): %.0f steps/s\n" sps
  | _ -> failwith "BENCH_perf.json: missing steps_per_s");
  Printf.printf "P8 static analysis (servo controller): %.1f models checked/s\n"
    (float_of_int checks /. chk_wall);
  Printf.printf
    "P9 MIL<->SIL diff (servo, %d signals): %.0f SIL steps/s, 0 divergences\n"
    diff_report.Silvm_diff.signals sil_rate;
  Printf.printf
    "P10 faultsim (servo + supervisor): %.0f steps/s unarmed, %.0f armed \
     (%.1f %% overhead)\n"
    unarmed_sps armed_sps (100.0 *. armed_overhead);
  Printf.printf
    "P11 campaign scaling (%d seeds): %.2f s at --jobs 1, %.2f s at --jobs 4 \
     (%.2fx, %d domains available, reports identical)\n"
    scaling_seeds wall1 wall4 speedup
    (Domain.recommended_domain_count ());
  Printf.printf
    "P12 MIR opt ablation (servo): %d -> %d generated LoC, %.0f -> %.0f SIL \
     steps/s, 0 divergences\n"
    loc_noopt loc_opt sil_rate opt_rate;
  Printf.printf
    "P13 compiled SIL (servo, batched): %.0f steps/s compiled vs %.0f \
     interpreted (%.1fx), tri-lockstep 0 divergences\n"
    compiled_rate interp_batched_rate
    (if interp_batched_rate > 0.0 then compiled_rate /. interp_batched_rate
     else 0.0);
  Printf.printf
    "P14 flight recorder overhead: MIL probed %.1f %%, compiled SIL %.1f %%, \
     armed campaign %.1f %%\n"
    (100.0 *. overhead mil_off mil_on)
    (100.0 *. overhead sil_off sil_on)
    (100.0 *. overhead armed_off armed_on);
  Printf.printf
    "P15 supervised execution: %.0f steps/s raw, %.0f supervised (%.1f %% \
     overhead); transient-retry latency p50 %.2f ms / p95 %.2f ms over %d \
     calls\n"
    sup_off sup_on (100.0 *. sup_overhead)
    (1e3 *. pct 0.5)
    (1e3 *. pct 0.95)
    retry_calls;
  Printf.printf "wrote %s (git %s)\n\n" path (Bench_json.git_rev ())

let run () =
  print_endline "==================================================================";
  print_endline "P1-P6, P8-P9: environment performance (bechamel, ns per run)";
  print_endline "==================================================================";
  let tests =
    Test.make_grouped ~name:"perf" ~fmt:"%s %s"
      [ bench_mil; bench_machine; bench_codegen; bench_comm; bench_pid_float;
        bench_pid_fixed; bench_pil; bench_check; bench_sil;
        bench_sil_compiled ]
  in
  let cfg =
    Benchmark.cfg ~limit:1500
      ~quota:(Time.second (if quick () then 0.05 else 0.4))
      ~kde:(Some 500) ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  let t = Table.create [ "benchmark"; "time/run"; "runs/s" ] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] ->
          Table.add_row t
            [
              name;
              (if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
               else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
               else Printf.sprintf "%.0f ns" ns);
              Printf.sprintf "%.3g" (1e9 /. ns);
            ]
      | _ -> Table.add_row t [ name; "n/a"; "n/a" ])
    rows;
  Table.print ~align:[ Table.Left; Table.Right; Table.Right ] t;
  print_newline ();
  bench_json ()

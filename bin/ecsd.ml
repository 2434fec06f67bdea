(* ecsd -- command-line driver of the integrated environment.

   Sub-commands mirror the development cycle of the paper's Fig 6.1 on the
   built-in servo case study:

     ecsd inspect   -- the PE project window and Bean Inspector (Fig 4.1)
     ecsd mil       -- closed-loop model-in-the-loop simulation (Fig 7.1)
     ecsd codegen   -- PEERT code generation into a directory
     ecsd pil       -- processor-in-the-loop co-simulation (Fig 6.2)
     ecsd diff      -- MIL vs SIL differential execution of generated code
     ecsd faultsim  -- fault-injection campaign with recovery metrics
     ecsd serve     -- long-running campaign queue over a domain pool
     ecsd check     -- static analysis: model advisor, range, ISR, MISRA
     ecsd mcus      -- the supported-MCU database
*)

open Cmdliner

let mcu_conv =
  let parse s =
    match Mcu_db.find s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown MCU %S (use `ecsd mcus` to list them)" s))
  in
  let print ppf m = Format.pp_print_string ppf m.Mcu_db.name in
  Arg.conv (parse, print)

let mcu_arg =
  Arg.(
    value
    & opt mcu_conv Mcu_db.mc56f8367
    & info [ "mcu" ] ~docv:"MCU" ~doc:"Target MCU (default MC56F8367).")

let period_arg =
  Arg.(
    value
    & opt float 1e-3
    & info [ "period" ] ~docv:"SECONDS" ~doc:"Control period (default 1 ms).")

let fixed_arg =
  Arg.(
    value & flag
    & info [ "fixed" ] ~doc:"Use the Q15 fixed-point controller variant.")

let config mcu period fixed =
  {
    Servo_system.default_config with
    Servo_system.mcu;
    control_period = period;
    variant = (if fixed then Servo_system.Fixed_pid else Servo_system.Float_pid);
  }

(* The one error-reporting path of every sub-command: report on stderr,
   exit 2 (distinct from `check --strict`'s findings exit code 1). *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2)
    fmt

(* An output path that cannot be opened (a missing directory, no
   permission) is the user's error, not an internal one: exit 2 naming
   it. Every file the CLI writes goes through here. *)
let writing f = try f () with Sys_error msg -> die "cannot write %s" msg
let write_json ~path v = writing (fun () -> Bench_json.write ~path v)

(* Flush-on-error: `die` exits without unwinding through the command
   body, so anything that must reach disk even on a failed run (trace
   spans, flight bundles, partial reports) registers a sink here and
   at_exit drains them exactly once, whatever the exit path. *)
let on_exit_flush : (unit -> unit) list ref = ref []
let exit_flushed = ref false
let register_exit_flush f = on_exit_flush := f :: !on_exit_flush

let () =
  at_exit (fun () ->
      if not !exit_flushed then begin
        exit_flushed := true;
        List.iter (fun f -> try f () with _ -> ()) (List.rev !on_exit_flush)
      end)

let build_or_fail cfg =
  try Servo_system.build ~config:cfg ()
  with Invalid_argument msg -> die "%s" msg

(* ---- observability flags, shared by the heavy sub-commands ---- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record tracing spans during the run and write them to $(docv) as \
           Chrome-trace JSON (load in chrome://tracing or Perfetto).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Collect metrics during the run and print the counters, latency \
           histograms and an ASCII span summary afterwards.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Time the tool's own passes (analysis passes, code generation, \
           MIR optimization, compiled-SIL compilation, each run) and \
           print the spans as a calls/total/mean/max summary afterwards.")

let with_obs ?(profile = false) trace metrics f =
  let active = trace <> None || metrics || profile in
  let finished = ref false in
  let finish () =
    if not !finished then begin
      finished := true;
      Obs.set_enabled false;
      (match trace with
      | Some path ->
          writing (fun () -> Flight.write_spans ~path);
          Printf.printf "trace spans written to %s\n" path
      | None -> ());
      if metrics then begin
        print_newline ();
        print_string (Obs_report.metrics_table (Obs.snapshot ()))
      end;
      if metrics || profile then begin
        print_newline ();
        print_string
          (Obs_report.flame_summary ~dropped:(Flight.spans_dropped ())
             (Flight.spans ()))
      end
    end
  in
  if active then begin
    Obs.reset ();
    Obs.set_enabled true;
    (* a `die` mid-run still flushes the trace and tables *)
    register_exit_flush finish
  end;
  (* a run size out of range is the user's error: exit 2 naming it *)
  let code = try f () with Supervise.Bad_request msg -> die "%s" msg in
  if active then finish ();
  code

(* ---- flight recorder, on by default in the campaign commands ---- *)

let no_flight_arg =
  Arg.(
    value & flag
    & info [ "no-flight" ]
        ~doc:
          "Disable the flight recorder. It is on by default here: each \
           run logs its last events (step markers, probed signals, fault \
           transitions, engine activity) into a fixed per-domain ring, \
           and the first divergence or unrecovered run dumps the rings \
           as a forensics bundle (FLIGHT_<name>.jsonl plus a Chrome \
           trace). Ring capacity: $(b,ECSD_FLIGHT_EVENTS) environment \
           variable, default 4096 events per domain.")

let enable_flight no_flight =
  if no_flight then Flight.set_enabled false
  else begin
    (match Sys.getenv_opt "ECSD_FLIGHT_EVENTS" with
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n > 0 -> Flight.set_capacity n
        | _ -> die "ECSD_FLIGHT_EVENTS must be a positive integer, got %S" s)
    | None -> ());
    Flight.set_enabled true
  end

let flight_bundle_written = ref false

(* The bundle notice goes to stderr so `serve`'s stdout stays pure
   JSON-lines; the guard keeps the direct call and the exit-flush
   registration from writing twice. *)
let write_flight_bundle name =
  if not !flight_bundle_written then
    match writing (fun () -> Flight.write_captures ~prefix:("FLIGHT_" ^ name)) with
    | Some (jsonl, trace) ->
        flight_bundle_written := true;
        Printf.eprintf "flight bundle written to %s and %s\n%!" jsonl trace
    | None -> ()

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          (Printf.sprintf
             "Shard the campaign across $(docv) domains (default 1: run \
              serially on this domain; at most %d, the OCaml runtime's \
              domain limit). The merged report is identical whatever \
              $(docv) is — only wall_s, the elapsed time, differs."
             Exec_pool.max_jobs))

(* ---- inspect ---- *)

let inspect mcu period fixed bean =
  let built = build_or_fail (config mcu period fixed) in
  (match bean with
  | None -> print_string (Inspector.render_project built.Servo_system.project)
  | Some name -> (
      match Bean_project.find built.Servo_system.project name with
      | b -> print_string (Inspector.render_bean b)
      | exception Not_found -> die "no bean named %S in the project" name));
  0

let inspect_cmd =
  let bean =
    Arg.(
      value
      & opt (some string) None
      & info [ "bean" ] ~docv:"NAME" ~doc:"Show one bean's inspector instead.")
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Project window and Bean Inspector (Fig 4.1)")
    Term.(const inspect $ mcu_arg $ period_arg $ fixed_arg $ bean)

(* ---- mil ---- *)

let mil mcu period fixed t_end csv trace metrics =
  with_obs trace metrics @@ fun () ->
  let built = build_or_fail (config mcu period fixed) in
  let speed, duty = Servo_system.mil_run built ~t_end in
  Ascii_plot.print ~title:"MIL: motor speed" ~x_label:"time [s]"
    [ { Ascii_plot.label = "speed [rad/s]"; points = speed } ];
  (match List.rev speed with
  | (_, w) :: _ -> Printf.printf "final speed %.2f rad/s\n" w
  | [] -> ());
  let max_duty = List.fold_left (fun a (_, d) -> Float.max a d) 0.0 duty in
  Printf.printf "peak duty %.3f\n" max_duty;
  (match csv with
  | Some path ->
      writing (fun () ->
          Trace_export.write_csv ~path [ ("speed", speed); ("duty", duty) ]);
      Printf.printf "trace written to %s\n" path
  | None -> ());
  0

let mil_cmd =
  let t_end =
    Arg.(
      value & opt float 1.6
      & info [ "t-end" ] ~docv:"SECONDS"
          ~doc:
            "Simulation horizon: finite, and at least one simulation step \
             once rounded to whole steps.")
  in
  let csv =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Export the traces as CSV.")
  in
  Cmd.v
    (Cmd.info "mil" ~doc:"Model-in-the-loop closed-loop simulation (Fig 7.1)")
    Term.(
      const mil $ mcu_arg $ period_arg $ fixed_arg $ t_end $ csv $ trace_arg
      $ metrics_arg)

(* ---- codegen ---- *)

let codegen mcu period fixed pil opt out_dir trace metrics =
  with_obs trace metrics @@ fun () ->
  let built = build_or_fail (config mcu period fixed) in
  let comp = Compile.compile built.Servo_system.controller in
  let arts =
    try
      if pil then
        Pil_target.generate ~opt ~name:"servo"
          ~project:built.Servo_system.project comp
      else
        Target.generate ~opt ~name:"servo"
          ~project:built.Servo_system.project comp
    with Target.Codegen_error msg -> die "code generation failed: %s" msg
  in
  let files = writing (fun () -> Target.write_to_dir arts ~dir:out_dir) in
  let r = arts.Target.report in
  Printf.printf "%s target: %d blocks -> %d + %d LoC, step %.1f us, RAM est. %d B\n"
    (if pil then "PEERT_PIL" else "PEERT")
    r.Target.n_blocks r.Target.app_loc r.Target.hal_loc
    (r.Target.step_time *. 1e6) r.Target.est_ram_bytes;
  List.iter (fun w -> Printf.printf "warning: %s\n" w) r.Target.warnings;
  Printf.printf "wrote %d files to %s\n" (List.length files) out_dir;
  0

let opt_arg =
  Arg.(
    value & flag
    & info [ "opt" ]
        ~doc:
          "Run the MIR optimization passes (constant folding, copy \
           propagation, saturation fusion, dead-store elimination) on the \
           model unit. The output is bit-exact with the unoptimized code; \
           $(b,ecsd diff --opt) is the oracle.")

let codegen_cmd =
  let pil = Arg.(value & flag & info [ "pil" ] ~doc:"Generate the PIL variant.") in
  let out =
    Arg.(
      value & opt string "servo_generated"
      & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "codegen" ~doc:"Generate the embedded application (PEERT, Fig 6.1)")
    Term.(
      const codegen $ mcu_arg $ period_arg $ fixed_arg $ pil $ opt_arg $ out
      $ trace_arg $ metrics_arg)

(* ---- pil ---- *)

let pil mcu period fixed baud periods trace metrics =
  with_obs trace metrics @@ fun () ->
  let cfg = config mcu period fixed in
  let built = build_or_fail cfg in
  let comp = Compile.compile built.Servo_system.controller in
  let arts =
    Pil_target.generate ~name:"servo" ~project:built.Servo_system.project comp
  in
  let controller = Sim.create comp in
  let plant = Servo_system.pil_plant built in
  let driver = Servo_system.pil_driver built in
  match
    Pil_cosim.run ~baud ~mcu:cfg.Servo_system.mcu ~schedule:arts.Target.schedule
      ~controller ~plant ~driver ~periods ()
  with
  | exception Invalid_argument msg -> die "PIL infeasible: %s" msg
  | r ->
      let p = r.Pil_cosim.profile in
      Printf.printf "periods            : %d\n" periods;
      Printf.printf "exec time          : %.1f us\n"
        (p.Pil_cosim.controller_exec *. 1e6);
      Printf.printf "latency p50/p95    : %.0f / %.0f us\n"
        (p.Pil_cosim.response_latency.Stats.p50 *. 1e6)
        (p.Pil_cosim.response_latency.Stats.p95 *. 1e6);
      Printf.printf "sampling jitter    : %.1f us\n"
        (p.Pil_cosim.target.Machine.start_jitter *. 1e6);
      Printf.printf "comm               : %d B = %.2f ms per period\n"
        p.Pil_cosim.comm_bytes_per_period
        (p.Pil_cosim.comm_time_per_period *. 1e3);
      Printf.printf "utilisation        : %.1f %%\n"
        (100.0 *. p.Pil_cosim.target.Machine.utilization);
      Printf.printf "stack high-water   : %d B\n" p.Pil_cosim.target.Machine.max_stack_bytes;
      Printf.printf "overruns           : %d\n" p.Pil_cosim.overruns;
      (match List.rev (Servo_system.pil_speed_trace r.Pil_cosim.trace) with
      | (_, w) :: _ -> Printf.printf "final speed        : %.2f rad/s\n" w
      | [] -> ());
      0

let pil_cmd =
  let baud =
    Arg.(value & opt int 115200 & info [ "baud" ] ~docv:"BAUD" ~doc:"RS-232 rate.")
  in
  let periods =
    Arg.(
      value & opt int 320
      & info [ "periods" ] ~docv:"N" ~doc:"Control periods to co-simulate.")
  in
  Cmd.v
    (Cmd.info "pil" ~doc:"Processor-in-the-loop co-simulation (Fig 6.2)")
    Term.(const pil $ mcu_arg $ Arg.(value & opt float 5e-3 & info [ "period" ]
            ~docv:"SECONDS" ~doc:"Control period (default 5 ms; RS-232 limits it).")
          $ fixed_arg $ baud $ periods $ trace_arg $ metrics_arg)

(* ---- diff ---- *)

let scenario_or_die ref_ =
  match Fault_scenario.find ref_ with
  | Ok s -> s
  | Error e -> die "%s" e

(* Completed runs of a seed sweep, kept so a `die` mid-sweep still
   leaves a partial JSON report at [path] (when one is wanted): [head]
   are the report's leading fields and [row seed r] renders one
   completed run. Returns the sweep's [on_run] and [finish], which
   marks the sweep complete (or failed before any seed ran: no partial
   report then either). *)
let partial_report path ~head ~seeds row =
  let completed = ref [] in
  let finished = ref false in
  Option.iter
    (fun path ->
      register_exit_flush (fun () ->
          if not !finished then begin
            let runs =
              List.sort (fun (a, _) (b, _) -> compare a b) !completed
            in
            let open Bench_json in
            write_json ~path
              (Obj
                 (head
                 @ [
                     ("seeds_requested", Int seeds);
                     ("seeds_done", Int (List.length runs));
                     ("runs", Arr (List.map (fun (seed, r) -> row seed r) runs));
                   ]));
            Printf.eprintf "partial JSON report written to %s\n%!" path
          end))
    path;
  let on_run seed r = completed := (seed, r) :: !completed in
  (on_run, fun () -> finished := true)

let diff mcu period fixed model_name steps ulp opt engine scenario_ref
    fault_seed seeds jobs json no_flight profile trace metrics =
  with_obs ~profile trace metrics @@ fun () ->
  enable_flight no_flight;
  let scenario = Option.map scenario_or_die scenario_ref in
  let float_mode = if ulp > 0 then Silvm_diff.Ulp ulp else Silvm_diff.Exact in
  let name = if model_name = "isr-demo" then "isr_demo" else model_name in
  register_exit_flush (fun () -> write_flight_bundle name);
  (* a bad size, model or configuration dies before any lock-step *)
  let subject abort () =
    match
      Diff_subject.make ~config:(config mcu period fixed) ~steps ~float_mode
        ~opt ~engine ?scenario model_name
    with
    | Ok s -> s
    | Error (Diff_subject.Unknown_model m) ->
        abort (Printf.sprintf "unknown model %S (choose servo or isr-demo)" m)
    | exception (Supervise.Bad_request msg | Invalid_argument msg) -> abort msg
  in
  let run ?seed s =
    try Diff_subject.run ?seed s
    with Target.Codegen_error msg -> die "code generation failed: %s" msg
  in
  let divergence_json = Diff_subject.divergence_json in
  (* the fields are built only when a report is wanted: [git_rev] may
     spawn git *)
  let json_report fields =
    if json then begin
      let path = Printf.sprintf "DIFF_%s.json" name in
      write_json ~path (Bench_json.Obj (fields ()));
      Printf.printf "JSON report written to %s\n" path
    end
  in
  let open Bench_json in
  let code =
    if seeds = 1 then begin
      Flight.begin_track ~id:fault_seed ~name;
      let report = run ~seed:fault_seed (subject (fun msg -> die "%s" msg) ()) in
      let rate t =
        if t > 0.0 then float_of_int report.Silvm_diff.steps_run /. t else 0.0
      in
      Printf.printf "model              : %s\n" name;
      Printf.printf "engine             : %s\n" (Diff_subject.engine_name engine);
      Option.iter
        (fun s ->
          Printf.printf "fault scenario     : %s (seed %d)\n"
            s.Fault_scenario.sname fault_seed)
        scenario;
      Printf.printf "signals compared   : %d per step\n" report.Silvm_diff.signals;
      Printf.printf "steps              : %d / %d\n" report.Silvm_diff.steps_run
        report.Silvm_diff.steps_requested;
      Printf.printf "MIL rate           : %.0f steps/s\n"
        (rate report.Silvm_diff.mil_seconds);
      Printf.printf "SIL rate           : %.0f steps/s\n"
        (rate report.Silvm_diff.sil_seconds);
      (match report.Silvm_diff.divergence with
      | None -> Printf.printf "result             : zero divergence\n"
      | Some d ->
          Printf.printf
            "result             : DIVERGENCE at step %d (t=%g) on %s port %d\n"
            d.Silvm_diff.d_step d.Silvm_diff.d_time d.Silvm_diff.d_block
            d.Silvm_diff.d_port;
          Printf.printf "                     MIL %s  vs  SIL %s\n"
            d.Silvm_diff.d_mil d.Silvm_diff.d_sil;
          if d.Silvm_diff.d_faults <> [] then
            Printf.printf "                     active faults: %s\n"
              (String.concat ", " d.Silvm_diff.d_faults));
      json_report (fun () ->
        [
          ("name", Str name);
          ("git_rev", Str (git_rev ()));
          ("engine", Str (Diff_subject.engine_name engine));
          ("steps_requested", Int report.Silvm_diff.steps_requested);
          ("steps_run", Int report.Silvm_diff.steps_run);
          ("signals", Int report.Silvm_diff.signals);
          ("float_ulp", Int ulp);
          ( "scenario",
            match scenario with
            | Some s -> Str s.Fault_scenario.sname
            | None -> Null );
          ("mil_steps_per_s", Float (rate report.Silvm_diff.mil_seconds));
          ("sil_steps_per_s", Float (rate report.Silvm_diff.sil_seconds));
          ("divergence", divergence_json report.Silvm_diff.divergence);
        ]);
      if report.Silvm_diff.divergence = None then 0 else 1
    end
    else
      (* the seed sweep: one run per fault seed 1..N; its table and
         JSON carry no timing field, so they are identical whatever
         --jobs is *)
      let scn =
        match scenario with
        | Some s -> s
        | None ->
            (* a seed count below 1 is wrong whatever the scenario *)
            Seed_sweep.check_seeds seeds;
            die "--seeds %d: a seed sweep varies the fault stream; give --scenario"
              seeds
      in
      let run_row seed r =
        Obj
          [
            ("seed", Int seed);
            ("steps_run", Int r.Silvm_diff.steps_run);
            ("divergence", divergence_json r.Silvm_diff.divergence);
          ]
      in
      let on_run, finish =
        partial_report
          (if json then Some (Printf.sprintf "DIFF_%s.partial.json" name)
           else None)
          ~head:
            [
              ("name", Str name);
              ("partial", Bool true);
              ("scenario", Str scn.Fault_scenario.sname);
            ]
          ~seeds run_row
      in
      let abort msg = finish (); die "%s" msg in
      let sweep =
        try
          Seed_sweep.run ~jobs ~on_run ~seeds ~track:scn.Fault_scenario.sname
            ~label:("diff:" ^ scn.Fault_scenario.sname)
            ~subject:(subject abort) ~plan:ignore
            (fun () s seed -> run ~seed s)
        with Supervise.Bad_request msg -> abort msg
      in
      finish ();
      (* without a policy every outcome is a report *)
      let reports =
        Array.to_list sweep.Seed_sweep.outcomes
        |> List.map (fun (seed, o) -> (seed, Result.get_ok o.Supervise.result))
      in
      let signals = (snd (List.hd reports)).Silvm_diff.signals in
      Printf.printf "model              : %s\n" name;
      Printf.printf "fault scenario     : %s (seeds 1..%d)\n"
        scn.Fault_scenario.sname seeds;
      Printf.printf "signals compared   : %d per step\n" signals;
      Printf.printf "steps per run      : %d\n" steps;
      let t = Table.create [ "seed"; "result" ] in
      List.iter
        (fun (seed, r) ->
          Table.add_row t
            [
              string_of_int seed;
              (match r.Silvm_diff.divergence with
              | None -> "ok"
              | Some d ->
                  Printf.sprintf "DIVERGENCE at step %d on %s port %d"
                    d.Silvm_diff.d_step d.Silvm_diff.d_block d.Silvm_diff.d_port);
            ])
        reports;
      Table.print t;
      let diverged =
        List.length
          (List.filter (fun (_, r) -> r.Silvm_diff.divergence <> None) reports)
      in
      Printf.printf "divergences        : %d / %d\n" diverged seeds;
      json_report (fun () ->
        [
          ("name", Str name);
          ("git_rev", Str (git_rev ()));
          ("engine", Str (Diff_subject.engine_name engine));
          ("steps_requested", Int steps);
          ("signals", Int signals);
          ("float_ulp", Int ulp);
          ("scenario", Str scn.Fault_scenario.sname);
          ("seeds", Int seeds);
          ("divergences", Int diverged);
          ("runs", Arr (List.map (fun (seed, r) -> run_row seed r) reports));
        ]);
      if diverged = 0 then 0 else 1
  in
  write_flight_bundle name;
  code

let diff_cmd =
  let model_arg =
    Arg.(
      value
      & pos 0 string "servo"
      & info [] ~docv:"MODEL"
          ~doc:
            "Model to diff: $(b,servo) (the controller in closed loop with \
             the DC-motor plant) or $(b,isr-demo) (ADC event-triggered \
             function-call group).")
  in
  let steps =
    Arg.(
      value & opt int 1000
      & info [ "steps" ] ~docv:"N"
          ~doc:"Lock-steps to compare, $(docv) >= 0 (default 1000).")
  in
  let ulp =
    Arg.(
      value & opt int 0
      & info [ "ulp" ] ~docv:"N"
          ~doc:
            "Tolerate $(docv) representable values of float drift per signal \
             (default 0: bit-exact IEEE equality).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Also write the report as DIFF_<model>.json.")
  in
  let engine =
    Arg.(
      value
      & opt (enum Diff_subject.engines) Silvm_diff.Compiled
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "SIL execution engine: $(b,compiled) (closure-compiled, the \
             default), $(b,interp) (the reference engine: the C semantics \
             of the MIR evaluator, run on the lifted model units), or \
             $(b,both) (tri-lockstep: the compiled engine additionally \
             shadows the reference engine and must match it bit-for-bit).")
  in
  let scenario =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"NAME|FILE"
          ~doc:
            "Inject this fault scenario (a built-in name or a $(b,.fault) \
             file) into the sensor stream both sides consume; the servo \
             model gains its safe-state supervisor so the diff covers the \
             recovery paths. A divergence report names the active faults.")
  in
  let fault_seed =
    Arg.(
      value & opt int 1
      & info [ "fault-seed" ] ~docv:"N"
          ~doc:"Seed of the fault injector's random stream (default 1).")
  in
  let seeds =
    Arg.(
      value & opt int 1
      & info [ "seeds" ] ~docv:"N"
          ~doc:
            "Sweep the differential run over fault seeds 1..$(docv), \
             $(docv) >= 1 (default 1: one run with --fault-seed). More \
             than one needs --scenario; shard across domains with \
             --jobs.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "MIL vs SIL differential execution: run the compiled diagram and \
          the generated application in lock-step and report the \
          first diverging block output")
    Term.(
      const diff $ mcu_arg $ period_arg $ fixed_arg $ model_arg $ steps $ ulp
      $ opt_arg $ engine $ scenario $ fault_seed $ seeds $ jobs_arg $ json
      $ no_flight_arg $ profile_arg $ trace_arg $ metrics_arg)

(* ---- supervised execution, shared by faultsim and serve ---- *)

(* NaN compares false with everything, so it would silently mean no
   deadline, like 0 *)
let policy_of_flags ~deadline_s =
  if Float.is_nan deadline_s || deadline_s < 0.0 then
    die "--deadline-s must be >= 0 (0: no deadline), got %g" deadline_s;
  {
    Supervise.deadline_s = (if deadline_s > 0.0 then Some deadline_s else None);
  }

let deadline_arg =
  Arg.(
    value & opt float 0.0
    & info [ "deadline-s" ] ~docv:"SECONDS"
        ~doc:
          "Per-job deadline: a job (one seed's run, or one serve job) \
           running longer than $(docv) is cancelled at the next engine \
           step and reported as a $(b,timeout) failure record. Default \
           0: no deadline; a negative or NaN $(docv) exits 2.")

(* ---- faultsim ---- *)

let faultsim mcu period fixed model_name scenario_ref seeds t_end jobs
    on_error deadline_s list_scn json json_out no_flight trace metrics =
  if list_scn then begin
    List.iter
      (fun s ->
        Printf.printf "%-16s %s\n" s.Fault_scenario.sname
          (String.concat "; " (List.map Fault.name s.Fault_scenario.faults)))
      Fault_scenario.builtins;
    0
  end
  else begin
    let policy = policy_of_flags ~deadline_s in
    (* only a supervised seed has a deadline to apply: abort mode would
       ignore it *)
    if on_error = `Abort && policy.Supervise.deadline_s <> None then
      die "--deadline-s needs --on-error record (abort mode runs seeds \
           unsupervised)";
    with_obs trace metrics @@ fun () ->
    enable_flight no_flight;
    if model_name <> "servo" then
      die "unknown model %S (faultsim drives the servo case study)" model_name;
    (* supervised mode: a failing seed becomes a failure row in the
       report instead of aborting the whole campaign *)
    let policy =
      match on_error with `Abort -> None | `Record -> Some policy
    in
    let scenario = scenario_or_die scenario_ref in
    let mk_subject () =
      try
        fst
          (Servo_system.faultsim_subject ~config:(config mcu period fixed)
             ~scenario ())
      with Invalid_argument msg -> die "%s" msg
    in
    register_exit_flush (fun () -> write_flight_bundle model_name);
    (* the campaign JSON, and the partial one a `die` mid-campaign leaves *)
    let json_path, partial_path =
      match (json, json_out) with
      | false, None -> (None, None)
      | _, Some p -> (Some p, Some (p ^ ".partial"))
      | true, None ->
          ( Some (Printf.sprintf "FAULT_%s.json" model_name),
            Some (Printf.sprintf "FAULT_%s.partial.json" model_name) )
    in
    let on_run, finish =
      let open Bench_json in
      let opt_f = function Some s -> Float s | None -> Null in
      partial_report partial_path
        ~head:
          [
            ("partial", Bool true);
            ("model", Str model_name);
            ("scenario", Str scenario.Fault_scenario.sname);
          ]
        ~seeds
        (fun seed (r : Fault_campaign.run_result) ->
          Obj
            [
              ("seed", Int seed);
              ("detection_s", opt_f r.Fault_campaign.detection_s);
              ("recovery_s", opt_f r.Fault_campaign.recovery_s);
              ("wdog_bites", Int r.Fault_campaign.wdog_bites);
            ])
    in
    let r =
      try
        Fault_campaign.sweep ~t_end ~seeds ~jobs ~scenario
          ~on_run:(fun rr -> on_run rr.Fault_campaign.seed rr)
          ?policy mk_subject
      with Supervise.Bad_request msg ->
        finish ();
        die "%s" msg
    in
    finish ();
    Printf.printf "model              : %s\n" model_name;
    Printf.printf "scenario           : %s\n" r.Fault_campaign.scenario.Fault_scenario.sname;
    List.iter
      (fun f -> Printf.printf "fault              : %s\n" (Fault.name f))
      r.Fault_campaign.scenario.Fault_scenario.faults;
    Printf.printf "runs               : %d seeds x %.2f s (%d steps)\n" seeds
      r.Fault_campaign.t_end r.Fault_campaign.steps_per_run;
    let fmt_opt = function
      | Some s -> Printf.sprintf "%6.1f ms" (1e3 *. s)
      | None -> "      --"
    in
    let t =
      Table.create
        [ "seed"; "detect"; "recovery"; "degraded"; "safestop"; "max";
          "resid rms"; "bites" ]
    in
    List.iter
      (fun (run : Fault_campaign.run_result) ->
        Table.add_row t
          [
            string_of_int run.Fault_campaign.seed;
            fmt_opt run.Fault_campaign.detection_s;
            fmt_opt run.Fault_campaign.recovery_s;
            string_of_int run.Fault_campaign.steps_degraded;
            string_of_int run.Fault_campaign.steps_safestop;
            string_of_int run.Fault_campaign.max_mode;
            Printf.sprintf "%.2f" run.Fault_campaign.residual_rms;
            string_of_int run.Fault_campaign.wdog_bites;
          ])
      r.Fault_campaign.runs;
    Table.print t;
    List.iter
      (fun (seed, e) ->
        Printf.printf "failure            : seed %d %s (%s)\n" seed
          (Supervise.error_class e) (Supervise.error_message e))
      r.Fault_campaign.failures;
    if policy <> None then
      Printf.printf "supervision        : %d/%d seeds ok, %d failed\n"
        (List.length r.Fault_campaign.runs)
        seeds
        (List.length r.Fault_campaign.failures);
    let detected = Fault_campaign.all_detected r in
    let recovered = Fault_campaign.all_recovered r in
    Printf.printf "detected           : %s\n" (if detected then "all runs" else "NOT ALL");
    Printf.printf "recovered          : %s\n" (if recovered then "all runs" else "NOT ALL");
    Option.iter
      (fun path ->
        write_json ~path (Fault_campaign.to_json ~model:model_name r);
        Printf.printf "JSON report written to %s\n" path)
      json_path;
    write_flight_bundle model_name;
    if recovered && r.Fault_campaign.failures = [] then 0 else 1
  end

let faultsim_cmd =
  let model_arg =
    Arg.(
      value
      & pos 0 string "servo"
      & info [] ~docv:"MODEL" ~doc:"Model to abuse (currently $(b,servo)).")
  in
  let scenario =
    Arg.(
      value
      & opt string "encoder-dropout"
      & info [ "scenario" ] ~docv:"NAME|FILE"
          ~doc:
            "Fault scenario: a built-in name (see $(b,--list)) or a \
             $(b,.fault) file.")
  in
  let seeds =
    Arg.(
      value & opt int 5
      & info [ "seeds" ] ~docv:"N"
          ~doc:
            "Campaign size: one run per seed 1..$(docv), $(docv) >= 1 \
             (default 5).")
  in
  let t_end =
    Arg.(
      value & opt float 2.0
      & info [ "t-end" ] ~docv:"SECONDS"
          ~doc:
            "Length of each run (default 2 s): finite, and at least one \
             control period once rounded to whole steps.")
  in
  let list_scn =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the built-in scenarios and exit.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Also write the campaign as FAULT_<model>.json.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE"
          ~doc:"Write the campaign JSON to $(docv) (implies $(b,--json)).")
  in
  let on_error =
    Arg.(
      value
      & opt (enum [ ("abort", `Abort); ("record", `Record) ]) `Abort
      & info [ "on-error" ] ~docv:"abort|record"
          ~doc:
            "What a failing seed does to the campaign. $(b,abort) \
             (default): the first failure kills the run, as before. \
             $(b,record): supervised execution — each seed runs under \
             the $(b,--deadline-s) envelope, failures become per-seed \
             rows in the report, and the campaign completes; exit 1 if \
             any seed failed or never recovered. Failure rows are \
             deterministic, so the report stays byte-identical across \
             $(b,--jobs). $(b,--deadline-s) needs $(b,record): abort \
             mode exits 2 on it.")
  in
  Cmd.v
    (Cmd.info "faultsim"
       ~doc:
         "Fault-injection campaign: sweep a fault scenario over seeds on the \
          closed loop and report the safe-state supervisor's detection \
          latency, recovery time and watchdog bites (exit 1 if any run never \
          recovers)")
    Term.(
      const faultsim $ mcu_arg $ period_arg $ fixed_arg $ model_arg $ scenario
      $ seeds $ t_end $ jobs_arg $ on_error $ deadline_arg $ list_scn $ json
      $ json_out $ no_flight_arg $ trace_arg $ metrics_arg)

(* ---- serve ---- *)

let serve mcu period fixed jobs heartbeat prom no_flight deadline_s queue =
  (* serve always runs instrumented: the registry feeds the heartbeat
     lines, the `stats` job and the --prom snapshot; the flight recorder
     captures forensics of any diverging or unrecovered job *)
  Obs.reset ();
  Obs.set_enabled true;
  enable_flight no_flight;
  let policy = policy_of_flags ~deadline_s in
  (* The first SIGINT/SIGTERM drains the queue, a second one sheds the
     jobs in flight. OCaml 5 delivers signals on an arbitrary domain, so
     the handler only sets flags, which the loop and Cancel tokens poll. *)
  let draining = Atomic.make false in
  let killed = Atomic.make false in
  let on_signal _ =
    if Atomic.get draining then Atomic.set killed true
    else Atomic.set draining true
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  (try
     Serve.loop ~draining ~killed ~config:(config mcu period fixed) ~jobs
       ~heartbeat ~policy ~queue ~out:print_endline Unix.stdin
   with Supervise.Bad_request msg -> die "%s" msg);
  Option.iter
    (fun path ->
      writing (fun () -> Telemetry.write_prometheus ~path);
      Printf.eprintf "prometheus snapshot written to %s\n%!" path)
    prom;
  write_flight_bundle "serve";
  0

let serve_cmd =
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Worker domains (default 0: one per recommended domain, i.e. \
                the machine's cores; at most %d, the OCaml runtime's domain \
                limit)."
               Exec_pool.max_jobs))
  in
  let heartbeat =
    Arg.(
      value & opt int 0
      & info [ "heartbeat" ] ~docv:"N"
          ~doc:
            "Every $(docv) completed jobs, emit one JSON heartbeat line \
             on stdout carrying throughput, the in-flight count and the \
             job-latency quantiles; heartbeat lines have a \
             $(b,heartbeat) field, result lines an $(b,id) field. \
             Default 0: off.")
  in
  let prom =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:
            "After the queue drains, write the metrics registry as a \
             Prometheus text-exposition snapshot to $(docv).")
  in
  let queue =
    Arg.(
      value & opt int 0
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Bounded-queue high-water mark: while $(docv) jobs are \
             admitted but unfinished, further lines are refused with a \
             $(b,\"job\":\"shed\") record (exit field 6) instead of \
             buffering without bound. Default 0: unbounded.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Campaign queue mode: read jobs from stdin (one per line: \
          $(b,faultsim SCENARIO [SEEDS [T_END]]), $(b,diff MODEL [STEPS \
          [SCENARIO [SEED [ENGINE]]]]) or $(b,stats)), run them on a pool \
          of worker domains sharing one job queue and stream one JSON \
          result line per job on stdout, in submission order. Blank \
          lines and $(b,#) comments are skipped. Every job runs \
          supervised: $(b,--deadline-s) bounds its runtime, and failures \
          come back as structured records — $(b,\"class\") is one of \
          bad_request | timeout | crashed | shed, and the per-job \
          $(b,\"exit\") field is 0 success, 1 criterion failure \
          (divergence or unrecovered run), 2 bad request, 3 timeout, 4 \
          crash, 6 shed. SIGINT/SIGTERM stops intake and drains \
          in-flight jobs, then flushes the $(b,--prom) snapshot \
          and the flight bundle before exiting 0; a second signal sheds \
          the in-flight jobs too.")
    Term.(
      const serve $ mcu_arg $ period_arg $ fixed_arg $ jobs $ heartbeat $ prom
      $ no_flight_arg $ deadline_arg $ queue)

(* ---- analyze ---- *)

let analyze mcu period fixed bg_load =
  let cfg = config mcu period fixed in
  let built = build_or_fail cfg in
  let comp = Compile.compile built.Servo_system.controller in
  let arts = Target.generate ~name:"servo" ~project:built.Servo_system.project comp in
  let f_cpu = mcu.Mcu_db.f_cpu_hz in
  let ctrl_wcet =
    float_of_int arts.Target.schedule.Target.total_step_cycles /. f_cpu
  in
  let tasks =
    { Rta.tname = "model_step"; period; wcet = ctrl_wcet; prio = 2 }
    ::
    (if bg_load > 0.0 then
       [ { Rta.tname = "background"; period = 0.73 *. period;
           wcet = bg_load *. 0.73 *. period; prio = 5 } ]
     else [])
  in
  Printf.printf "schedulability of the generated application on %s\n" mcu.Mcu_db.name;
  Printf.printf "utilization: %.2f %% (Liu-Layland bound for %d tasks: %.2f %%)\n"
    (100.0 *. Rta.utilization tasks)
    (List.length tasks)
    (100.0 *. Rta.rm_bound (List.length tasks));
  let t = Table.create [ "task"; "period"; "wcet"; "worst response"; "verdict" ] in
  List.iter
    (fun v ->
      Table.add_row t
        [
          v.Rta.task.Rta.tname;
          Printf.sprintf "%.3f ms" (v.Rta.task.Rta.period *. 1e3);
          Printf.sprintf "%.1f us" (v.Rta.task.Rta.wcet *. 1e6);
          (if Float.is_finite v.Rta.response then
             Printf.sprintf "%.1f us" (v.Rta.response *. 1e6)
           else "unbounded");
          (if v.Rta.schedulable then "OK" else "DEADLINE MISS");
        ])
    (Rta.non_preemptive tasks);
  Table.print t;
  print_endline "(non-preemptive analysis, the policy of the generated code)";
  match Rta.analyze ~preemptive:false tasks with Ok _ -> 0 | Error _ -> 1

let analyze_cmd =
  let bg =
    Arg.(
      value & opt float 0.0
      & info [ "bg-load" ] ~docv:"FRACTION"
          ~doc:"Add a competing background ISR with this CPU share.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Static schedulability (response-time analysis) of the generated schedule")
    Term.(const analyze $ mcu_arg $ period_arg $ fixed_arg $ bg)

(* ---- check ---- *)

let check_models = [ "servo"; "closed-loop"; "plant"; "isr-demo" ]

(* Several models shard over --jobs domains like `diff --seeds`: each
   domain builds its own model (compiles dedup through the cache) and
   the reports print in argument order, so stdout and the JSON file are
   byte-identical whatever --jobs is. *)
let check mcu period fixed model_name preemptive rules suppress jobs json
    strict profile =
  with_obs ~profile None false @@ fun () ->
  let model_names =
    if model_name = "all" then check_models
    else
      String.split_on_char ',' model_name
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
  in
  if model_names = [] then die "no model named in %S" model_name;
  List.iter
    (fun m ->
      if not (List.mem m check_models) then
        die
          "unknown model %S (choose servo, closed-loop, plant, isr-demo, a \
           comma-separated list of those, or all)"
          m)
    model_names;
  let rules =
    Option.map
      (fun list ->
        match Diag.parse_rules list with
        | Ok pats -> pats
        | Error msg -> die "%s in --rules" msg)
      rules
  in
  let suppress =
    List.map
      (fun s ->
        match Diag.parse_suppression s with
        | Ok sup -> sup
        | Error msg -> die "--suppress %s: %s" s msg)
      suppress
  in
  (* die on a bad --mcu/--period before any worker domain spawns *)
  let cfg = config mcu period fixed in
  if List.exists (fun m -> m <> "plant" && m <> "isr-demo") model_names then
    ignore (build_or_fail cfg);
  let check_one name =
    let model, project =
      match name with
      | "servo" ->
          let built = build_or_fail cfg in
          (built.Servo_system.controller, Some built.Servo_system.project)
      | "closed-loop" ->
          let built = build_or_fail cfg in
          (built.Servo_system.closed_loop, Some built.Servo_system.project)
      | "plant" -> (Servo_system.plant_model cfg, None)
      | "isr-demo" ->
          let m, p = Check.hazard_demo ~mcu () in
          (m, Some p)
      | _ -> assert false
    in
    Check.run ?rules ~suppress ~preemptive ?project model
  in
  let names = Array.of_list model_names in
  let n = Array.length names in
  let reports = Exec_pool.map ~jobs n (fun () i -> check_one names.(i)) in
  Array.iter (fun r -> print_string (Check.render r)) reports;
  (match json with
  | Some path ->
      let doc =
        if n = 1 then Check.to_json reports.(0)
        else
          Bench_json.Obj
            [
              ("schema", Bench_json.Str "ecsd-check-multi-1");
              ("git_rev", Bench_json.Str (Bench_json.git_rev ()));
              ( "reports",
                Bench_json.Arr
                  (Array.to_list (Array.map Check.to_json reports)) );
            ]
      in
      write_json ~path doc;
      Printf.printf "JSON report written to %s\n" path
  | None -> ());
  Array.fold_left (fun acc r -> max acc (Check.exit_code ~strict r)) 0 reports

let check_cmd =
  let model_arg =
    Arg.(
      value
      & pos 0 string "servo"
      & info [] ~docv:"MODEL"
          ~doc:
            "Model(s) to check: $(b,servo) (the controller), \
             $(b,closed-loop), $(b,plant), $(b,isr-demo) (a model with an \
             injected ISR shared-state hazard), a comma-separated list of \
             those, or $(b,all). Several models shard across $(b,--jobs) \
             worker domains; the output is identical whatever $(b,--jobs) \
             is.")
  in
  let preemptive =
    Arg.(
      value & flag
      & info [ "preemptive" ]
          ~doc:
            "Assume preemptive ISRs for the concurrency rules (the generated \
             code is non-preemptive; this models enabling nested interrupts).")
  in
  let rules =
    Arg.(
      value
      & opt (some string) None
      & info [ "rules" ] ~docv:"LIST"
          ~doc:
            "Comma-separated rule IDs or families to run (e.g. \
             $(b,FXP,CON001)). Default: all.")
  in
  let suppress =
    Arg.(
      value
      & opt_all string []
      & info [ "suppress" ] ~docv:"SUBJECT:RULE"
          ~doc:
            "Suppress a rule for one subject ($(b,pid:FXP002)) or everywhere \
             ($(b,MIS005)). Repeatable. Suppressed findings stay in the \
             report but do not affect $(b,--strict).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the report as JSON.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Exit 1 when any unsuppressed error-severity finding remains.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Static analysis: model advisor, fixed-point range analysis, ISR \
          shared-state detection, MISRA-subset C lint")
    Term.(
      const check $ mcu_arg $ period_arg $ fixed_arg $ model_arg $ preemptive
      $ rules $ suppress $ jobs_arg $ json $ strict $ profile_arg)

(* ---- simgen ---- *)

let simgen mcu period fixed out_dir =
  let cfg = config mcu period fixed in
  ignore (build_or_fail cfg);
  let m = Servo_system.plant_model cfg in
  let comp = Compile.compile ~default_dt:1e-4 m in
  let arts = Sim_target.generate ~name:"servo" ~baud:cfg.Servo_system.baud comp in
  let files = writing (fun () -> Sim_target.write_to_dir arts ~dir:out_dir) in
  Printf.printf
    "Linux simulator target: %d plant blocks -> %d LoC plant + %d LoC runtime, %.0f us step\n"
    arts.Sim_target.report.Sim_target.n_blocks
    arts.Sim_target.report.Sim_target.plant_loc
    arts.Sim_target.report.Sim_target.runtime_loc
    (arts.Sim_target.report.Sim_target.sim_step *. 1e6);
  Printf.printf "wrote %d files to %s (build with make, run: ./sim /dev/ttyS0)\n"
    (List.length files) out_dir;
  0

let simgen_cmd =
  let out =
    Arg.(
      value & opt string "sim_generated"
      & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "simgen"
       ~doc:"Generate the plant for the Linux simulator PC (the xPC replacement, section 8)")
    Term.(const simgen $ mcu_arg $ period_arg $ fixed_arg $ out)

(* ---- mcus ---- *)

let mcus () =
  let t =
    Table.create [ "name"; "family"; "core"; "clock"; "flash"; "RAM"; "ADC"; "qdec" ]
  in
  List.iter
    (fun m ->
      Table.add_row t
        [
          m.Mcu_db.name;
          m.Mcu_db.family;
          m.Mcu_db.core;
          Printf.sprintf "%.0f MHz" (m.Mcu_db.f_cpu_hz /. 1e6);
          Printf.sprintf "%d KiB" (m.Mcu_db.flash_bytes / 1024);
          Printf.sprintf "%d KiB" (m.Mcu_db.ram_bytes / 1024);
          String.concat "/"
            (List.map string_of_int m.Mcu_db.adc.Mcu_db.resolutions)
          ^ " bit";
          (if m.Mcu_db.has_qdec then "yes" else "no");
        ])
    Mcu_db.all;
  Table.print t;
  0

let mcus_cmd =
  Cmd.v (Cmd.info "mcus" ~doc:"List the MCU database") Term.(const mcus $ const ())

let () =
  let doc = "integrated environment for embedded control systems design" in
  let info = Cmd.info "ecsd" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ inspect_cmd; mil_cmd; codegen_cmd; pil_cmd; diff_cmd; faultsim_cmd;
            serve_cmd; check_cmd; simgen_cmd; analyze_cmd; mcus_cmd ]))

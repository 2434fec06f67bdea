type report = {
  model_name : string;
  findings : Diag.finding list;
  notes : string list;
}

(* per-pass self-profiling: each analysis pass is a span *)
let pass name f = Flight.span ("check." ^ name) f

let run ?rules ?(suppress = []) ?(preemptive = false) ?project m =
  Flight.span "analysis.check" @@ fun () ->
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let comp =
    match pass "compile" (fun () -> Compile.compile m) with
    | c -> Some c
    | exception Compile.Compile_error _ ->
        note
          "range/concurrency/MISRA analyses skipped: the model does not \
           compile (see MDL findings)";
        None
  in
  let lint = pass "lint" (fun () -> Model_lint.findings ?project ?comp m) in
  let deep =
    match comp with
    | None -> []
    | Some comp ->
        let word_bits =
          match project with
          | Some p -> (Bean_project.mcu p).Mcu_db.word_bits
          | None -> 16
        in
        let range_findings =
          pass "range" (fun () -> Range.findings (Range.analyze comp))
        in
        let concurrency_findings =
          pass "concurrency" (fun () ->
              Concurrency.findings ~preemptive ~word_bits comp
              @
              match project with
              | Some p -> Concurrency.watchdog_findings ~project:p comp
              | None -> [])
        in
        let misra_findings =
          match project with
          | None ->
              note "MISRA C lint skipped: no Processor Expert project attached";
              []
          | Some project -> (
              let unsupported =
                List.filter
                  (fun b -> not (Blockgen.supported (Model.spec_of m b)))
                  (Model.blocks m)
              in
              if unsupported <> [] then begin
                note "MISRA C lint skipped: no embedded realisation for %s"
                  (String.concat ", "
                     (List.map
                        (fun b ->
                          Printf.sprintf "%s (%s)" (Model.block_name m b)
                            (Model.spec_of m b).Block.kind)
                        unsupported));
                []
              end
              else
                match
                  pass "codegen" (fun () ->
                      Target.generate ~name:(Model.name m) ~project comp)
                with
                | arts ->
                    pass "misra" (fun () ->
                        Misra.lint
                          (arts.Target.model_h :: arts.Target.model_c
                         :: arts.Target.main_c :: arts.Target.hal)
                        @ Mir_rules.findings arts)
                | exception Target.Codegen_error msg ->
                    note "MISRA C lint skipped: code generation failed: %s" msg;
                    [])
        in
        range_findings @ concurrency_findings @ misra_findings
  in
  let findings =
    List.filter (fun f -> Diag.rule_selected ?rules f.Diag.rule) (lint @ deep)
    |> Diag.apply_suppressions suppress
    |> List.stable_sort Diag.compare_finding
  in
  Obs.incr_counter "analysis.models_checked";
  Obs.incr_counter ~by:(List.length findings) "analysis.findings";
  { model_name = Model.name m; findings; notes = List.rev !notes }

let counts r =
  List.fold_left
    (fun (e, w, i) f ->
      if f.Diag.suppressed then (e, w, i)
      else
        match f.Diag.severity with
        | Diag.Error -> (e + 1, w, i)
        | Diag.Warning -> (e, w + 1, i)
        | Diag.Info -> (e, w, i + 1))
    (0, 0, 0) r.findings

let errors r =
  let e, _, _ = counts r in
  e

let exit_code ~strict r = if strict && errors r > 0 then 1 else 0

let render r =
  let buf = Buffer.create 1024 in
  let e, w, i = counts r in
  Buffer.add_string buf
    (Printf.sprintf "check %s: %d error%s, %d warning%s, %d info\n"
       r.model_name e
       (if e = 1 then "" else "s")
       w
       (if w = 1 then "" else "s")
       i);
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "  %-7s %s %-14s %s%s\n"
           (Diag.severity_to_string f.Diag.severity)
           f.Diag.rule
           (if f.Diag.subject = "" then "-" else f.Diag.subject)
           f.Diag.detail
           (if f.Diag.suppressed then "  [suppressed]" else "")))
    r.findings;
  List.iter (fun n -> Buffer.add_string buf (Printf.sprintf "  note: %s\n" n))
    r.notes;
  Buffer.contents buf

let to_json r =
  let e, w, i = counts r in
  Bench_json.Obj
    [
      ("schema", Bench_json.Str "ecsd-check-1");
      ("model", Bench_json.Str r.model_name);
      ("git_rev", Bench_json.Str (Bench_json.git_rev ()));
      ("errors", Bench_json.Int e);
      ("warnings", Bench_json.Int w);
      ("infos", Bench_json.Int i);
      ( "findings",
        Bench_json.Arr
          (List.map
             (fun f ->
               Bench_json.Obj
                 [
                   ("rule", Bench_json.Str f.Diag.rule);
                   ( "severity",
                     Bench_json.Str (Diag.severity_to_string f.Diag.severity) );
                   ("subject", Bench_json.Str f.Diag.subject);
                   ("detail", Bench_json.Str f.Diag.detail);
                   ("suppressed", Bench_json.Bool f.Diag.suppressed);
                 ])
             r.findings) );
      ("notes", Bench_json.Arr (List.map (fun n -> Bench_json.Str n) r.notes));
    ]

(* The injected ISR shared-state hazard: an ADC end-of-conversion event
   triggers a function-call group that rescales the sample; the periodic
   timer step consumes the rescaled value for the duty command. Two
   signals cross execution contexts: the raw code into the group, the
   filtered volts out of it. *)
let hazard_demo ?(mcu = Mcu_db.mc56f8367) () =
  let p = Bean_project.create mcu in
  let add_bean name config = Bean_project.add p (Bean.make ~name config) in
  let ti = add_bean "TI1" (Bean.Timer_int { period = 1e-3; tolerance_frac = 0.01 }) in
  let ad =
    add_bean "AD1"
      (Bean.Adc { channel = None; resolution = 12; vref = 3.3; sample_period = 1e-3 })
  in
  let pw =
    add_bean "PWM1" (Bean.Pwm { channel = None; freq_hz = 20e3; initial_ratio = 0.0 })
  in
  let m = Model.create "isr_demo" in
  let _timer = Model.add m ~name:"ti" (Periph_blocks.timer_int ti) in
  let pot = Model.add m ~name:"pot" (Sources.constant 1.5) in
  let adc = Model.add m ~name:"adc" (Periph_blocks.adc ad) in
  Model.connect m ~src:(pot, 0) ~dst:(adc, 0);
  (* the end-of-conversion ISR: rescale the sample to volts *)
  let g = Model.fc_group m "adc_filter" in
  let filt =
    Model.add m ~name:"filt"
      (Math_blocks.gain ~dtype:Dtype.Double (Periph_blocks.adc_volts_gain ad))
  in
  Model.assign_group m filt g;
  Model.connect_event m ~src:(adc, 0) g;
  Model.connect m ~src:(adc, 0) ~dst:(filt, 0);
  (* the periodic step consumes the ISR-written value *)
  let duty = Model.add m ~name:"duty" (Math_blocks.gain (1.0 /. 3.3)) in
  let sat = Model.add m ~name:"duty_sat" (Nonlinear_blocks.saturation ~lo:0.0 ~hi:1.0) in
  let pwm = Model.add m ~name:"pwm" (Periph_blocks.pwm pw) in
  Model.connect m ~src:(filt, 0) ~dst:(duty, 0);
  Model.connect m ~src:(duty, 0) ~dst:(sat, 0);
  Model.connect m ~src:(sat, 0) ~dst:(pwm, 0);
  (m, p)

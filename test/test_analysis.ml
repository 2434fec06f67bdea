(* The static-analysis engine: Compile.diagnose, interval soundness,
   the FXP/CON/MIS rule families and the check driver's report. *)

let contains = Astring_contains.contains

(* ---- Compile.diagnose: collects everything, never raises ---- *)

let test_diagnose_collects () =
  let m = Model.create "broken" in
  let g1 = Model.add m (Math_blocks.gain 2.0) in
  let g2 = Model.add m (Math_blocks.sum "++") in
  ignore g1;
  ignore g2;
  let diags = Compile.diagnose m in
  (* three unconnected inputs across two blocks, all collected at once *)
  Alcotest.(check int) "three diagnostics" 3 (List.length diags);
  List.iter
    (fun d ->
      match d.Compile.d_kind with
      | Compile.Unconnected_input _ -> ()
      | _ -> Alcotest.fail "expected Unconnected_input")
    diags;
  (* compile still raises, with the FIRST collected diagnostic's text *)
  (match Compile.compile ~default_dt:0.01 m with
  | _ -> Alcotest.fail "compile should raise"
  | exception Compile.Compile_error msg ->
      Alcotest.(check string)
        "raise matches first diag" (List.hd diags).Compile.d_msg msg);
  (* a clean model diagnoses empty *)
  let ok = Model.create "ok" in
  let s = Model.add ok (Sources.constant 1.0) in
  let g = Model.add ok (Math_blocks.gain 2.0) in
  Model.connect ok ~src:(s, 0) ~dst:(g, 0);
  Alcotest.(check int) "clean model" 0 (List.length (Compile.diagnose ok))

let test_diagnose_loop () =
  let m = Model.create "loop" in
  let a = Model.add m (Math_blocks.gain 0.5) in
  let b = Model.add m (Math_blocks.gain 0.5) in
  Model.connect m ~src:(a, 0) ~dst:(b, 0);
  Model.connect m ~src:(b, 0) ~dst:(a, 0);
  match Compile.diagnose m with
  | [ { Compile.d_kind = Compile.Algebraic_loop names; _ } ] ->
      Alcotest.(check bool) "both blocks named" true (List.length names >= 2)
  | _ -> Alcotest.fail "expected one Algebraic_loop diagnostic"

(* ---- interval soundness: simulated values stay inside ---- *)

(* Same safe palette as the model fuzzer: bounded parameters so acyclic
   compositions cannot blow up. *)
let palette rng =
  let pick l =
    List.nth l
      (QCheck2.Gen.generate1 ~rand:rng
         (QCheck2.Gen.int_bound (List.length l - 1)))
  in
  let g = QCheck2.Gen.generate1 ~rand:rng in
  pick
    [
      (fun () -> Sources.constant (g (QCheck2.Gen.float_range (-2.0) 2.0)));
      (fun () ->
        Sources.step
          ~t_step:(g (QCheck2.Gen.float_range 0.0 0.5))
          ~after:(g (QCheck2.Gen.float_range (-1.0) 1.0))
          ());
      (fun () -> Sources.sine ~amp:(g (QCheck2.Gen.float_range 0.1 2.0)) ());
      (fun () -> Math_blocks.gain (g (QCheck2.Gen.float_range (-0.9) 0.9)));
      (fun () -> Math_blocks.sum "+-");
      (fun () -> Math_blocks.abs_block);
      (fun () -> Math_blocks.min_block);
      (fun () -> Nonlinear_blocks.saturation ~lo:(-3.0) ~hi:3.0);
      (fun () -> Nonlinear_blocks.quantizer ~interval:0.25);
      (fun () -> Discrete_blocks.unit_delay ());
      (fun () -> Discrete_blocks.moving_average 3);
      (fun () -> Discrete_blocks.zoh ~period:0.01 ());
      (fun () -> Math_blocks.cast Dtype.Int16);
      (fun () ->
        let slope = g (QCheck2.Gen.float_range 0.1 2.0) in
        Sources.ramp
          ~start:(g (QCheck2.Gen.float_range 0.01 0.49))
          ~slope:(if Random.State.bool rng then slope else -.slope)
          ());
      (fun () -> Sources.clock);
      (fun () -> Math_blocks.divide);
    ]
    ()

let random_dag ~seed ~size =
  let rng = Random.State.make [| seed |] in
  let m = Model.create (Printf.sprintf "rfuzz%d" seed) in
  let outputs = ref [] in
  let s1 = Model.add m (Sources.constant 1.0) in
  let s2 = Model.add m (Sources.sine ()) in
  outputs := [ (s1, 0); (s2, 0) ];
  for _ = 1 to size do
    let spec = palette rng in
    let blk = Model.add m spec in
    for p = 0 to spec.Block.n_in - 1 do
      let src =
        List.nth !outputs (Random.State.int rng (List.length !outputs))
      in
      Model.connect m ~src ~dst:(blk, p)
    done;
    for p = 0 to spec.Block.n_out - 1 do
      outputs := (blk, p) :: !outputs
    done
  done;
  m

let prop_intervals_sound =
  QCheck2.Test.make
    ~name:"simulated values lie inside the computed intervals" ~count:60
    QCheck2.Gen.(pair (int_range 1 10000) (int_range 1 20))
    (fun (seed, size) ->
      let m = random_dag ~seed ~size in
      let comp = Compile.compile ~default_dt:0.01 m in
      let ranges = Range.analyze comp in
      let sim = Sim.create comp in
      let ports =
        List.concat_map
          (fun b ->
            let spec = Model.spec_of m b in
            List.init spec.Block.n_out (fun p -> (b, p)))
          (Model.blocks m)
      in
      List.iter (Sim.probe sim) ports;
      Sim.run sim ~until:0.5 ();
      List.for_all
        (fun port ->
          match Range.interval ranges port with
          | None -> false (* executed ports must not be bottom *)
          | Some { Itv.lo; hi } ->
              let tol =
                1e-6
                *. Float.max 1.0
                     (Float.max (Float.abs lo) (Float.abs hi))
              in
              let tol = if Float.is_finite tol then tol else 0.0 in
              List.for_all
                (fun (_, v) ->
                  (not (Float.is_finite v))
                  || (v >= lo -. tol && v <= hi +. tol))
                (Sim.trace sim port))
        ports)

(* Clock / (Ramp + 1) has infinite bounds on both operands; its
   quotient, scaled and cast to Int16, still gets a NaN-free interval and
   the cast an FXP001 *)
let test_unbounded_quotient () =
  let m = Model.create "quotient" in
  let add spec = Model.add m spec in
  let clock = add Sources.clock and ramp = add (Sources.ramp ~slope:1.0 ()) in
  let one = add (Sources.constant 1.0) and sum = add (Math_blocks.sum "++") in
  let div = add Math_blocks.divide and gain = add (Math_blocks.gain 4e4) in
  let cast = add (Math_blocks.cast Dtype.Int16) in
  List.iter
    (fun (src, dst) -> Model.connect m ~src ~dst)
    [ ((ramp, 0), (sum, 0)); ((one, 0), (sum, 1)); ((clock, 0), (div, 0));
      ((sum, 0), (div, 1)); ((div, 0), (gain, 0)); ((gain, 0), (cast, 0)) ];
  let ranges = Range.analyze (Compile.compile ~default_dt:0.01 m) in
  List.iter
    (fun b ->
      List.iter
        (fun get ->
          match get ranges (b, 0) with
          | Some { Itv.lo; hi } ->
              Alcotest.(check bool)
                (Model.block_name m b ^ " has no NaN bound")
                false
                (Float.is_nan lo || Float.is_nan hi)
          | None -> Alcotest.fail "reachable port is bottom")
        [ Range.interval; Range.raw_interval ])
    [ clock; ramp; one; sum; div; gain; cast ];
  Alcotest.(check (list string))
    "the cast may saturate" [ "FXP001" ]
    (List.filter_map
       (fun f ->
         if f.Diag.subject = Model.block_name m cast then Some f.Diag.rule
         else None)
       (Range.findings ranges))

(* ---- the seeded Q15 overflow on the fixed-point servo (E2) ---- *)

let fixed_servo () =
  let built =
    Servo_system.build
      ~config:
        { Servo_system.default_config with
          Servo_system.variant = Servo_system.Fixed_pid }
      ()
  in
  (built.Servo_system.controller, built.Servo_system.project)

let test_fxp002_servo () =
  let model, project = fixed_servo () in
  let report = Check.run ~project model in
  let overflow =
    List.filter
      (fun f -> f.Diag.rule = "FXP002" && f.Diag.subject = "pid")
      report.Check.findings
  in
  Alcotest.(check int) "one FXP002 on pid" 1 (List.length overflow);
  let f = List.hd overflow in
  Alcotest.(check bool) "error severity" true (f.Diag.severity = Diag.Error);
  Alcotest.(check bool) "names the Q format" true (contains f.Diag.detail "Q15");
  Alcotest.(check int) "strict exit 1" 1 (Check.exit_code ~strict:true report);
  Alcotest.(check int) "lenient exit 0" 0 (Check.exit_code ~strict:false report);
  (* the float variant of the same controller carries no FXP error *)
  let built = Servo_system.build () in
  let clean = Check.run ~project:built.Servo_system.project
      built.Servo_system.controller in
  Alcotest.(check int) "float servo clean" 0 (Check.errors clean)

let test_fxp_suppression () =
  let model, project = fixed_servo () in
  let sup =
    match Diag.parse_suppression "pid:FXP002" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let report = Check.run ~project ~suppress:[ sup ] model in
  Alcotest.(check int) "suppressed -> no errors" 0 (Check.errors report);
  Alcotest.(check int) "strict exit 0" 0 (Check.exit_code ~strict:true report);
  (* the finding is marked, not dropped *)
  Alcotest.(check bool) "still reported" true
    (List.exists
       (fun f -> f.Diag.rule = "FXP002" && f.Diag.suppressed)
       report.Check.findings);
  Alcotest.(check bool) "render flags it" true
    (contains (Check.render report) "[suppressed]")

(* ---- the injected ISR shared-state hazard ---- *)

let test_concurrency_demo () =
  let model, project = Check.hazard_demo () in
  let rtc = Check.run ~project model in
  let has rule l = List.exists (fun f -> f.Diag.rule = rule) l in
  Alcotest.(check bool) "CON002 info under run-to-completion" true
    (has "CON002" rtc.Check.findings);
  Alcotest.(check bool) "no CON001 when non-preemptive" false
    (has "CON001" rtc.Check.findings);
  Alcotest.(check bool) "CON003 torn double on 16-bit word" true
    (has "CON003" rtc.Check.findings);
  let pre = Check.run ~project ~preemptive:true model in
  let races =
    List.filter (fun f -> f.Diag.rule = "CON001") pre.Check.findings
  in
  Alcotest.(check int) "two unprotected signals when preemptive" 2
    (List.length races);
  Alcotest.(check int) "preemptive strict exit 1" 1
    (Check.exit_code ~strict:true pre)

(* ---- MISRA lint: seeded violations and generated-code cleanliness ---- *)

let test_misra_detects () =
  let open C_ast in
  let bad =
    {
      ret = I16;
      fname = "bad";
      args = [ (I32, "x") ];
      body =
        [
          Decl (I16, "y", Some (Var "x"));
          (* narrowing I32 -> I16 *)
          If
            ( Bin (">", Var "x", Int_lit 0),
              [
                Decl (I32, "x", Some (Int_lit 1));
                (* shadows the argument *)
                Return (Some (Var "y"));
              ],
              [] );
          Return (Some (Int_lit 0));
          (* second exit point *)
        ];
      fcomment = None;
      static = false;
    }
  in
  let cu = { unit_name = "bad.c"; items = [ Func_def bad ] } in
  let fs = Misra.lint [ cu ] in
  let has rule = List.exists (fun f -> f.Diag.rule = rule) fs in
  Alcotest.(check bool) "MIS001 two returns" true (has "MIS001");
  Alcotest.(check bool) "MIS002 shadowing" true (has "MIS002");
  Alcotest.(check bool) "MIS003 narrowing" true (has "MIS003")

let test_misra_generated_clean () =
  (* every generated unit for the E4 MCU sweep lints free of MISRA
     errors and warnings (MIS005 escape-hatch infos are expected: the
     support runtimes carry verbatim items). mc9s12dp256 has no
     quadrature decoder, so its build may be rejected -- that is the E4
     experiment's own finding, not a lint failure. *)
  List.iter
    (fun mcu ->
      let cfg = { Servo_system.default_config with Servo_system.mcu } in
      match Servo_system.build ~config:cfg () with
      | exception _ -> ()
      | built -> (
          let comp =
            Compile.compile ~default_dt:cfg.Servo_system.control_period
              built.Servo_system.controller
          in
          match
            Target.generate ~name:"servo_ctl"
              ~project:built.Servo_system.project comp
          with
          | exception Target.Codegen_error _ -> ()
          | arts ->
              let units =
                arts.Target.model_h :: arts.Target.model_c
                :: arts.Target.main_c :: arts.Target.hal
              in
              let offenders =
                List.filter
                  (fun f -> f.Diag.severity <> Diag.Info)
                  (Misra.lint units)
              in
              List.iter
                (fun f ->
                  Printf.printf "%s: %s %s %s\n" mcu.Mcu_db.name f.Diag.rule
                    f.Diag.subject f.Diag.detail)
                offenders;
              Alcotest.(check int)
                (Printf.sprintf "%s lints clean" mcu.Mcu_db.name)
                0 (List.length offenders)))
    [ Mcu_db.mc56f8367; Mcu_db.mcf5213; Mcu_db.mc9s12dp256 ]

(* ---- report rendering and the JSON document ---- *)

let test_render_and_json () =
  let model, project = fixed_servo () in
  let report = Check.run ~project model in
  let text = Check.render report in
  Alcotest.(check bool) "header names model" true
    (contains text "check servo_ctl:");
  Alcotest.(check bool) "lists the overflow" true (contains text "FXP002");
  let json = Bench_json.to_string (Check.to_json report) in
  let doc = Bench_json.parse json in
  let str k =
    match Bench_json.member k doc with
    | Some (Bench_json.Str s) -> s
    | _ -> Alcotest.fail (k ^ " missing")
  in
  let num k =
    match Bench_json.member k doc with
    | Some (Bench_json.Int n) -> n
    | _ -> Alcotest.fail (k ^ " missing")
  in
  Alcotest.(check string) "schema" "ecsd-check-1" (str "schema");
  Alcotest.(check string) "model" "servo_ctl" (str "model");
  Alcotest.(check int) "one error" 1 (num "errors");
  match Bench_json.member "findings" doc with
  | Some (Bench_json.Arr fs) ->
      Alcotest.(check bool) "findings serialised" true (List.length fs > 0);
      let rule_of f =
        match Bench_json.member "rule" f with
        | Some (Bench_json.Str s) -> s
        | _ -> ""
      in
      Alcotest.(check bool) "FXP002 present" true
        (List.exists (fun f -> rule_of f = "FXP002") fs)
  | _ -> Alcotest.fail "findings array missing"

let test_rule_selection () =
  let model, project = fixed_servo () in
  let report = Check.run ~rules:[ "FXP" ] ~project model in
  Alcotest.(check bool) "only FXP family" true
    (List.for_all
       (fun f -> String.sub f.Diag.rule 0 3 = "FXP")
       report.Check.findings);
  Alcotest.(check bool) "overflow retained" true
    (List.exists (fun f -> f.Diag.rule = "FXP002") report.Check.findings)

(* --rules is user input: any byte string is Ok with catalogue rules
   only, or an Error, never an exception *)
let prop_parse_rules =
  let known ri = [ ri.Diag.id; ri.Diag.family ] in
  let names = List.concat_map known Diag.catalogue in
  QCheck2.Test.make ~name:"--rules: any bytes parse to catalogue rules or an error"
    ~count:1000 ~print:QCheck2.Print.string
    QCheck2.Gen.(
      oneof
        [
          string;
          map (String.concat ",")
            (list_size (int_range 1 4)
               (oneof
                  [ oneofl names; map (fun n -> " " ^ n ^ "\t") (oneofl names);
                    string_small ]));
        ])
    (fun s ->
      match Diag.parse_rules s with
      | Ok pats -> pats <> [] && List.for_all (fun p -> List.mem p names) pats
      | Error _ -> true)

let test_parse_rules () =
  let show = function
    | Ok l -> "Ok " ^ String.concat "|" l
    | Error e -> "Error " ^ e
  in
  List.iter
    (fun (input, want) ->
      Alcotest.(check string) input want (show (Diag.parse_rules input)))
    [
      (" FXP , CON001", "Ok FXP|CON001");
      ("MIS005", "Ok MIS005");
      ("FXP,bogus,XXX", "Error unknown rule \"bogus\"");
      ("FXP,", "Error unknown rule \"\"");
      ("", "Error unknown rule \"\"");
    ]

(* `ecsd check MODELS --jobs N` shards models over N domains; the
   rendered reports must be byte-identical to the serial run whatever
   the worker count. Exercised here at the library level: the same
   Check.run per model, serial vs Exec_pool.map, compared as one string. *)
let test_check_jobs_byte_identical () =
  let check_one name =
    match name with
    | "plant" ->
        Check.run (Servo_system.plant_model Servo_system.default_config)
    | "isr-demo" ->
        let m, p = Check.hazard_demo () in
        Check.run ~project:p m
    | _ ->
        let b = Servo_system.build () in
        Check.run ~project:b.Servo_system.project b.Servo_system.controller
  in
  let names = [| "servo"; "plant"; "isr-demo" |] in
  let render reports =
    String.concat "" (Array.to_list (Array.map Check.render reports))
  in
  let serial = render (Array.map check_one names) in
  let pooled =
    render
      (Exec_pool.map ~jobs:3 (Array.length names) (fun () i ->
           check_one names.(i)))
  in
  Alcotest.(check string) "jobs 1 vs 3 byte-identical" serial pooled

let suite =
  [
    Alcotest.test_case "diagnose collects" `Quick test_diagnose_collects;
    Alcotest.test_case "diagnose loop" `Quick test_diagnose_loop;
    Alcotest.test_case "unbounded quotient" `Quick test_unbounded_quotient;
    QCheck_alcotest.to_alcotest prop_intervals_sound;
    Alcotest.test_case "FXP002 servo overflow" `Quick test_fxp002_servo;
    Alcotest.test_case "suppression" `Quick test_fxp_suppression;
    Alcotest.test_case "ISR hazard demo" `Quick test_concurrency_demo;
    Alcotest.test_case "MISRA seeded violations" `Quick test_misra_detects;
    Alcotest.test_case "MISRA generated units" `Quick test_misra_generated_clean;
    Alcotest.test_case "render + JSON" `Quick test_render_and_json;
    Alcotest.test_case "rule selection" `Quick test_rule_selection;
    Alcotest.test_case "--rules parsing" `Quick test_parse_rules;
    QCheck_alcotest.to_alcotest prop_parse_rules;
    Alcotest.test_case "check --jobs is byte-identical" `Quick
      test_check_jobs_byte_identical;
  ]

(* Compiled SIL execution: the closure compiler checked bit-for-bit
   against the reference engine (Mir_eval, "interp") AND the MIL engine.

   Every differential here runs [Silvm_diff.Both]: MIL vs compiled in
   lock-step, with a shadow reference engine the compiled engine must
   match bit-identically on every block output of every step. A
   compiled-vs-reference mismatch surfaces as a divergence whose MIL
   column is prefixed "interp:", so the two failure modes are
   distinguishable in the report. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mcu = Mcu_db.mc56f8367
let empty_project () = Bean_project.create mcu

let diff_both ?steps ?opt ?stimulus ~name m =
  let comp = Compile.compile ~default_dt:0.01 m in
  Silvm_diff.run ?steps ?opt ~engine:Silvm_diff.Both ?stimulus ~name
    ~project:(empty_project ()) comp

let fail_divergence what seed size (d : Silvm_diff.divergence) =
  QCheck2.Test.fail_reportf
    "seed=%d size=%d diverged at step %d on %s[%d]: %s vs SIL=%s" seed size
    d.Silvm_diff.d_step d.Silvm_diff.d_block d.Silvm_diff.d_port
    d.Silvm_diff.d_mil d.Silvm_diff.d_sil what

(* ---------------- equivalence properties ---------------- *)

(* moderate counts here: the 10× SILVM_FUZZ_COUNT budget is consumed by
   the Exec_pool-sharded battery below, where parallelism pays for it *)
let prop_count = max 20 (Test_silvm.fuzz_count / 10)

let prop_compiled_interp_float =
  QCheck2.Test.make
    ~name:
      "random float diagrams: compiled and interpreted SIL bit-identical \
       (tri-lockstep, 300 steps)"
    ~count:prop_count
    QCheck2.Gen.(pair (int_range 300001 400000) (int_range 1 18))
    (fun (seed, size) ->
      let m = Test_model_fuzz.random_dag ~seed ~size in
      let r = diff_both ~steps:300 ~name:"cfuzz" m in
      match r.Silvm_diff.divergence with
      | None -> true
      | Some d -> fail_divergence "(float dag)" seed size d)

let prop_compiled_interp_int =
  QCheck2.Test.make
    ~name:
      "random quantised diagrams: compiled and interpreted SIL bit-identical \
       (tri-lockstep, 300 steps)"
    ~count:prop_count
    QCheck2.Gen.(pair (int_range 400001 500000) (int_range 1 18))
    (fun (seed, size) ->
      let m = Test_silvm.random_int_dag ~seed ~size in
      let r = diff_both ~steps:300 ~name:"cifuzz" m in
      match r.Silvm_diff.divergence with
      | None -> true
      | Some d -> fail_divergence "(int dag)" seed size d)

(* ---------------- tri-lockstep goldens ---------------- *)

let servo_both ?(fixed = false) steps =
  let config =
    if fixed then
      { Servo_system.default_config with
        Servo_system.variant = Servo_system.Fixed_pid }
    else Servo_system.default_config
  in
  let b = Servo_system.build ~config () in
  let comp = Compile.compile b.Servo_system.controller in
  let plant = Servo_system.pil_plant b in
  let driver = Servo_system.pil_driver b in
  Silvm_diff.run ~steps ~engine:Silvm_diff.Both
    ~plant:(Silvm_diff.Plant (plant, driver))
    ~name:"servo" ~project:b.Servo_system.project comp

let test_servo_both_1000 () =
  Test_silvm.check_no_divergence "servo tri-lockstep (float)"
    (servo_both 1000)

let test_servo_fixed_both_1000 () =
  Test_silvm.check_no_divergence "servo tri-lockstep (fixed)"
    (servo_both ~fixed:true 1000)

let test_isr_demo_both_1000 () =
  let m, project = Check.hazard_demo ~mcu () in
  let comp = Compile.compile m in
  let stimulus k = [| k * 37 mod 4096 |] in
  let r =
    Silvm_diff.run ~steps:1000 ~engine:Silvm_diff.Both ~stimulus
      ~name:"isr_demo" ~project comp
  in
  Test_silvm.check_no_divergence "isr-demo tri-lockstep" r

(* a real divergence must be caught by the comparators themselves (the
   ECSD_DIVERGE_AT drill skips them). The ADC word 70000 is out of the
   16-bit range: MIL's ADC source saturates it to 65535, while the
   generated code's 16-bit exchange buffer wraps it to 4464. This pins
   today's saturate-vs-wrap asymmetry between the two sides. *)
let test_isr_demo_out_of_range_adc_caught () =
  let m, project = Check.hazard_demo ~mcu () in
  let comp = Compile.compile m in
  let stimulus k = [| (if k = 3 then 70000 else k * 37 mod 4096) |] in
  List.iter
    (fun (what, engine) ->
      let r =
        Silvm_diff.run ~steps:10 ~engine ~stimulus ~name:"isr_demo" ~project
          comp
      in
      match r.Silvm_diff.divergence with
      | None -> Alcotest.failf "%s: the wrapped ADC word went unnoticed" what
      | Some d ->
          check_int (what ^ ": step") 3 d.Silvm_diff.d_step;
          check_int (what ^ ": steps run") 3 r.Silvm_diff.steps_run;
          Alcotest.(check string) (what ^ ": block") "adc" d.Silvm_diff.d_block;
          check_int (what ^ ": port") 0 d.Silvm_diff.d_port;
          Alcotest.(check string)
            (what ^ ": MIL value") "65535:uint16" d.Silvm_diff.d_mil;
          Alcotest.(check string)
            (what ^ ": SIL value") "4464:u16" d.Silvm_diff.d_sil)
    [
      ("compiled", Silvm_diff.Compiled);
      ("interp", Silvm_diff.Interp);
      ("both", Silvm_diff.Both);
    ]

(* ---------------- the Q15 PID against its own C ---------------- *)

(* A FixPid block between two signal sources, compared bit for bit at
   every step: MIL (Pid.Fixpoint) against the compiled engine running
   the generated C, shadowed by the reference engine, with the MIR
   optimizer off and on. *)
let fix_pid_divergence ~steps ~ts ~in_scale ~out_scale g sp pv =
  let m = Model.create "fixpid" in
  let pid =
    Model.add m ~name:"pid"
      (Discrete_blocks.fix_pid ~ts ~in_scale ~out_scale g)
  in
  let sp = Model.add m ~name:"sp" sp and pv = Model.add m ~name:"pv" pv in
  let out = Model.add m ~name:"u" (Routing_blocks.outport 1) in
  Model.connect m ~src:(sp, 0) ~dst:(pid, 0);
  Model.connect m ~src:(pv, 0) ~dst:(pid, 1);
  Model.connect m ~src:(pid, 0) ~dst:(out, 0);
  let comp = Compile.compile ~default_dt:ts m in
  List.find_map
    (fun opt ->
      let r =
        Silvm_diff.run ~steps ~opt ~engine:Silvm_diff.Both ~name:"fixpid"
          ~project:(empty_project ()) comp
      in
      Option.map (fun d -> (opt, d)) r.Silvm_diff.divergence)
    [ false; true ]

let fix_pid_steps = 200

(* a signal as segments of (steps, value), played by a setpoint
   schedule whose switch times fall mid-step *)
let schedule_of ~ts segments =
  let _, entries =
    List.fold_left
      (fun (k, acc) (len, v) ->
        let t = if k = 0 then 0.0 else (float_of_int k -. 0.5) *. ts in
        (k + len, (t, v) :: acc))
      (0, []) segments
  in
  Sources.setpoint_schedule (List.rev entries)

type fix_case = {
  g : Pid.gains;
  ts : float;
  in_scale : float;
  out_scale : float;
  sp : (int * float) list;
  pv : (int * float) list;
}

let gen_fix_case =
  let open QCheck2.Gen in
  let gain =
    oneof
      [ return 0.0; float_range 0.0 1.0; float_range 0.0 100.0;
        (* Q16.16 coefficients at the int32 bound: the products wrap *)
        float_range 0.0 1e6 ]
  in
  let* ts = oneofl [ 1e-3; 2e-3; 5e-4 ] in
  let* kp = gain and* ki = gain and* kd = gain in
  (* N = 1/Ts makes the filter decay 1/(1+N*Ts) exactly 0.5 *)
  let* n = oneof [ return 0.0; return (1.0 /. ts); float_range 1.0 1e4 ] in
  let* u_max = oneof [ return infinity; float_range 0.0 100.0 ] in
  let* in_scale = oneof [ return 512.0; float_range 1.0 1e4 ] in
  let* out_scale = oneof [ return 24.0; float_range 0.1 100.0 ] in
  let value =
    oneof
      [
        (* inside Q15 and just past it, of either sign *)
        float_range (-2.0 *. in_scale) (2.0 *. in_scale);
        (* quantisation ties *)
        map
          (fun k -> in_scale *. (float_of_int k +. 0.5) /. 32768.0)
          (int_range (-40000) 40000);
        (* far past Q15: the error saturates, e*2^15 past the int32 range *)
        float_range (-1e9) 1e9;
        oneofl [ 0.0; in_scale; -.in_scale; 4e7; -4e7 ];
      ]
  in
  let signal = list_size (int_range 1 12) (pair (int_range 1 40) value) in
  let* sp = signal and* pv = signal in
  return
    {
      g = Pid.gains ~kp ~ki ~kd ~n ~u_min:(-.u_max) ~u_max ();
      ts; in_scale; out_scale; sp; pv;
    }

let print_fix_case c =
  let seg l =
    String.concat "; " (List.map (fun (n, v) -> Printf.sprintf "%dx%h" n v) l)
  in
  Printf.sprintf
    "kp=%h ki=%h kd=%h n=%h u=[%h, %h] ts=%g in=%h out=%h sp=[%s] pv=[%s]"
    c.g.Pid.kp c.g.Pid.ki c.g.Pid.kd c.g.Pid.n c.g.Pid.u_min c.g.Pid.u_max
    c.ts c.in_scale c.out_scale (seg c.sp) (seg c.pv)

let prop_fix_pid_matches_c =
  QCheck2.Test.make
    ~name:
      "random Q15 PIDs: MIL, compiled and interpreted SIL bit-identical \
       (tri-lockstep, --opt off and on)"
    ~count:prop_count ~print:print_fix_case gen_fix_case
    (fun c ->
      match
        fix_pid_divergence ~steps:fix_pid_steps ~ts:c.ts ~in_scale:c.in_scale
          ~out_scale:c.out_scale c.g (schedule_of ~ts:c.ts c.sp)
          (schedule_of ~ts:c.ts c.pv)
      with
      | None -> true
      | Some (opt, d) ->
          QCheck2.Test.fail_reportf
            "opt=%b diverged at step %d on %s[%d]: %s vs SIL=%s" opt
            d.Silvm_diff.d_step d.Silvm_diff.d_block d.Silvm_diff.d_port
            d.Silvm_diff.d_mil d.Silvm_diff.d_sil)

(* a negative tie in the derivative filter (decay exactly 0.5): a
   product rounded half away from zero instead of up, as pe_mul_shift
   rounds it, is one LSB off at step 86 *)
let test_fix_pid_negative_tie () =
  let g = Pid.gains ~kp:0.03 ~ki:2.5 ~kd:0.05 ~n:1000.0 () in
  match
    fix_pid_divergence ~steps:fix_pid_steps ~ts:1e-3 ~in_scale:512.0
      ~out_scale:24.0 g
      (Sources.sine ~amp:400.0 ~freq_hz:3.0 ())
      (Sources.constant 10.0)
  with
  | None -> ()
  | Some (opt, d) ->
      Alcotest.failf "opt=%b: diverged at step %d on %s[%d]: %s vs SIL=%s" opt
        d.Silvm_diff.d_step d.Silvm_diff.d_block d.Silvm_diff.d_port
        d.Silvm_diff.d_mil d.Silvm_diff.d_sil

(* ---------------- per-signal comparators ---------------- *)

(* [Silvm_diff.agree], resolved once per signal, must decide exactly as
   [values_agree] on the cell's boxed value ([Vi (t, n)] or
   [Vf (fty, x)]), and the probe must box to that same value, which is
   what divergence text prints *)
let float_edges =
  [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 4.9e-324;
    -4.9e-324; 2.2250738585072009e-308; Float.min_float; Float.max_float;
    1.0; -1.0; 0.5; 65535.0; -32768.0; 4294967295.0; 1e300 ]

let ity_range (t : Mir.ity) =
  let bits = t.Mir.bits in
  if t.Mir.signed then (-(1 lsl (bits - 1)), (1 lsl (bits - 1)) - 1)
  else (0, (1 lsl bits) - 1)

let gen_float =
  QCheck2.Gen.(
    oneof
      [
        oneofl float_edges;
        float;
        map Int64.float_of_bits (map Int64.of_int int);
        map float_of_int (int_range (-70000) 70000);
        (* subnormals of either sign *)
        map2
          (fun neg m ->
            let x = Int64.float_of_bits (Int64.of_int m) in
            if neg then -.x else x)
          bool (int_range 1 ((1 lsl 52) - 1));
      ])

let gen_mil =
  let open QCheck2.Gen in
  let int_dt =
    oneofl
      Dtype.[ Int8; Uint8; Int16; Uint16; Int32; Uint32 ]
  in
  oneof
    [
      map (fun b -> Value.B b) bool;
      ( int_dt >>= fun dt ->
        let lo, hi = Option.get (Dtype.integer_range dt) in
        map
          (fun n -> Value.I (dt, n))
          (oneof [ oneofl [ lo; hi; 0; lo + 1; hi - 1 ]; int_range lo hi ]) );
      map (fun x -> Value.F x) gen_float;
    ]

(* a probe value: independent of the MIL value, or derived from it so
   that agreement (and near-agreement in ulps) is exercised too *)
let gen_probe_value mil =
  let open QCheck2.Gen in
  let ity =
    oneofl
      (List.concat_map
         (fun bits ->
           [ { Mir.bits; signed = true }; { Mir.bits; signed = false } ])
         [ 8; 16; 32 ])
  in
  let near x =
    map
      (fun d ->
        if Float.is_nan x then x
        else
          Int64.float_of_bits
            (Int64.add (Int64.bits_of_float x) (Int64.of_int d)))
      (int_range (-3) 3)
  in
  let derived =
    match mil with
    | Value.F x -> near x
    | mil -> return (Value.to_float mil)
  in
  let int_of x t =
    let lo, hi = ity_range t in
    if Float.is_nan x then 0
    else
      Float.to_int
        (Float.max (float_of_int lo) (Float.min (float_of_int hi) x))
  in
  oneof
    [
      ( ity >>= fun t ->
        let lo, hi = ity_range t in
        map
          (fun n -> `I (t, n))
          (oneof
             [
               oneofl [ lo; hi; 0; lo + 1; hi - 1 ];
               int_range lo hi;
               map (fun x -> int_of x t) derived;
             ]) );
      ( pair (oneofl [ Mir.Tf32; Mir.Tf64 ]) (oneof [ gen_float; derived ])
      >|= fun (fty, x) ->
        `F (fty, if fty = Mir.Tf32 then Mir_eval.round_f32 x else x) );
    ]

let gen_mode =
  QCheck2.Gen.(
    oneof
      [
        return Silvm_diff.Exact;
        map (fun n -> Silvm_diff.Ulp n) (int_range 0 4);
      ])

let comparator_st =
  lazy (Silvm_compile.instantiate (Silvm_compile.compile []))

let print_case (mode, mil, pv) =
  Printf.sprintf "mode=%s mil=%s probe=%s"
    (match mode with
    | Silvm_diff.Exact -> "exact"
    | Silvm_diff.Ulp n -> Printf.sprintf "ulp %d" n)
    (match mil with
    | Value.F x -> Printf.sprintf "F %h" x
    | Value.I (dt, n) -> Printf.sprintf "I (%s, %d)" (Dtype.to_string dt) n
    | Value.B b -> Printf.sprintf "B %b" b)
    (match pv with
    | `I (t, n) ->
        Printf.sprintf "TI (%c%d, %d)"
          (if t.Mir.signed then 'i' else 'u')
          t.Mir.bits n
    | `F (fty, x) ->
        Printf.sprintf "TF (%s, %h)"
          (if fty = Mir.Tf32 then "f32" else "f64")
          x)

let prop_comparators_match_values_agree =
  QCheck2.Test.make
    ~name:
      "resolved per-signal comparators match values_agree on the boxed \
       value"
    ~count:(max 2000 Test_silvm.fuzz_count) ~print:print_case
    QCheck2.Gen.(
      pair gen_mode gen_mil >>= fun (mode, mil) ->
      map (fun pv -> (mode, mil, pv)) (gen_probe_value mil))
    (fun (mode, mil, pv) ->
      let st = Lazy.force comparator_st in
      (* the cell's boxed value *)
      let typed, old_boxed =
        match pv with
        | `I (t, n) ->
            (Silvm_compile.TI (t, fun _ -> n), Mir_eval.Vi (t, Int64.of_int n))
        | `F (fty, x) ->
            (Silvm_compile.TF (fty, fun _ -> x), Mir_eval.Vf (fty, x))
      in
      let probe = Silvm_app.Compiled_probe (typed, st) in
      Silvm_diff.agree mode probe mil
      = Silvm_diff.values_agree mode mil old_boxed
      && String.equal
           (Mir_eval.to_string (Silvm_app.probe_value probe))
           (Mir_eval.to_string old_boxed))

(* ---------------- batched Bigarray path ---------------- *)

(* the servo PWM duty trace through [run_n_steps]: the compiled engine's
   batched path must reproduce the golden trace (same checksum, same
   spot values) and the whole 1000×1 actuator trace must be
   byte-identical to a reference-engine run under the vectorized
   comparison *)
let servo_trace engine =
  let b = Servo_system.build () in
  let comp = Compile.compile b.Servo_system.controller in
  let plant = Servo_system.pil_plant b in
  let driver = Servo_system.pil_driver b in
  let app =
    Silvm_app.create ~engine ~name:"servo" ~project:b.Servo_system.project
      comp
  in
  Silvm_app.initialize app;
  let base = comp.Compile.base_dt in
  let stimulus k =
    driver.Pil_cosim.read_sensors plant ~time:(float_of_int k *. base)
  in
  let feedback _ row =
    driver.Pil_cosim.apply_actuators plant row;
    driver.Pil_cosim.advance plant ~dt:base
  in
  Silvm_app.run_n_steps ~stimulus ~feedback app 1000

let test_batched_golden_duty () =
  let trace = servo_trace `Compiled in
  check_int "trace steps" 1000 (Bigarray.Array2.dim1 trace);
  let sum = ref 0 in
  for k = 0 to 999 do
    sum := !sum + Bigarray.Array2.get trace k 0
  done;
  let golden_sum, spots = Test_silvm.golden_sil_duty in
  check_int "batched duty trace checksum" golden_sum !sum;
  List.iter
    (fun (i, expected) ->
      check_int
        (Printf.sprintf "batched duty[%d]" i)
        expected
        (Bigarray.Array2.get trace i 0))
    spots

let test_batched_traces_identical () =
  let compiled = servo_trace `Compiled in
  let interp = servo_trace `Interp in
  (match Silvm_app.compare_traces compiled interp with
  | None -> ()
  | Some (k, s) ->
      Alcotest.failf
        "compiled and reference traces differ at step %d slot %d: %d vs %d"
        k s
        (Bigarray.Array2.get compiled k s)
        (Bigarray.Array2.get interp k s));
  (* and the comparator actually detects a flipped word *)
  Bigarray.Array2.set interp 500 0 (Bigarray.Array2.get interp 500 0 lxor 1);
  check_bool "comparator catches a 1-bit flip" true
    (Silvm_app.compare_traces compiled interp = Some (500, 0))

(* ---------------- sharded differential-fuzz battery ----------------

   The SILVM_FUZZ_COUNT budget (10× in CI) runs here, sharded over
   Exec_pool. Per-case seeds are derived from the root seed by index —
   a Weyl sequence, so the case list is a pure function of (root,
   count) and the battery's outcome cannot depend on --jobs or on the
   pool's schedule. *)

let root_seed = 0xEC5D

let case_seed i = (root_seed + (i * 0x9E3779B9)) land 0x3FFFFFFF

(* one tri-lockstep case: even indices draw from the float-dag
   generator, odd from the quantised one; the rendered outcome is a
   canonical string so whole batteries can be compared byte-wise *)
let run_case i =
  let seed = case_seed i in
  let size = 1 + (seed mod 18) in
  let m =
    if i mod 2 = 0 then
      Test_model_fuzz.random_dag ~seed:(1 + (seed mod 100000)) ~size
    else Test_silvm.random_int_dag ~seed ~size
  in
  let r = diff_both ~steps:200 ~name:(Printf.sprintf "sfuzz%d" i) m in
  match r.Silvm_diff.divergence with
  | None -> Printf.sprintf "%d:ok" i
  | Some d ->
      Printf.sprintf "%d:step=%d block=%s port=%d %s vs %s" i
        d.Silvm_diff.d_step d.Silvm_diff.d_block d.Silvm_diff.d_port
        d.Silvm_diff.d_mil d.Silvm_diff.d_sil

let run_battery ~jobs count = Exec_pool.map ~jobs count (fun () -> run_case)

let test_sharded_fuzz_battery () =
  let count = Test_silvm.fuzz_count in
  let jobs = min 8 (Domain.recommended_domain_count ()) in
  let results = run_battery ~jobs count in
  Array.iter
    (fun r ->
      if not (String.length r >= 3 && String.sub r (String.length r - 2) 2 = "ok")
      then Alcotest.failf "sharded fuzz case diverged: %s" r)
    results

let test_sharded_fuzz_jobs_identity () =
  (* the battery's rendered outcome must be byte-identical whatever the
     worker count: per-case seeds come from the index, never from
     execution order *)
  let count = 24 in
  let seq = run_battery ~jobs:1 count in
  let par = run_battery ~jobs:4 count in
  check_int "same case count" (Array.length seq) (Array.length par);
  Array.iteri
    (fun i s ->
      Alcotest.(check string) (Printf.sprintf "case %d" i) s par.(i))
    seq

(* ---------------- compile-once caching ---------------- *)

let servo_units ?(variant = Servo_system.Float_pid) () =
  let b =
    Servo_system.build ~config:{ Servo_system.default_config with Servo_system.variant } ()
  in
  let comp = Compile.compile b.Servo_system.controller in
  let arts =
    Target.generate ~mode:Blockgen.Pil ~name:"servo"
      ~project:b.Servo_system.project comp
  in
  [ arts.Target.model_h; arts.Target.model_c ]

let test_compile_cache_dedup () =
  Silvm_compile.cache_clear ();
  let units = servo_units () in
  let c1 = Silvm_compile.compile_cached units in
  let c2 = Silvm_compile.compile_cached units in
  check_bool "second submission reuses the compiled code" true (c1 == c2);
  let hits, misses = Silvm_compile.cache_stats () in
  check_int "one miss" 1 misses;
  check_int "one hit" 1 hits;
  (* independently regenerated but identical units share the entry *)
  let c3 = Silvm_compile.compile_cached (servo_units ()) in
  check_bool "regenerated identical units hit the cache" true (c1 == c3);
  (* two instances over one code are independent states *)
  let s1 = Silvm_compile.instantiate c1 in
  let s2 = Silvm_compile.instantiate c1 in
  ignore (Silvm_compile.call c1 s1 "servo_initialize" []);
  ignore (Silvm_compile.call c1 s2 "servo_initialize" []);
  Silvm_compile.set_sensor s1 0 2048;
  ignore (Silvm_compile.call c1 s1 "servo_step" []);
  check_int "s2 actuator untouched by s1's step" 0 (Silvm_compile.actuator s2 0)

let test_compile_cache_mutation_recompiles () =
  Silvm_compile.cache_clear ();
  let mk lines =
    let config =
      { Servo_system.default_config with Servo_system.encoder_lines = lines }
    in
    let b = Servo_system.build ~config () in
    let comp = Compile.compile b.Servo_system.controller in
    let arts =
      Target.generate ~mode:Blockgen.Pil ~name:"servo"
        ~project:b.Servo_system.project comp
    in
    Silvm_compile.compile_cached [ arts.Target.model_h; arts.Target.model_c ]
  in
  let a = mk 100 in
  let b = mk 200 in
  check_bool "mutated model does not share compiled code" true (a != b);
  let _, misses = Silvm_compile.cache_stats () in
  check_int "two distinct compilations" 2 misses

let test_compile_cache_map () =
  (* repeated submissions of the same content hash across domains: the
     model-level Compile_cache and the SIL closure cache both dedup —
     worker races may duplicate a first compile but never one per job.
     A bean project is mutable (code generation re-resolves it), so each
     domain builds its own servo, as the CLI's seed sweep does *)
  Compile_cache.clear ();
  Silvm_compile.cache_clear ();
  let jobs = 4 and n = 12 in
  let results =
    Exec_pool.map ~jobs n (fun () ->
        let b = Servo_system.build () in
        fun i ->
          let comp = Compile_cache.compile b.Servo_system.controller in
          let app =
            Silvm_app.create ~name:"servo" ~project:b.Servo_system.project comp
          in
          Silvm_app.initialize app;
          Silvm_app.set_sensor app 0 (i * 100);
          Silvm_app.step app;
          Silvm_app.actuator app 0)
  in
  check_int "all jobs ran" n (Array.length results);
  let mhits, mmisses, _ = Compile_cache.stats () in
  let shits, smisses = Silvm_compile.cache_stats () in
  check_int "model compiles accounted" n (mhits + mmisses);
  check_bool "model cache misses bounded by workers" true (mmisses <= jobs);
  check_int "sil compiles accounted" n (shits + smisses);
  check_bool "sil cache misses bounded by workers" true
    (smisses >= 1 && smisses <= jobs)

(* ---------------- unsupported constructs stay lazy ---------------- *)

let test_lazy_unsupported_functions () =
  (* the pe_* helper bodies the Q15 controller's unit carries declare
     int64_t locals, outside the compiled subset; compilation of the
     unit must still succeed (their call sites are intrinsics) and the
     failure must only surface if such a function is actually invoked *)
  let code =
    Silvm_compile.compile_cached (servo_units ~variant:Servo_system.Fixed_pid ())
  in
  let st = Silvm_compile.instantiate code in
  ignore (Silvm_compile.call code st "servo_initialize" []);
  ignore (Silvm_compile.call code st "servo_step" []);
  check_bool "helper is present" true (Silvm_compile.has_func code "pe_sat_add32");
  check_bool "invoking the 64-bit helper raises Unsupported" true
    (match
       Silvm_compile.call code st "pe_sat_add32"
         [ Mir_eval.vi Mir_eval.i32 1L; Mir_eval.vi Mir_eval.i32 2L ]
     with
    | _ -> false
    | exception Mir_eval.Unsupported _ -> true)

(* ---------------- what SIL runs is all MIR ---------------- *)

let count_opaque (l : Mir_unit.lifted) =
  let n = ref 0 in
  let expr = function Mir.Eopaque _ -> incr n | _ -> () in
  let stmt = function Mir.Sopaque _ -> incr n | _ -> () in
  List.iter (fun (_, body) -> List.iter (Mir.iter_stmt ~expr ~stmt) body)
    l.Mir_unit.funcs;
  !n

let test_sil_units_lift_without_opaque_nodes () =
  (* both SIL engines execute MIR only: the PIL-mode model units lift
     with no opaque node, so nothing falls outside the IR *)
  let check what ~name ~project comp =
    let arts = Target.generate ~mode:Blockgen.Pil ~name ~project comp in
    let l =
      Mir_unit.lift ~header:arts.Target.model_h.C_ast.items
        arts.Target.model_c
    in
    check_bool (what ^ " lifts some functions") true (l.Mir_unit.funcs <> []);
    check_int (what ^ ": opaque nodes") 0 (count_opaque l)
  in
  List.iter
    (fun (what, variant) ->
      let config = { Servo_system.default_config with Servo_system.variant } in
      let b = Servo_system.build ~config () in
      check what ~name:"servo" ~project:b.Servo_system.project
        (Compile.compile b.Servo_system.controller))
    [ ("servo float", Servo_system.Float_pid); ("servo Q15", Servo_system.Fixed_pid) ];
  let m, project = Check.hazard_demo ~mcu () in
  check "isr-demo" ~name:"isr_demo" ~project (Compile.compile m)

let test_opaque_statement_fails_lazily () =
  (* a leftover opaque node is outside both engines: the unit still
     loads, and Unsupported surfaces only when that function runs *)
  let open C_ast in
  let items =
    [
      Global { gty = I32; gname = "x"; ginit = Some (Int_lit 0); volatile = false; static = false };
      Func_def (func Void "ok" [] [ Assign (Var "x", Int_lit 7) ]);
      Func_def (func Void "opaque" [] [ Raw "__asm__(\"nop\");" ]);
    ]
  in
  let unit_ = { unit_name = "t.c"; items } in
  let raises_unsupported f =
    match f () with _ -> false | exception Mir_eval.Unsupported _ -> true
  in
  let code = Silvm_compile.compile [ unit_ ] in
  let st = Silvm_compile.instantiate code in
  ignore (Silvm_compile.call code st "ok" []);
  (match Silvm_compile.reader code (Var "x") with
  | Silvm_compile.TI (t, get) ->
      check_bool "compiled: x reads as int32" true (t = Mir_eval.i32);
      check_int "compiled: the other function ran" 7 (get st)
  | Silvm_compile.TF _ -> Alcotest.fail "compiled: x read as a float");
  check_bool "compiled: calling it raises Unsupported" true
    (raises_unsupported (fun () -> Silvm_compile.call code st "opaque" []));
  let l = Mir_unit.lift ~header:[] unit_ in
  let m = Mir_eval.create l.Mir_unit.env items l.Mir_unit.funcs in
  ignore (Mir_eval.call m "ok" []);
  check_bool "reference: calling it raises Unsupported" true
    (raises_unsupported (fun () -> Mir_eval.call m "opaque" []))

let qtest t = QCheck_alcotest.to_alcotest t

let suite =
  [
    Alcotest.test_case "servo: 1000-step tri-lockstep (float)" `Slow
      test_servo_both_1000;
    Alcotest.test_case "servo: 1000-step tri-lockstep (fixed)" `Slow
      test_servo_fixed_both_1000;
    Alcotest.test_case "fix_pid: negative derivative tie matches its C" `Quick
      test_fix_pid_negative_tie;
    Alcotest.test_case "isr-demo: 1000-step tri-lockstep" `Quick
      test_isr_demo_both_1000;
    Alcotest.test_case "isr-demo: out-of-range ADC word is a divergence"
      `Quick test_isr_demo_out_of_range_adc_caught;
    Alcotest.test_case "batched run: golden PWM duty trace" `Slow
      test_batched_golden_duty;
    Alcotest.test_case "batched run: compiled trace == interpreted trace"
      `Slow test_batched_traces_identical;
    Alcotest.test_case "sharded fuzz battery (Exec_pool, tri-lockstep)" `Slow
      test_sharded_fuzz_battery;
    Alcotest.test_case "sharded fuzz: jobs=1 and jobs=4 byte-identical" `Slow
      test_sharded_fuzz_jobs_identity;
    Alcotest.test_case "compile cache: same hash, no recompilation" `Quick
      test_compile_cache_dedup;
    Alcotest.test_case "compile cache: mutated model recompiles" `Quick
      test_compile_cache_mutation_recompiles;
    Alcotest.test_case "compile caches dedup across map domains" `Quick
      test_compile_cache_map;
    Alcotest.test_case "unsupported 64-bit helpers fail lazily" `Quick
      test_lazy_unsupported_functions;
    Alcotest.test_case "SIL units lift with no opaque nodes" `Quick
      test_sil_units_lift_without_opaque_nodes;
    Alcotest.test_case "an opaque statement fails only when called" `Quick
      test_opaque_statement_fails_lazily;
    qtest prop_compiled_interp_float;
    qtest prop_compiled_interp_int;
    qtest prop_fix_pid_matches_c;
    qtest prop_comparators_match_values_agree;
  ]

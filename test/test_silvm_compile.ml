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

let run_battery ~jobs count =
  if jobs <= 1 then Array.init count run_case
  else
    Exec_pool.with_pool ~workers:jobs (fun pool ->
        Exec_pool.run_map pool count run_case)

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

let servo_units () =
  let b = Servo_system.build () in
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

let test_compile_cache_run_map () =
  (* repeated submissions of the same content hash across a pool: the
     model-level Compile_cache and the SIL closure cache both dedup —
     worker races may duplicate a first compile but never one per job.
     A bean project is mutable (code generation re-resolves it), so each
     domain builds its own servo, as the CLI's seed sweep does *)
  Compile_cache.clear ();
  Silvm_compile.cache_clear ();
  let servo = Domain.DLS.new_key (fun () -> Servo_system.build ()) in
  let jobs = 4 and n = 12 in
  let results =
    Exec_pool.with_pool ~workers:jobs (fun pool ->
        Exec_pool.run_map pool n (fun i ->
            let b = Domain.DLS.get servo in
            let comp = Compile_cache.compile b.Servo_system.controller in
            let app =
              Silvm_app.create ~name:"servo"
                ~project:b.Servo_system.project comp
            in
            Silvm_app.initialize app;
            Silvm_app.set_sensor app 0 (i * 100);
            Silvm_app.step app;
            Silvm_app.actuator app 0))
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
  (* the emitted pe_* helper bodies declare int64_t locals, outside the
     compiled subset; compilation of the unit must still succeed (their
     call sites are intrinsics) and the failure must only surface if
     such a function is actually invoked *)
  let code = Silvm_compile.compile_cached (servo_units ()) in
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
  check_int "compiled: the other function ran" 7
    (Int64.to_int
       (Mir_eval.to_int64 (Silvm_compile.reader code (Var "x") st)));
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
    Alcotest.test_case "isr-demo: 1000-step tri-lockstep" `Quick
      test_isr_demo_both_1000;
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
    Alcotest.test_case "compile cache: run_map submissions dedup" `Quick
      test_compile_cache_run_map;
    Alcotest.test_case "unsupported 64-bit helpers fail lazily" `Quick
      test_lazy_unsupported_functions;
    Alcotest.test_case "SIL units lift with no opaque nodes" `Quick
      test_sil_units_lift_without_opaque_nodes;
    Alcotest.test_case "an opaque statement fails only when called" `Quick
      test_opaque_statement_fails_lazily;
    qtest prop_compiled_interp_float;
    qtest prop_compiled_interp_int;
  ]

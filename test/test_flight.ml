(* The flight recorder: ring overflow semantics, track filtering,
   capture-once, multi-domain stress (no tearing), bundle byte-identity
   whatever the worker count, the forced-divergence drill, and the
   Telemetry exports built on the Obs registry. Recorder state is
   process-global, so every test starts from [Flight.reset] and restores
   the defaults. *)

let with_flight ?(capacity = 4096) f =
  Flight.reset ();
  Flight.set_capacity capacity;
  Flight.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Flight.set_enabled false;
      Flight.set_capacity 4096;
      Flight.reset ())
    f

(* oldest evicted first: 20 events through an 8-slot ring leave exactly
   the last 8, and the bundle counts the 12 casualties *)
let test_ring_overflow () =
  with_flight ~capacity:8 @@ fun () ->
  Flight.begin_track ~id:7 ~name:"servo";
  for i = 0 to 19 do
    Flight.step_mark ~step:i ~time:(float_of_int i *. 1e-3) "servo"
  done;
  Flight.capture ~reason:"overflow test";
  match Flight.captures () with
  | [ b ] ->
      Alcotest.(check int) "track" 7 b.Flight.b_track;
      Alcotest.(check string) "name" "servo" b.Flight.b_name;
      Alcotest.(check int) "survivors" 8 (List.length b.Flight.b_events);
      Alcotest.(check int) "dropped" 12 b.Flight.b_dropped;
      Alcotest.(check (list int))
        "last 8 seqs, ascending"
        [ 12; 13; 14; 15; 16; 17; 18; 19 ]
        (List.map (fun e -> e.Flight.ev_seq) b.Flight.b_events);
      List.iter
        (fun e ->
          Alcotest.(check int) "step = seq for step marks" e.Flight.ev_seq
            e.Flight.ev_step)
        b.Flight.b_events
  | bs -> Alcotest.failf "expected one bundle, got %d" (List.length bs)

(* a capture snapshots only the current track: the other track's events
   and the engine pseudo-track never leak into the bundle, and the first
   capture of a track wins *)
let test_track_filtering_and_capture_once () =
  with_flight @@ fun () ->
  Flight.begin_track ~id:1 ~name:"one";
  for i = 0 to 9 do
    Flight.step_mark ~step:i ~time:0.0 "one"
  done;
  Flight.engine "cache.hit deadbeef";
  Flight.begin_track ~id:2 ~name:"two";
  for i = 0 to 4 do
    Flight.signal ~step:i ~time:0.0 ~port:0 ~value:(float_of_int i) "sig"
  done;
  Flight.fault ~time:0.1 ~fired:true "encoder-dropout";
  Flight.capture ~reason:"first";
  Flight.capture ~reason:"second";
  match Flight.captures () with
  | [ b ] ->
      Alcotest.(check int) "track" 2 b.Flight.b_track;
      Alcotest.(check string) "first capture wins" "first" b.Flight.b_reason;
      Alcotest.(check int) "only track-2 events" 6
        (List.length b.Flight.b_events);
      List.iter
        (fun e -> Alcotest.(check int) "track field" 2 e.Flight.ev_track)
        b.Flight.b_events;
      (match List.rev b.Flight.b_events with
      | last :: _ ->
          Alcotest.(check string) "fault label" "encoder-dropout"
            last.Flight.ev_label;
          Alcotest.(check int) "fired flag" 1 last.Flight.ev_arg
      | [] -> Alcotest.fail "empty bundle")
  | bs -> Alcotest.failf "expected one bundle, got %d" (List.length bs)

(* a synthetic campaign: [tracks] runs of [events] deterministic events
   each, sharded (or not) over a pool; every run captures at its end *)
let run_campaign ~workers ~tracks ~events ~capacity =
  Flight.reset ();
  Flight.set_capacity capacity;
  Flight.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Flight.set_enabled false;
      Flight.set_capacity 4096)
  @@ fun () ->
  let work i =
    let id = i + 1 in
    Flight.begin_track ~id ~name:"stress";
    for k = 0 to events - 1 do
      Flight.signal ~step:k
        ~time:(float_of_int k *. 1e-3)
        ~port:(k land 3)
        ~value:(float_of_int ((id * 100_000) + k))
        "sig"
    done;
    Flight.capture ~reason:(Printf.sprintf "end of run %d" id);
    id
  in
  ignore (Exec_pool.map ~jobs:workers tracks (fun () -> work));
  let bundles = Flight.captures () in
  let jsonl = Flight.captures_jsonl () in
  Flight.reset ();
  (bundles, jsonl)

(* 16 runs x 2000 events racing over 4 domains into 1024-slot rings:
   every bundle must still hold exactly the last 1024 events of its own
   run with all fields consistent — any torn or cross-track slot fails *)
let test_multidomain_stress_no_tearing () =
  let tracks = 16 and events = 2000 and capacity = 1024 in
  let bundles, _ =
    run_campaign ~workers:4 ~tracks ~events ~capacity
  in
  Alcotest.(check int) "all runs captured" tracks (List.length bundles);
  List.iteri
    (fun i b ->
      let id = i + 1 in
      Alcotest.(check int) "bundles sorted by track" id b.Flight.b_track;
      Alcotest.(check int) "exactly capacity survivors" capacity
        (List.length b.Flight.b_events);
      Alcotest.(check int) "dropped = events - capacity" (events - capacity)
        b.Flight.b_dropped;
      List.iteri
        (fun j e ->
          let k = events - capacity + j in
          if
            e.Flight.ev_seq <> k
            || e.Flight.ev_track <> id
            || e.Flight.ev_step <> k
            || e.Flight.ev_arg <> k land 3
            || e.Flight.ev_value <> float_of_int ((id * 100_000) + k)
            || e.Flight.ev_label <> "sig"
          then
            Alcotest.failf "torn event: track %d slot %d (seq %d)" id j
              e.Flight.ev_seq)
        b.Flight.b_events)
    bundles

(* the correctness bar of the recorder: the merged JSONL document is
   byte-identical whether the campaign ran serially or on 4 domains *)
let test_bundle_byte_identity_across_jobs () =
  let tracks = 8 and events = 300 and capacity = 256 in
  let _, s1 = run_campaign ~workers:1 ~tracks ~events ~capacity in
  let _, s4 = run_campaign ~workers:4 ~tracks ~events ~capacity in
  Alcotest.(check bool) "jsonl non-trivial" true (String.length s1 > 1000);
  Alcotest.(check bool) "jobs 1 vs jobs 4 byte-identical" true (s1 = s4);
  (* and stable across repetition on the same worker count *)
  let _, s4' = run_campaign ~workers:4 ~tracks ~events ~capacity in
  Alcotest.(check bool) "jobs 4 repeat byte-identical" true (s4 = s4')

(* the CI drill hook: ECSD_DIVERGE_AT fabricates a divergence at step k
   and the recorder auto-captures a bundle for the failing run *)
let test_forced_divergence_capture () =
  with_flight @@ fun () ->
  Unix.putenv "ECSD_DIVERGE_AT" "25";
  Fun.protect ~finally:(fun () -> Unix.putenv "ECSD_DIVERGE_AT" "")
  @@ fun () ->
  let built = Servo_system.build () in
  let comp = Compile.compile built.Servo_system.controller in
  let plant = Servo_system.pil_plant built in
  let driver = Servo_system.pil_driver built in
  Flight.begin_track ~id:1 ~name:"servo";
  let r =
    Silvm_diff.run ~steps:100 ~float_mode:Silvm_diff.Exact
      ~engine:Silvm_diff.Compiled
      ~plant:(Silvm_diff.Plant (plant, driver))
      ~name:"servo" ~project:built.Servo_system.project comp
  in
  (match r.Silvm_diff.divergence with
  | Some d ->
      Alcotest.(check int) "diverged at forced step" 25 d.Silvm_diff.d_step;
      Alcotest.(check string) "forced marker block" "__forced"
        d.Silvm_diff.d_block
  | None -> Alcotest.fail "ECSD_DIVERGE_AT did not force a divergence");
  match Flight.captures () with
  | [ b ] ->
      Alcotest.(check int) "bundle on track 1" 1 b.Flight.b_track;
      Alcotest.(check bool) "bundle has events" true (b.Flight.b_events <> []);
      Alcotest.(check bool) "reason names the divergence" true
        (Astring_contains.contains b.Flight.b_reason "divergence at step 25");
      let last = List.hd (List.rev b.Flight.b_events) in
      Alcotest.(check bool) "last event is the divergence mark" true
        (Astring_contains.contains last.Flight.ev_label "divergence")
  | bs -> Alcotest.failf "expected one bundle, got %d" (List.length bs)

(* a disabled recorder records nothing and captures nothing *)
let test_disabled_is_inert () =
  Flight.reset ();
  Flight.set_enabled false;
  Flight.begin_track ~id:9 ~name:"off";
  Flight.step_mark ~step:0 ~time:0.0 "off";
  Flight.capture ~reason:"should not exist";
  Alcotest.(check int) "no captures" 0 (List.length (Flight.captures ()));
  Alcotest.(check string) "empty jsonl" "" (Flight.captures_jsonl ())

let sensor_stuck = Option.get (Fault_scenario.builtin "sensor-stuck")

(* an unrecovered 1 s sensor-stuck campaign: every seed captures *)
let stuck_campaign ~seeds =
  ignore
    (Fault_campaign.sweep ~t_end:1.0 ~seeds ~scenario:sensor_stuck (fun () ->
         fst (Servo_system.faultsim_subject ~scenario:sensor_stuck ())))

(* a track id recorded twice on one domain (serve reuses job ids on a
   worker; here two campaigns in one process) captures its latest
   recording only: the second bundle is the first one again, not both
   recordings with a negative dropped count *)
let test_reused_track_id () =
  with_flight @@ fun () ->
  stuck_campaign ~seeds:1;
  let first = Flight.captures_jsonl () in
  Flight.clear_captures ();
  stuck_campaign ~seeds:1;
  (match Flight.captures () with
  | [ b ] ->
      Alcotest.(check int) "dropped" 0 b.Flight.b_dropped;
      Alcotest.(check int) "one recording" 1002 (List.length b.Flight.b_events)
  | bs -> Alcotest.failf "expected one bundle, got %d" (List.length bs));
  Alcotest.(check string) "same bundle as the first campaign" first
    (Flight.captures_jsonl ())

(* two serve faultsim jobs with the same unrecovered seed each leave a
   bundle: a job's seeds record under tracks of their own *)
let test_serve_jobs_own_bundles () =
  with_flight @@ fun () ->
  let line = "faultsim sensor-stuck 1 1.0" in
  List.iter
    (fun id ->
      let fields =
        Serve.job ~id ~policy:Supervise.default_policy
          ~config:Servo_system.default_config ~stats:(fun () -> []) line
      in
      Alcotest.(check string) "unrecovered" "1"
        (Bench_json.to_string (List.assoc "exit" fields)))
    [ 0; 1 ];
  match Flight.captures () with
  | [ a; b ] ->
      Alcotest.(check (list int)) "one track per job's seed"
        [ (1 lsl 32) + 1; (2 lsl 32) + 1 ]
        [ a.Flight.b_track; b.Flight.b_track ];
      Alcotest.(check int) "same run, same events"
        (List.length a.Flight.b_events) (List.length b.Flight.b_events)
  | bs -> Alcotest.failf "expected two bundles, got %d" (List.length bs)

(* a seed run twice under one track id (two sweeps, like a serve
   worker's successive jobs) restarts the track: the bundle holds the
   second recording's events, not the first's as well *)
let test_restarted_track () =
  with_flight @@ fun () ->
  let sweep n =
    let r =
      Seed_sweep.run ~policy:Supervise.default_policy ~seeds:1 ~track:"rerun"
        ~label:"rerun" ~subject:ignore ~plan:ignore (fun () () _ ->
          for k = 0 to n - 1 do
            Flight.step_mark ~step:k ~time:(float_of_int k *. 1e-3) "rerun"
          done;
          if n = 12 then Flight.capture ~reason:"rerun")
    in
    match r.Seed_sweep.outcomes with
    | [| (1, { Supervise.result = Ok () }) |] -> ()
    | _ -> Alcotest.fail "expected seed 1 to succeed"
  in
  sweep 20;
  sweep 12;
  match Flight.captures () with
  | [ b ] ->
      Alcotest.(check int) "track" 1 b.Flight.b_track;
      Alcotest.(check int) "dropped" 0 b.Flight.b_dropped;
      Alcotest.(check (list int))
        "the second recording's seqs" (List.init 12 Fun.id)
        (List.map (fun e -> e.Flight.ev_seq) b.Flight.b_events)
  | bs -> Alcotest.failf "expected one bundle, got %d" (List.length bs)

(* host spans have their own ring: a campaign's bundles are the same
   bytes whether Obs records spans or not, even when the track ring is
   smaller than one run *)
let test_spans_never_change_capture () =
  let run ~obs =
    Obs.reset ();
    Obs.set_enabled obs;
    Fun.protect ~finally:(fun () ->
        Obs.set_enabled false;
        Obs.reset ())
    @@ fun () ->
    with_flight ~capacity:64 @@ fun () ->
    stuck_campaign ~seeds:2;
    ( List.length (Flight.spans ()),
      Flight.captures_jsonl (),
      Flight.captures_chrome () )
  in
  let n0, jsonl0, chrome0 = run ~obs:false in
  let n1, jsonl1, chrome1 = run ~obs:true in
  Alcotest.(check bool) "two bundles" true (String.length jsonl0 > 0);
  Alcotest.(check string) "jsonl unchanged by spans" jsonl0 jsonl1;
  Alcotest.(check string) "trace unchanged by spans" chrome0 chrome1;
  Alcotest.(check int) "no spans without Obs" 0 n0;
  Alcotest.(check bool) "spans with Obs" true (n1 > 0)

(* Telemetry: the Prometheus exposition and the serve heartbeat line are
   both projections of the Obs registry snapshot *)
let test_telemetry_exports () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
  @@ fun () ->
  Obs.incr_counter ~by:3 "silvm.steps";
  Obs.set_gauge "exec.injector_depth" 2.0;
  Obs.record_named "serve.job_s" 0.5;
  Obs.record_named "serve.job_s" 1.0;
  let p = Telemetry.prometheus () in
  let has s = Astring_contains.contains p s in
  Alcotest.(check bool) "counter type line" true
    (has "# TYPE ecsd_silvm_steps counter");
  Alcotest.(check bool) "counter value" true (has "ecsd_silvm_steps 3");
  Alcotest.(check bool) "gauge value" true (has "ecsd_exec_injector_depth 2");
  Alcotest.(check bool) "summary type line" true
    (has "# TYPE ecsd_serve_job_s summary");
  Alcotest.(check bool) "p95 quantile line" true (has "quantile=\"0.95\"");
  Alcotest.(check bool) "summary count" true (has "ecsd_serve_job_s_count 2");
  let line = Telemetry.heartbeat_line ~jobs_done:4 ~inflight:1 ~wall_s:2.0 in
  let doc = Bench_json.parse line in
  let num k =
    match Bench_json.member k doc with
    | Some (Bench_json.Float f) -> f
    | Some (Bench_json.Int i) -> float_of_int i
    | _ -> Alcotest.failf "heartbeat field %s missing" k
  in
  (match Bench_json.member "heartbeat" doc with
  | Some (Bench_json.Bool true) -> ()
  | _ -> Alcotest.fail "heartbeat marker field");
  Alcotest.(check (float 1e-9)) "jobs_done" 4.0 (num "jobs_done");
  Alcotest.(check (float 1e-9)) "inflight" 1.0 (num "inflight");
  Alcotest.(check (float 1e-9)) "jobs_per_s" 2.0 (num "jobs_per_s");
  (* log-scale histogram: <= ~6 % relative quantile error *)
  let p50 = num "job_p50_s" in
  if Float.abs (p50 -. 0.5) /. 0.5 > 0.07 then
    Alcotest.failf "job_p50_s expected ~0.5, got %g" p50;
  Alcotest.(check (float 1e-9)) "job_max_s exact" 1.0 (num "job_max_s")

let suite =
  [
    Alcotest.test_case "ring overflow evicts oldest" `Quick test_ring_overflow;
    Alcotest.test_case "track filtering and capture-once" `Quick
      test_track_filtering_and_capture_once;
    Alcotest.test_case "4-domain stress, no tearing" `Quick
      test_multidomain_stress_no_tearing;
    Alcotest.test_case "bundle byte-identity across --jobs" `Quick
      test_bundle_byte_identity_across_jobs;
    Alcotest.test_case "forced divergence auto-captures" `Quick
      test_forced_divergence_capture;
    Alcotest.test_case "disabled recorder is inert" `Quick
      test_disabled_is_inert;
    Alcotest.test_case "prometheus + heartbeat exports" `Quick
      test_telemetry_exports;
    Alcotest.test_case "reused track id captures one recording" `Quick
      test_reused_track_id;
    Alcotest.test_case "serve faultsim jobs keep their own bundles" `Quick
      test_serve_jobs_own_bundles;
    Alcotest.test_case "rerun seed captures the last recording" `Quick
      test_restarted_track;
    Alcotest.test_case "host spans never change a capture" `Quick
      test_spans_never_change_capture;
  ]

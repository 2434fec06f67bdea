(* Supervised execution: the error taxonomy, deadline cancellation,
   retry/backoff determinism, seeded orchestrator chaos, run_map error
   recording, the pool error hook, and the supervised fault campaign's
   jobs-count independence. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---- cancellation tokens ---- *)

let test_cancel_noop () =
  (* no token installed: poll is a no-op, not a crash *)
  for _ = 1 to 1000 do
    Cancel.poll ()
  done;
  check_bool "no ambient token" false (Cancel.active ())

let test_cancel_deadline () =
  let tok = Cancel.make ~deadline_s:0.02 () in
  match
    Cancel.with_token tok (fun () ->
        while true do
          Cancel.poll ()
        done)
  with
  | () -> Alcotest.fail "deadline never fired"
  | exception Cancel.Cancelled Cancel.Deadline -> ()

let test_cancel_kill () =
  let killed = Atomic.make false in
  let tok = Cancel.make ~killed () in
  Atomic.set killed true;
  (match Cancel.with_token tok (fun () -> Cancel.poll ()) with
  | () -> Alcotest.fail "kill never fired"
  | exception Cancel.Cancelled Cancel.Killed -> ());
  (* the token slot is restored even when the job raises *)
  check_bool "token slot restored" false (Cancel.active ())

(* ---- supervise: the taxonomy ---- *)

let test_supervise_ok () =
  let o = Supervise.supervise ~label:"ok" (fun () -> 41 + 1) in
  check_int "attempts" 1 o.Supervise.attempts;
  match o.Supervise.result with
  | Ok v -> check_int "value" 42 v
  | Error _ -> Alcotest.fail "unexpected error"

let test_supervise_transient_retry () =
  let calls = ref 0 in
  let o =
    Supervise.supervise
      ~policy:{ Supervise.default_policy with Supervise.backoff_base_s = 1e-4 }
      ~label:"flaky"
      (fun () ->
        incr calls;
        if !calls = 1 then raise (Supervise.Transient_failure "blip");
        "recovered")
  in
  check_int "two attempts" 2 o.Supervise.attempts;
  (match o.Supervise.result with
  | Ok v -> check_string "recovered" "recovered" v
  | Error _ -> Alcotest.fail "retry should have recovered");
  check_int "job ran twice" 2 !calls

let test_supervise_poisoned () =
  let o =
    Supervise.supervise
      ~policy:
        {
          Supervise.default_policy with
          Supervise.retries = 2;
          backoff_base_s = 1e-4;
        }
      ~label:"always-transient"
      (fun () -> raise (Supervise.Transient_failure "still down"))
  in
  check_int "all attempts spent" 3 o.Supervise.attempts;
  match o.Supervise.result with
  | Error (Supervise.Poisoned { attempts; last }) ->
      check_int "poisoned after 3" 3 attempts;
      check_string "last message" "still down" last;
      check_string "class" "poisoned"
        (Supervise.error_class (Supervise.Poisoned { attempts; last }))
  | _ -> Alcotest.fail "expected Poisoned"

let test_supervise_transient_no_retry () =
  let o =
    Supervise.supervise
      ~policy:{ Supervise.default_policy with Supervise.retries = 0 }
      ~label:"transient-0" (fun () ->
        raise (Supervise.Transient_failure "blip"))
  in
  check_int "one attempt" 1 o.Supervise.attempts;
  match o.Supervise.result with
  | Error (Supervise.Transient msg) -> check_string "message" "blip" msg
  | _ -> Alcotest.fail "expected Transient with retries = 0"

let test_supervise_crashed () =
  let o = Supervise.supervise ~label:"boom" (fun () -> failwith "boom") in
  check_int "no retry for crashes" 1 o.Supervise.attempts;
  match o.Supervise.result with
  | Error (Supervise.Crashed e as err) ->
      check_string "class" "crashed" (Supervise.error_class err);
      check_bool "carries the exn" true (e = Failure "boom")
  | _ -> Alcotest.fail "expected Crashed"

let test_supervise_bad_request () =
  let o =
    Supervise.supervise ~label:"bad" (fun () ->
        raise (Supervise.Bad_request "no such scenario"))
  in
  match o.Supervise.result with
  | Error err ->
      check_string "class" "bad_request" (Supervise.error_class err);
      check_string "message" "no such scenario" (Supervise.error_message err)
  | Ok _ -> Alcotest.fail "expected Bad_request"

let test_supervise_timeout () =
  let o =
    Supervise.supervise
      ~policy:
        { Supervise.default_policy with Supervise.deadline_s = Some 0.02 }
      ~label:"spin" (fun () ->
        while true do
          Cancel.poll ()
        done)
  in
  match o.Supervise.result with
  | Error (Supervise.Timeout d as err) ->
      check_string "class" "timeout" (Supervise.error_class err);
      Alcotest.(check (float 1e-9)) "deadline in record" 0.02 d
  | _ -> Alcotest.fail "expected Timeout"

let test_supervise_shed_on_kill () =
  let killed = Atomic.make true in
  let o =
    Supervise.supervise ~killed ~label:"killed" (fun () ->
        Cancel.poll ();
        Alcotest.fail "job should have been cancelled")
  in
  match o.Supervise.result with
  | Error (Supervise.Shed as err) ->
      check_string "class" "shed" (Supervise.error_class err)
  | _ -> Alcotest.fail "expected Shed"

(* ---- deterministic backoff ---- *)

let test_backoff_deterministic () =
  let policy =
    {
      Supervise.default_policy with
      Supervise.backoff_base_s = 0.01;
      backoff_max_s = 0.5;
      jitter_seed = 7;
    }
  in
  for attempt = 0 to 5 do
    let a = Supervise.backoff_s policy ~label:"job-x" ~attempt in
    let b = Supervise.backoff_s policy ~label:"job-x" ~attempt in
    Alcotest.(check (float 0.0)) "same (label, attempt) -> same backoff" a b;
    (* jitter in [0.5, 1.5) around the clamped exponential *)
    let base =
      Float.min policy.Supervise.backoff_max_s
        (policy.Supervise.backoff_base_s *. (2.0 ** float_of_int attempt))
    in
    check_bool "lower bound" true (a >= (0.5 *. base) -. 1e-12);
    check_bool "upper bound" true (a <= policy.Supervise.backoff_max_s)
  done;
  let a = Supervise.backoff_s policy ~label:"job-x" ~attempt:1 in
  let b = Supervise.backoff_s policy ~label:"job-y" ~attempt:1 in
  check_bool "different labels jitter differently" true (a <> b)

(* ---- seeded chaos ---- *)

let with_chaos ~seed ~rate f =
  Supervise.Chaos.configure ~seed ~rate;
  Fun.protect ~finally:Supervise.Chaos.disable f

let test_chaos_decide_deterministic () =
  with_chaos ~seed:42 ~rate:1.0 (fun () ->
      check_bool "enabled" true (Supervise.Chaos.enabled ());
      for attempt = 0 to 9 do
        let a = Supervise.Chaos.decide ~label:"L" ~attempt in
        let b = Supervise.Chaos.decide ~label:"L" ~attempt in
        check_bool "same decision twice" true (a = b);
        check_bool "rate 1.0 always injects" true (a <> None)
      done);
  with_chaos ~seed:42 ~rate:0.0 (fun () ->
      for attempt = 0 to 9 do
        check_bool "rate 0.0 never injects" true
          (Supervise.Chaos.decide ~label:"L" ~attempt = None)
      done);
  check_bool "disabled after" false (Supervise.Chaos.enabled ())

let test_chaos_under_supervise () =
  (* rate 1.0: every attempt gets an injection, so a supervised job
     either times out on delays, retries through transients into
     poisoning, or crashes — it never succeeds, and the outcome for a
     fixed (seed, label) is always the same class *)
  with_chaos ~seed:11 ~rate:1.0 (fun () ->
      let run () =
        Supervise.supervise
          ~policy:
            {
              Supervise.default_policy with
              Supervise.retries = 2;
              backoff_base_s = 1e-4;
            }
          ~label:"chaotic" (fun () -> "fine")
      in
      let a = run () and b = run () in
      let cls o =
        match o.Supervise.result with
        | Ok _ -> "ok"
        | Error e -> Supervise.error_class e
      in
      check_string "same outcome class" (cls a) (cls b);
      check_int "same attempts" a.Supervise.attempts b.Supervise.attempts)

(* ---- run_map error recording ---- *)

type item = Value of int | Failed of int * string

let record_map workers =
  Exec_pool.with_pool ~workers (fun pool ->
      Exec_pool.run_map pool
        ~on_error:(`Record (fun i e -> Failed (i, Printexc.to_string e)))
        20
        (fun i ->
          if i = 3 || i = 7 then failwith (Printf.sprintf "seed %d died" i);
          Value (i * i)))

let test_run_map_record () =
  let r1 = record_map 1 in
  let r4 = record_map 4 in
  check_int "campaign completes" 20 (Array.length r4);
  let crashed =
    Array.to_list r4
    |> List.filter_map (function Failed (i, _) -> Some i | Value _ -> None)
  in
  Alcotest.(check (list int)) "exactly seeds 3 and 7 crashed" [ 3; 7 ] crashed;
  Array.iteri
    (fun i x ->
      match x with
      | Value v -> check_int "square" (i * i) v
      | Failed (i', msg) ->
          check_int "index recorded" i i';
          check_bool "message recorded" true
            (msg = Printf.sprintf "Failure(\"seed %d died\")" i))
    r4;
  check_bool "byte-identical --jobs 1 vs 4" true (r1 = r4)

let test_run_map_abort_still_raises () =
  match
    Exec_pool.with_pool ~workers:4 (fun pool ->
        Exec_pool.run_map pool 20 (fun i ->
            if i >= 5 then failwith (Printf.sprintf "die %d" i) else i))
  with
  | _ -> Alcotest.fail "abort mode should re-raise"
  | exception Failure msg ->
      (* lowest failing index wins, whatever the schedule *)
      check_string "deterministic abort" "die 5" msg

(* ---- submit error hook ---- *)

let test_submit_error_hook () =
  let seen = Atomic.make [] in
  Exec_pool.with_pool ~workers:2 (fun pool ->
      Exec_pool.set_error_hook pool (fun e ->
          let rec push () =
            let cur = Atomic.get seen in
            if not (Atomic.compare_and_set seen cur (Printexc.to_string e :: cur))
            then push ()
          in
          push ());
      let done_ = Atomic.make 0 in
      for i = 1 to 10 do
        Exec_pool.submit pool (fun () ->
            Fun.protect
              ~finally:(fun () -> Atomic.incr done_)
              (fun () -> if i mod 2 = 0 then failwith "task boom"))
      done;
      (* every task has started its [finally]; its hook call may still
         be running on the worker *)
      while Atomic.get done_ < 10 do
        Domain.cpu_relax ()
      done);
  (* [with_pool] has shut the pool down and joined its workers, so every
     hook call has returned *)
  check_int "hook saw every failure" 5 (List.length (Atomic.get seen));
  check_bool "worker survived and kept serving" true
    (List.for_all (fun m -> m = "Failure(\"task boom\")") (Atomic.get seen))

(* ---- supervised campaign: jobs-count independence ---- *)

let test_campaign_supervised_identical () =
  Unix.putenv "ECSD_WALL_ZERO" "1";
  Fun.protect ~finally:(fun () ->
      Unix.putenv "ECSD_WALL_ZERO" "";
      Supervise.Chaos.disable ())
  @@ fun () ->
  Supervise.Chaos.configure ~seed:9 ~rate:0.6;
  let scenario =
    match Fault_scenario.find "encoder-dropout" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let policy =
    {
      Supervise.default_policy with
      Supervise.retries = 1;
      backoff_base_s = 1e-4;
    }
  in
  let mk_subject () =
    fst (Servo_system.faultsim_subject ~scenario ())
  in
  let seq =
    Fault_campaign.run ~t_end:0.3 ~seeds:6 ~scenario ~policy (mk_subject ())
  in
  let par =
    Exec_pool.with_pool ~workers:4 (fun pool ->
        Fault_campaign.sweep ~t_end:0.3 ~seeds:6 ~pool ~scenario ~policy
          mk_subject)
  in
  let doc r = Bench_json.to_string (Fault_campaign.to_json ~model:"servo" r) in
  check_string "byte-identical report, 1 vs 4 workers" (doc seq) (doc par);
  check_int "every seed accounted for" 6
    (List.length seq.Fault_campaign.runs
    + List.length seq.Fault_campaign.failures);
  (* chaos at rate 0.6 with seed 9 provably perturbs this campaign:
     either a failure row or a retry must have happened, else the test
     would pass vacuously *)
  check_bool "chaos actually did something" true
    (seq.Fault_campaign.failures <> [] || seq.Fault_campaign.retries_total > 0)

(* ---- serve request lines ---- *)

(* every line comes back as a record: malformed lines, unknown names
   and out-of-range sizes are bad requests (exit 2), never a crash *)
let test_serve_line_classification () =
  let run line =
    Serve_job.run ~policy:Supervise.default_policy
      ~config:Servo_system.default_config
      ~stats:(fun () -> [ ("job", Bench_json.Str "stats"); ("exit", Bench_json.Int 0) ])
      line
  in
  let field k fs =
    match List.assoc_opt k fs with
    | Some v -> Bench_json.to_string v
    | None -> "missing"
  in
  List.iter
    (fun line ->
      let fs = run line in
      check_string (line ^ ": class") "\"bad_request\"" (field "class" fs);
      check_string (line ^ ": exit") "2" (field "exit" fs))
    [
      "bogus job line";
      "faultsim nosuch-scenario";
      "faultsim encoder-dropout 4 notafloat";
      "faultsim encoder-dropout -3";
      "faultsim encoder-dropout 0";
      "faultsim encoder-dropout 2 -1.0";
      "faultsim encoder-dropout 2 nan";
      "faultsim encoder-dropout 2 inf";
      "faultsim encoder-dropout 2 0.0001";
      "diff servo -5";
      "diff nosuch 10";
      "diff servo 10 - 1 warp";
    ];
  let ok = run "diff isr-demo 20" in
  check_string "diff job" "\"diff\"" (field "job" ok);
  check_string "diff exit" "0" (field "exit" ok);
  check_string "diff steps" "20" (field "steps_run" ok);
  check_string "zero steps is a valid diff" "0" (field "exit" (run "diff servo 0"));
  check_string "stats is the caller's job" "\"stats\"" (field "job" (run "stats"))

let suite =
  [
    Alcotest.test_case "cancel no-op without token" `Quick test_cancel_noop;
    Alcotest.test_case "cancel deadline" `Quick test_cancel_deadline;
    Alcotest.test_case "cancel kill + slot restore" `Quick test_cancel_kill;
    Alcotest.test_case "supervise ok" `Quick test_supervise_ok;
    Alcotest.test_case "transient retries then recovers" `Quick
      test_supervise_transient_retry;
    Alcotest.test_case "poisoned after retries exhausted" `Quick
      test_supervise_poisoned;
    Alcotest.test_case "transient with retries=0" `Quick
      test_supervise_transient_no_retry;
    Alcotest.test_case "crashed" `Quick test_supervise_crashed;
    Alcotest.test_case "bad request" `Quick test_supervise_bad_request;
    Alcotest.test_case "deadline timeout" `Quick test_supervise_timeout;
    Alcotest.test_case "shed on kill" `Quick test_supervise_shed_on_kill;
    Alcotest.test_case "deterministic backoff" `Quick
      test_backoff_deterministic;
    Alcotest.test_case "chaos decide deterministic" `Quick
      test_chaos_decide_deterministic;
    Alcotest.test_case "chaos outcome deterministic" `Quick
      test_chaos_under_supervise;
    Alcotest.test_case "run_map record mode" `Quick test_run_map_record;
    Alcotest.test_case "run_map abort mode" `Quick
      test_run_map_abort_still_raises;
    Alcotest.test_case "submit error hook" `Quick test_submit_error_hook;
    Alcotest.test_case "supervised campaign jobs-independent" `Quick
      test_campaign_supervised_identical;
    Alcotest.test_case "serve line classification" `Quick
      test_serve_line_classification;
  ]

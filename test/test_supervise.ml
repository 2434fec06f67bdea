(* Supervised execution: the error taxonomy, deadline cancellation,
   map's lowest-index abort, the pool error hook, and the supervised
   seed sweep's jobs-count independence. *)

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
  match o.Supervise.result with
  | Ok v -> check_int "value" 42 v
  | Error _ -> Alcotest.fail "unexpected error"

let test_supervise_crashed () =
  let o = Supervise.supervise ~label:"boom" (fun () -> failwith "boom") in
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
        { Supervise.deadline_s = Some 0.02 }
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

(* ---- map: a raising item aborts with the lowest index ---- *)

let test_map_abort_still_raises () =
  match
    Exec_pool.map ~jobs:4 20 (fun () i ->
        if i >= 5 then failwith (Printf.sprintf "die %d" i) else i)
  with
  | _ -> Alcotest.fail "abort mode should re-raise"
  | exception Failure msg ->
      (* lowest failing index wins, whatever the schedule *)
      check_string "deterministic abort" "die 5" msg

(* ---- an exception escaping a submitted task ---- *)

let test_submit_error_hook () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let ran = Atomic.make 0 in
      let pool = Exec_pool.create ~workers:2 () in
      Fun.protect
        ~finally:(fun () -> Exec_pool.shutdown pool)
        (fun () ->
          for i = 1 to 10 do
            Exec_pool.submit pool (fun () ->
                Fun.protect
                  ~finally:(fun () -> Atomic.incr ran)
                  (fun () -> if i mod 2 = 0 then failwith "task boom"))
          done;
          while Atomic.get ran < 10 do
            Domain.cpu_relax ()
          done);
      (* [shutdown] has joined the workers: every task's counts are
         published *)
      check_int "workers survived and ran every task" 10
        (Obs.counter_value (Obs.counter "exec.tasks"));
      check_int "every failure counted" 5
        (Obs.counter_value (Obs.counter "exec.task_errors")))

(* ---- supervised sweep: jobs-count independence ---- *)

(* two fixed seeds raise, one a crash and one a bad request: each
   seed's outcome is the same whatever the domain count *)
let test_sweep_supervised_identical () =
  let outcomes jobs =
    let s =
      Seed_sweep.run ~jobs ~policy:Supervise.default_policy ~seeds:8
        ~track:"raise" ~label:"raise" ~subject:ignore ~plan:ignore
        (fun () () seed ->
          if seed = 3 then failwith "seed 3";
          if seed = 6 then raise (Supervise.Bad_request "seed 6");
          seed * seed)
    in
    Array.to_list s.Seed_sweep.outcomes
    |> List.map (fun (seed, o) ->
           match o.Supervise.result with
           | Ok v -> (seed, "ok", string_of_int v)
           | Error e ->
               (seed, Supervise.error_class e, Supervise.error_message e))
  in
  let seq = outcomes 1 in
  Alcotest.(check (list (triple int string string)))
    "same outcomes, 1 vs 4 workers" seq (outcomes 4);
  Alcotest.(check (list (triple int string string)))
    "the two raising seeds"
    [ (3, "crashed", Printexc.to_string (Failure "seed 3"));
      (6, "bad_request", "seed 6") ]
    (List.filter (fun (_, c, _) -> c <> "ok") seq)

(* ---- serve request lines ---- *)

(* every line comes back as a record: malformed lines, unknown names
   and out-of-range sizes are bad requests (exit 2), never a crash *)
let test_serve_line_classification () =
  let run line =
    Serve.job ~id:0 ~policy:Supervise.default_policy
      ~config:Servo_system.default_config
      ~stats:(fun () -> [ ("job", Bench_json.Str "stats"); ("exit", Bench_json.Int 0) ])
      line
  in
  let field k fs =
    match List.assoc_opt k fs with
    | Some v -> Bench_json.to_string v
    | None -> "missing"
  in
  (* a scenario path that is a directory *)
  let dir = Filename.temp_dir "ecsd" "scenario" in
  Fun.protect ~finally:(fun () -> Sys.rmdir dir) @@ fun () ->
  List.iter
    (fun line ->
      let fs = run line in
      check_string (line ^ ": class") "\"bad_request\"" (field "class" fs);
      check_string (line ^ ": exit") "2" (field "exit" fs))
    [
      "faultsim " ^ dir ^ " 1";
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
    Alcotest.test_case "crashed" `Quick test_supervise_crashed;
    Alcotest.test_case "bad request" `Quick test_supervise_bad_request;
    Alcotest.test_case "deadline timeout" `Quick test_supervise_timeout;
    Alcotest.test_case "shed on kill" `Quick test_supervise_shed_on_kill;
    Alcotest.test_case "map re-raises the lowest failure" `Quick
      test_map_abort_still_raises;
    Alcotest.test_case "submit error hook" `Quick test_submit_error_hook;
    Alcotest.test_case "supervised sweep jobs-independent" `Quick
      test_sweep_supervised_identical;
    Alcotest.test_case "serve line classification" `Quick
      test_serve_line_classification;
  ]

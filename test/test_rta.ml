(* Response-time analysis, cross-validated against the virtual MCU. *)

let check_bool = Alcotest.(check bool)
let check_float eps = Alcotest.(check (float eps))

let t name period wcet prio = { Rta.tname = name; period; wcet; prio }

let test_utilization_and_bound () =
  let tasks = [ t "a" 10.0 2.0 1; t "b" 20.0 4.0 2 ] in
  check_float 1e-12 "utilization" 0.4 (Rta.utilization tasks);
  check_float 1e-9 "LL bound n=2" (2.0 *. (sqrt 2.0 -. 1.0)) (Rta.rm_bound 2);
  check_bool "bound decreasing" true (Rta.rm_bound 5 < Rta.rm_bound 2)

let test_preemptive_textbook () =
  (* C=(1,2,3), T=(4,8,16), rate-monotonic priorities:
     R1 = 1; R2 = 3; R3 = 7 (window of 7 holds 2 jobs of t1 + 1 of t2) *)
  let tasks = [ t "t1" 4.0 1.0 1; t "t2" 8.0 2.0 2; t "t3" 16.0 3.0 3 ] in
  match Rta.preemptive tasks with
  | [ v1; v2; v3 ] ->
      check_float 1e-9 "R1" 1.0 v1.Rta.response;
      check_float 1e-9 "R2" 3.0 v2.Rta.response;
      check_float 1e-9 "R3" 7.0 v3.Rta.response;
      check_bool "all schedulable" true
        (v1.Rta.schedulable && v2.Rta.schedulable && v3.Rta.schedulable)
  | _ -> Alcotest.fail "arity"

let test_preemptive_overload_diverges () =
  let tasks = [ t "a" 1.0 0.6 1; t "b" 1.0 0.6 2 ] in
  match Rta.preemptive tasks with
  | [ _; v ] ->
      check_bool "unbounded response" true (v.Rta.response = infinity);
      check_bool "unschedulable" false v.Rta.schedulable
  | _ -> Alcotest.fail "arity"

let test_non_preemptive_blocking () =
  (* the highest-priority task suffers the longest lower-priority WCET *)
  let tasks = [ t "hi" 10.0 1.0 1; t "lo" 100.0 5.0 2 ] in
  (match Rta.preemptive tasks with
  | [ v; _ ] -> check_float 1e-9 "preemptive: no blocking" 1.0 v.Rta.response
  | _ -> Alcotest.fail "arity");
  match Rta.non_preemptive tasks with
  | [ v; _ ] -> check_float 1e-9 "non-preemptive: blocked" 6.0 v.Rta.response
  | _ -> Alcotest.fail "arity"

let test_non_preemptive_later_job () =
  (* t3's second job waits for t2's second and t1's third, released just
     before it could start: 3.4999 after its release, past its first
     job's 3 (Davis, Burns, Bril & Lukkien 2007) *)
  let tasks = [ t "t1" 2.4999 1.0 1; t "t2" 3.5 1.0 2; t "t3" 3.5001 1.0 3 ] in
  match Rta.non_preemptive tasks with
  | [ _; _; v3 ] ->
      check_float 1e-9 "R3 from the second job" 3.4999 v3.Rta.response;
      check_bool "schedulable" true v3.Rta.schedulable
  | _ -> Alcotest.fail "arity"

let test_analyze_messages () =
  let bad = [ t "ctrl" 1.0 0.9 1; t "bg" 2.0 1.0 2 ] in
  (match Rta.analyze ~preemptive:true bad with
  | Error msg -> check_bool "names the task" true (Astring_contains.contains msg "bg")
  | Ok _ -> Alcotest.fail "overload accepted");
  match Rta.analyze ~preemptive:true [ t "a" 10.0 1.0 1 ] with
  | Ok [ v ] -> check_bool "ok" true v.Rta.schedulable
  | _ -> Alcotest.fail "single task"

let test_validation () =
  (match Rta.preemptive [ t "a" 1.0 0.1 1; t "b" 1.0 0.1 1 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate priorities accepted");
  match Rta.preemptive [ t "a" 0.0 0.1 1 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero period accepted"

(* The soundness check: on random task sets, under each policy in which
   [Rta] calls the set schedulable, every job the virtual MCU runs
   responds within its task's bound. A response is read from the job log as
   finish minus raise; the WCET handed to [Rta] carries the MCU's
   interrupt entry and exit cycles. Periods fit the 16-bit timer at
   prescaler 1, and the list order is the priority order. *)
let mcu = Mcu_db.mc56f8367
let f_cpu = mcu.Mcu_db.f_cpu_hz
let entry_exit = mcu.Mcu_db.irq_latency_cycles + mcu.Mcu_db.irq_exit_cycles

(* (period, budget) in cycles per task: periods within a factor 1.6
   of each other and loads up to 0.45 a task, so that many sets sit near
   the schedulability boundary, where a later job of a busy period can
   respond later than the first *)
let gen_task_set =
  QCheck2.Gen.(
    int_range 2000 40000 >>= fun base ->
    list_size (int_range 2 3) (pair (int_range 1000 1600) (int_range 20 450))
    >|= List.map (fun (stretch, load) ->
            let period = base * stretch / 1000 in
            (period, Stdlib.max 50 (period * load / 1000))))

let tasks_of set =
  List.mapi
    (fun i (period, cycles) ->
      t (Printf.sprintf "t%d" i)
        (float_of_int period /. f_cpu)
        (float_of_int (cycles + entry_exit) /. f_cpu)
        (i + 1))
    set

(* the jobs whose response exceeds their task's bound, and the raises
   lost to a still-pending vector: none when the bound is sound *)
let violations ~preemptive set verdicts =
  let machine = Machine.create ~preemptive mcu in
  let tasks =
    List.mapi
      (fun i ((period, cycles), v) ->
        let name = v.Rta.task.Rta.tname in
        let irq =
          Machine.register_irq machine ~name ~prio:(i + 1) ~handler:(fun () ->
              { Machine.jname = name; cycles; action = (fun () -> ());
                stack_bytes = 16 })
        in
        let timer = Timer_periph.create machine ~channel:i in
        Timer_periph.configure timer ~prescaler:1 ~modulo:period;
        Timer_periph.on_overflow timer (fun () -> Machine.raise_irq machine irq);
        Timer_periph.start timer;
        (* the first jobs are all released at cycle 0, together *)
        Machine.raise_irq machine irq;
        (irq, (period, v.Rta.response)))
      (List.combine set verdicts)
  in
  Machine.advance_to machine ~cycle:(40 * 65536);
  let late e =
    let bound = snd (List.assoc e.Machine.vector tasks) in
    let response =
      float_of_int (e.Machine.finished - e.Machine.raised) /. f_cpu
    in
    if e.Machine.finished >= 0 && response > bound +. 1e-12 then
      Some
        (Printf.sprintf "%s raised at %d: %.2f us > %.2f us"
           (Machine.irq_name machine e.Machine.vector)
           e.Machine.raised (response *. 1e6) (bound *. 1e6))
    else None
  in
  let lost (irq, (period, _)) =
    match (Machine.profile machine irq ~period).Machine.overruns with
    | 0 -> None
    | n -> Some (Printf.sprintf "%s: %d overruns" (Machine.irq_name machine irq) n)
  in
  List.filter_map late (Array.to_list (Machine.log machine))
  @ List.filter_map lost tasks

let prop_rta_bounds_machine =
  QCheck2.Test.make ~name:"RTA bounds the machine" ~count:500
    ~print:(fun set ->
      String.concat "; "
        (List.map (fun (p, c) -> Printf.sprintf "T=%d C=%d" p c) set))
    gen_task_set
    (fun set ->
      let periods = List.map fst set in
      QCheck2.assume
        (List.length (List.sort_uniq compare periods) = List.length periods);
      let check preemptive =
        match Rta.analyze ~preemptive (tasks_of set) with
        | Ok verdicts -> Some (violations ~preemptive set verdicts)
        | Error _ -> None
      in
      match (check false, check true) with
      | None, None -> QCheck2.assume_fail ()
      | np, p -> (
          match (Option.value np ~default:[], Option.value p ~default:[]) with
          | [], [] -> true
          | v_np, v_p ->
              QCheck2.Test.fail_reportf "non-preemptive: %s\npreemptive: %s"
                (String.concat ", " v_np) (String.concat ", " v_p)))

let suite =
  [
    Alcotest.test_case "utilization + LL bound" `Quick test_utilization_and_bound;
    Alcotest.test_case "preemptive textbook" `Quick test_preemptive_textbook;
    Alcotest.test_case "overload diverges" `Quick test_preemptive_overload_diverges;
    Alcotest.test_case "non-preemptive blocking" `Quick test_non_preemptive_blocking;
    Alcotest.test_case "non-preemptive later job" `Quick test_non_preemptive_later_job;
    Alcotest.test_case "analyze messages" `Quick test_analyze_messages;
    Alcotest.test_case "validation" `Quick test_validation;
    QCheck_alcotest.to_alcotest prop_rta_bounds_machine;
  ]

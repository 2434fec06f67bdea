(* Hierarchical state machine semantics. *)

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let toggle_chart () =
  Chart.create
    [
      Chart.state ~initial:true "A";
      Chart.state "B";
    ]
    [
      Chart.transition ~trigger:"go" ~src:"A" ~dst:"B" ();
      Chart.transition ~trigger:"go" ~src:"B" ~dst:"A" ();
    ]

let test_basic_toggle () =
  let c = toggle_chart () in
  Chart.start c ();
  check_string "initial" "A" (Chart.active_leaf c);
  check_bool "fires" true (Chart.dispatch c () "go");
  check_string "toggled" "B" (Chart.active_leaf c);
  check_bool "unknown event ignored" false (Chart.dispatch c () "nope");
  check_string "unchanged" "B" (Chart.active_leaf c)

let test_guards () =
  let enabled = ref false in
  let c =
    Chart.create
      [ Chart.state ~initial:true "A"; Chart.state "B" ]
      [ Chart.transition ~trigger:"go" ~guard:(fun () -> !enabled) ~src:"A" ~dst:"B" () ]
  in
  Chart.start c ();
  check_bool "guard blocks" false (Chart.dispatch c () "go");
  enabled := true;
  check_bool "guard passes" true (Chart.dispatch c () "go")

let test_entry_exit_order () =
  let log = ref [] in
  let push s _ = log := s :: !log in
  let c =
    Chart.create
      [
        Chart.state ~initial:true ~on_entry:(push "enter-P") ~on_exit:(push "exit-P") "P";
        Chart.state ~parent:"P" ~initial:true ~on_entry:(push "enter-A")
          ~on_exit:(push "exit-A") "A";
        Chart.state ~parent:"P" ~on_entry:(push "enter-B") ~on_exit:(push "exit-B") "B";
        Chart.state ~on_entry:(push "enter-Q") ~on_exit:(push "exit-Q") "Q";
      ]
      [
        Chart.transition ~trigger:"inner" ~src:"A" ~dst:"B" ();
        Chart.transition ~trigger:"outer" ~src:"B" ~dst:"Q" ();
      ]
  in
  Chart.start c ();
  Alcotest.(check (list string)) "start enters outside-in" [ "enter-P"; "enter-A" ]
    (List.rev !log);
  log := [];
  ignore (Chart.dispatch c () "inner");
  (* A -> B within P: P must not exit *)
  Alcotest.(check (list string)) "sibling transition" [ "exit-A"; "enter-B" ]
    (List.rev !log);
  log := [];
  ignore (Chart.dispatch c () "outer");
  Alcotest.(check (list string)) "cross-composite exits inside-out"
    [ "exit-B"; "exit-P"; "enter-Q" ]
    (List.rev !log)

let test_initial_leaf_descent () =
  let c =
    Chart.create
      [
        Chart.state ~initial:true "Top";
        Chart.state ~parent:"Top" ~initial:true "Mid";
        Chart.state ~parent:"Mid" ~initial:true "Leaf";
        Chart.state ~parent:"Mid" "Other";
      ]
      []
  in
  Chart.start c ();
  check_string "descends to the leaf" "Leaf" (Chart.active_leaf c);
  check_bool "ancestors active" true (Chart.is_in c "Top" && Chart.is_in c "Mid")

let test_transition_to_composite () =
  let c =
    Chart.create
      [
        Chart.state ~initial:true "Off";
        Chart.state "Run";
        Chart.state ~parent:"Run" ~initial:true "Slow";
        Chart.state ~parent:"Run" "Fast";
      ]
      [ Chart.transition ~trigger:"start" ~src:"Off" ~dst:"Run" () ]
  in
  Chart.start c ();
  ignore (Chart.dispatch c () "start");
  check_string "enters the initial child" "Slow" (Chart.active_leaf c)

let test_eventless_chain () =
  let c =
    Chart.create
      [ Chart.state ~initial:true "A"; Chart.state "B"; Chart.state "C" ]
      [
        Chart.transition ~trigger:"go" ~src:"A" ~dst:"B" ();
        Chart.transition ~src:"B" ~dst:"C" ();  (* eventless *)
      ]
  in
  Chart.start c ();
  ignore (Chart.dispatch c () "go");
  check_string "chained through B" "C" (Chart.active_leaf c)

let test_eventless_livelock_detected () =
  let c =
    Chart.create
      [ Chart.state ~initial:true "A"; Chart.state "B" ]
      [
        Chart.transition ~src:"A" ~dst:"B" ();
        Chart.transition ~src:"B" ~dst:"A" ();
      ]
  in
  Chart.start c ();
  (match Chart.tick c () with
  | exception Failure msg ->
      check_bool "mentions livelock" true (Astring_contains.contains msg "livelock")
  | _ -> Alcotest.fail "expected livelock failure")

let test_innermost_wins () =
  (* both the leaf and its parent have a transition on the same event;
     the leaf's must win *)
  let c =
    Chart.create
      [
        Chart.state ~initial:true "P";
        Chart.state ~parent:"P" ~initial:true "A";
        Chart.state "FromLeaf";
        Chart.state "FromParent";
      ]
      [
        Chart.transition ~trigger:"e" ~src:"P" ~dst:"FromParent" ();
        Chart.transition ~trigger:"e" ~src:"A" ~dst:"FromLeaf" ();
      ]
  in
  Chart.start c ();
  ignore (Chart.dispatch c () "e");
  check_string "leaf transition wins" "FromLeaf" (Chart.active_leaf c)

let test_parent_handles_when_leaf_does_not () =
  let c =
    Chart.create
      [
        Chart.state ~initial:true "P";
        Chart.state ~parent:"P" ~initial:true "A";
        Chart.state "Out";
      ]
      [ Chart.transition ~trigger:"e" ~src:"P" ~dst:"Out" () ]
  in
  Chart.start c ();
  check_bool "parent fires" true (Chart.dispatch c () "e");
  check_string "left the composite" "Out" (Chart.active_leaf c)

let test_shallow_history () =
  (* Run is a history composite: leaving to Off and returning resumes
     Fast, not the initial Slow *)
  let c =
    Chart.create
      [
        Chart.state ~initial:true "Off";
        Chart.state ~history:true "Run";
        Chart.state ~parent:"Run" ~initial:true "Slow";
        Chart.state ~parent:"Run" "Fast";
      ]
      [
        Chart.transition ~trigger:"start" ~src:"Off" ~dst:"Run" ();
        Chart.transition ~trigger:"stop" ~src:"Run" ~dst:"Off" ();
        Chart.transition ~trigger:"shift" ~src:"Slow" ~dst:"Fast" ();
      ]
  in
  Chart.start c ();
  ignore (Chart.dispatch c () "start");
  check_string "initial child first" "Slow" (Chart.active_leaf c);
  ignore (Chart.dispatch c () "shift");
  ignore (Chart.dispatch c () "stop");
  check_string "parked" "Off" (Chart.active_leaf c);
  ignore (Chart.dispatch c () "start");
  check_string "history resumes Fast" "Fast" (Chart.active_leaf c);
  (* reset clears the memory *)
  Chart.reset c;
  Chart.start c ();
  ignore (Chart.dispatch c () "start");
  check_string "fresh after reset" "Slow" (Chart.active_leaf c)

let test_no_history_takes_initial () =
  let c =
    Chart.create
      [
        Chart.state ~initial:true "Off";
        Chart.state "Run";
        Chart.state ~parent:"Run" ~initial:true "Slow";
        Chart.state ~parent:"Run" "Fast";
      ]
      [
        Chart.transition ~trigger:"start" ~src:"Off" ~dst:"Run" ();
        Chart.transition ~trigger:"stop" ~src:"Run" ~dst:"Off" ();
        Chart.transition ~trigger:"shift" ~src:"Slow" ~dst:"Fast" ();
      ]
  in
  Chart.start c ();
  ignore (Chart.dispatch c () "start");
  ignore (Chart.dispatch c () "shift");
  ignore (Chart.dispatch c () "stop");
  ignore (Chart.dispatch c () "start");
  check_string "no history: initial again" "Slow" (Chart.active_leaf c)

let test_validation_errors () =
  let dup () =
    ignore (Chart.create [ Chart.state ~initial:true "A"; Chart.state "A" ] [])
  in
  (match dup () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate state accepted");
  let no_initial () = ignore (Chart.create [ Chart.state "A" ] []) in
  (match no_initial () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing initial accepted");
  let bad_target () =
    ignore
      (Chart.create
         [ Chart.state ~initial:true "A" ]
         [ Chart.transition ~src:"A" ~dst:"Z" () ])
  in
  (match bad_target () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown target accepted")

let test_effects_and_context () =
  let counter = ref 0 in
  let c =
    Chart.create
      [ Chart.state ~initial:true "A"; Chart.state "B" ]
      [
        Chart.transition ~trigger:"go" ~effect:(fun r -> incr r) ~src:"A" ~dst:"B" ();
      ]
  in
  Chart.start c counter;
  ignore (Chart.dispatch c counter "go");
  Alcotest.(check int) "effect ran once" 1 !counter

let test_mode_chart_block_in_model () =
  (* the case study's manual/auto chart toggles on button rising edges *)
  let m = Model.create "modes" in
  let btn =
    Model.add m ~name:"btn" (Sources.pulse ~period:1.0 ~duty:0.2 ~amp:1.0 ())
  in
  let chart =
    Model.add m ~name:"chart"
      (Chart_block.block ~kind:"ModeChart" ~n_in:1 ~n_out:1 ~period:0.1
         Servo_system.mode_chart_factory)
  in
  Model.connect m ~src:(btn, 0) ~dst:(chart, 0);
  let sim = Sim.create (Compile.compile m) in
  Sim.probe_named sim "chart" 0;
  Sim.run sim ~until:2.05 ();
  let tr = Sim.trace_named sim "chart" 0 in
  (* starts Auto (1), first press at t=0 toggles to Manual (0), next
     rising edge at t=1.0 back to Auto *)
  let value_at t =
    List.find_map (fun (ti, v) -> if Float.abs (ti -. t) < 1e-9 then Some v else None) tr
  in
  Alcotest.(check (option (float 0.0))) "manual after first press" (Some 0.0)
    (value_at 0.5);
  Alcotest.(check (option (float 0.0))) "auto after second press" (Some 1.0)
    (value_at 1.5)

(* the active path is cached when the leaf changes: after every event,
   [is_in] must agree with the leaf's ancestry, and a stopped chart
   (never started, or reset) has no path *)
let test_is_in_follows_leaf () =
  let parents =
    [ ("Off", None); ("Run", None); ("Slow", Some "Run"); ("Fast", Some "Run");
      ("Boost", Some "Fast"); ("Cruise", Some "Fast") ]
  in
  let c =
    Chart.create
      [
        Chart.state ~initial:true "Off";
        Chart.state ~history:true "Run";
        Chart.state ~parent:"Run" ~initial:true "Slow";
        Chart.state ~parent:"Run" "Fast";
        Chart.state ~parent:"Fast" ~initial:true "Boost";
        Chart.state ~parent:"Fast" "Cruise";
      ]
      [
        Chart.transition ~trigger:"start" ~src:"Off" ~dst:"Run" ();
        Chart.transition ~trigger:"stop" ~src:"Run" ~dst:"Off" ();
        Chart.transition ~trigger:"shift" ~src:"Slow" ~dst:"Cruise" ();
        Chart.transition ~trigger:"shift" ~src:"Fast" ~dst:"Slow" ();
        Chart.transition ~trigger:"settle" ~src:"Boost" ~dst:"Cruise" ();
      ]
  in
  let stopped what =
    match Chart.is_in c "Off" with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "is_in on a stopped chart (%s) did not fail" what
  in
  let rec ancestry n =
    n :: (match List.assoc n parents with Some p -> ancestry p | None -> [])
  in
  let agree () =
    let path = ancestry (Chart.active_leaf c) in
    List.iter
      (fun (n, _) ->
        check_bool
          (Printf.sprintf "is_in %s at leaf %s" n (Chart.active_leaf c))
          (List.mem n path) (Chart.is_in c n))
      parents
  in
  stopped "before start";
  Chart.start c ();
  agree ();
  List.iter
    (fun e ->
      ignore (Chart.dispatch c () e);
      agree ())
    [ "start"; "shift"; "stop"; "start"; "shift"; "shift"; "settle"; "stop";
      "start"; "shift"; "settle" ];
  Chart.reset c;
  stopped "after reset";
  Chart.start c ();
  agree ()

let suite =
  [
    Alcotest.test_case "basic toggle" `Quick test_basic_toggle;
    Alcotest.test_case "guards" `Quick test_guards;
    Alcotest.test_case "entry/exit order" `Quick test_entry_exit_order;
    Alcotest.test_case "initial descent" `Quick test_initial_leaf_descent;
    Alcotest.test_case "composite target" `Quick test_transition_to_composite;
    Alcotest.test_case "eventless chain" `Quick test_eventless_chain;
    Alcotest.test_case "livelock detected" `Quick test_eventless_livelock_detected;
    Alcotest.test_case "innermost wins" `Quick test_innermost_wins;
    Alcotest.test_case "parent fallback" `Quick test_parent_handles_when_leaf_does_not;
    Alcotest.test_case "shallow history" `Quick test_shallow_history;
    Alcotest.test_case "no history default" `Quick test_no_history_takes_initial;
    Alcotest.test_case "is_in follows the leaf" `Quick test_is_in_follows_leaf;
    Alcotest.test_case "validation" `Quick test_validation_errors;
    Alcotest.test_case "effects" `Quick test_effects_and_context;
    Alcotest.test_case "mode chart block" `Quick test_mode_chart_block_in_model;
  ]

(* Fault-injection subsystem: taxonomy windows, scenario parsing, the
   seeded injector, the safe-state supervisor campaign on the servo
   loop, MIL-vs-SIL lock-step under fault, and the CON004 watchdog
   rule. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ---- fault windows ---- *)

let test_fault_window () =
  let f = Fault.make ~at:0.5 ~duration:0.2 Fault.Sensor_dropout in
  check_bool "before onset" false (Fault.active f ~time:0.4);
  check_bool "at onset" true (Fault.active f ~time:0.5);
  check_bool "inside" true (Fault.active f ~time:0.69);
  check_bool "closed at end" false (Fault.active f ~time:0.7);
  Alcotest.(check (float 1e-9)) "clear time" 0.7 (Fault.clear_time f ~horizon:2.0);
  Alcotest.(check (float 1e-9)) "clear clamped" 0.6 (Fault.clear_time f ~horizon:0.6);
  let p = Fault.make ~every:0.5 ~at:0.1 ~duration:0.05 (Fault.Sensor_noise 10) in
  check_bool "first burst" true (Fault.active p ~time:0.12);
  check_bool "between bursts" false (Fault.active p ~time:0.3);
  check_bool "second burst" true (Fault.active p ~time:0.62);
  Alcotest.(check (float 1e-9)) "periodic never clears" 2.0
    (Fault.clear_time p ~horizon:2.0);
  let raises f = match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "negative onset rejected" true
    (raises (fun () -> Fault.make ~at:(-1.0) ~duration:0.1 Fault.Sensor_stuck));
  check_bool "zero duration rejected" true
    (raises (fun () -> Fault.make ~at:0.0 ~duration:0.0 Fault.Sensor_stuck));
  check_bool "period shorter than burst rejected" true
    (raises (fun () ->
         Fault.make ~every:0.05 ~at:0.0 ~duration:0.1 Fault.Sensor_stuck))

(* ---- scenario file format ---- *)

let test_scenario_parse () =
  let text =
    "# servo abuse\n\n\
     dropout at=0.5 duration=0.1\n\
     offset at=0.2 duration=0.3 slot=1 value=-30\n\
     noise at=0.1 duration=0.05 every=0.5 value=12\n\
     load at=1.0 duration=0.2 value=2.5e-3\n"
  in
  match Fault_scenario.of_string ~name:"abuse" text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok s ->
      check_string "name" "abuse" s.Fault_scenario.sname;
      check_int "faults" 4 (List.length s.Fault_scenario.faults);
      (match s.Fault_scenario.faults with
      | [ d; o; n; l ] ->
          check_bool "dropout kind" true (d.Fault.kind = Fault.Sensor_dropout);
          check_bool "offset kind" true (o.Fault.kind = Fault.Sensor_offset (-30));
          check_int "offset slot" 1 o.Fault.slot;
          check_bool "noise periodic" true (n.Fault.every = Some 0.5);
          check_bool "load kind" true (l.Fault.kind = Fault.Load_torque 2.5e-3)
      | _ -> Alcotest.fail "wrong fault order");
      Alcotest.(check (float 1e-9)) "onset" 0.1 (Fault_scenario.onset s);
      Alcotest.(check (float 1e-9)) "clear" 2.0
        (Fault_scenario.clear_time s ~horizon:2.0);
      (match Fault_scenario.active_names s ~time:0.55 with
      | [ n ] -> check_bool "dropout active at 0.55" true (contains "dropout" n)
      | l -> Alcotest.failf "expected one active fault, got %d" (List.length l));
      check_int "noise burst active at 0.12" 1
        (List.length (Fault_scenario.active_names s ~time:0.12))

let test_scenario_errors () =
  let expect_err text frag =
    match Fault_scenario.of_string ~name:"t" text with
    | Ok _ -> Alcotest.failf "accepted %S" text
    | Error e ->
        check_bool (Printf.sprintf "%S mentions %S (got %S)" text frag e) true
          (contains frag e)
  in
  expect_err "bogus at=1 duration=1" "unknown fault kind";
  expect_err "offset at=1 duration=1" "needs value=";
  expect_err "dropout duration=1" "missing at=";
  expect_err "dropout at=1" "missing duration=";
  expect_err "dropout at=x duration=1" "not a number";
  expect_err "dropout at=1 duration=1 junk" "stray token";
  expect_err "dropout at=1 duration=1 flavor=3" "unknown key";
  expect_err "dropout at=2 duration=1 every=0.5" "line 1";
  expect_err "# only comments\n\n" "no faults"

(* values that used to run as something else ([at=nan] as an empty
   window, [value=1e300] as "+0 cycles") or crash are errors naming
   their line *)
let test_scenario_bad_values () =
  List.iter
    (fun (line, frag) ->
      let text = "dropout at=0.5 duration=0.1\n" ^ line ^ "\n" in
      match Fault_scenario.of_string ~name:"t" text with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error e ->
          check_bool (Printf.sprintf "%S: %S names line 2 and %S" line e frag)
            true
            (contains "line 2" e && contains frag e))
    [
      ("stuck at=nan duration=0.1", "at=nan");
      ("stuck at=0.1 duration=nan", "duration=nan");
      ("stuck at=inf duration=0.1", "at=inf");
      ("stuck at=0.1 duration=0.1 every=nan", "every=nan");
      ("overrun at=0.1 duration=0.1 value=nan", "value=nan");
      ("jam at=0.1 duration=0.1 value=inf", "value=inf");
      ("overrun at=0.1 duration=0.1 value=1e300", "value=1e+300");
      ("overrun at=0.1 duration=0.1 value=-5", "value=-5");
      ("noise at=0.1 duration=0.1 value=-1", "value=-1");
      ("glitch at=0.1 duration=0.1 value=-1", "value=-1");
      ("noise at=0.1 duration=0.1 value=2.5", "value=2.5");
      ("offset at=0.1 duration=0.1 value=-1e19", "value=-1e+19");
      ("stuck at=0.1 duration=0.1 slot=-1", "slot=-1");
      ("stuck at=0.1 duration=0.1 slot=nan", "slot=nan");
      ("stuck at=0.1 duration=0.1 slot=1.5", "slot=1.5");
    ]

(* the shipped example scenarios still parse *)
let test_example_scenarios () =
  List.iter
    (fun f ->
      match Fault_scenario.load (Filename.concat "../examples" f) with
      | Ok s -> check_bool (f ^ " has faults") true (s.Fault_scenario.faults <> [])
      | Error e -> Alcotest.failf "%s: %s" f e)
    [ "brownout.fault"; "encoder_dropout.fault" ]

(* brownout.fault's load spike recurs with its window: 2e-3 N.m in
   [0.5, 0.53), none at 0.6 s, again in [0.9, 0.93) *)
let test_periodic_load () =
  let scenario =
    match Fault_scenario.load "../examples/brownout.fault" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let _, built = Servo_system.faultsim_subject ~scenario () in
  let load = built.Servo_system.config.Servo_system.load in
  List.iter
    (fun (time, expected) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "torque at %g s" time)
        expected
        (Load_profile.torque load ~time ~w:0.0))
    [ (0.51, 2.0e-3); (0.6, 0.0); (0.91, 2.0e-3) ]

let prop_periodic_load_window =
  QCheck2.Test.make ~name:"periodic load torque is on exactly when its fault is"
    ~count:500
    QCheck2.Gen.(
      quad (float_range 0.0 1.0) (float_range 0.001 0.5) (float_range 0.0 1.0)
        (float_range 0.0 3.0))
    (fun (at, duration, slack, time) ->
      let every = duration *. (1.0 +. slack) in
      let f = Fault.make ~every ~at ~duration (Fault.Load_torque 1.0) in
      let load =
        Load_profile.Periodic { at; every; duration; torque = 1.0 }
      in
      Fault.active f ~time = (Load_profile.torque load ~time ~w:0.0 = 1.0))

(* ---- untrusted .fault input ---- *)

(* [Ok _], or an [Error] that begins "line N:" with N a line of [text] *)
let parses_or_names_line text =
  match Fault_scenario.of_string ~name:"fuzz" text with
  | Ok _ -> true
  | Error e -> (
      let lines = List.length (String.split_on_char '\n' text) in
      match Scanf.sscanf_opt e "line %d: " Fun.id with
      | Some n -> n >= 1 && n <= lines
      | None -> QCheck2.Test.fail_reportf "error names no line: %S" e)
  | exception ex ->
      QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string ex)

let prop_fault_bytes =
  QCheck2.Test.make ~name:".fault parser: random bytes" ~count:500
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(string_size ~gen:char (int_range 0 120))
    parses_or_names_line

let example_texts =
  lazy
    (List.map
       (fun f -> In_channel.with_open_bin ("../examples/" ^ f) In_channel.input_all)
       [ "brownout.fault"; "encoder_dropout.fault" ])

(* values that sit on the edges of the number and range checks *)
let edge_values =
  [ "nan"; "inf"; "-inf"; "-1"; "0"; "-0"; "1e300"; "0x10"; "1_0"; ""; "=";
    "4611686018427387904"; "-4611686018427387905"; "0.5"; "1e-320"; "2." ]

type edit =
  | Set_byte of int * char
  | Drop_byte of int
  | Insert_byte of int * char
  | Drop_line of int
  | Dup_line of int
  | Swap_lines of int * int
  | Set_value of int * string  (* the value of the [n]th key=value *)

let apply text = function
  | Set_byte (i, c) ->
      if text = "" then text
      else
        let b = Bytes.of_string text in
        Bytes.set b (i mod Bytes.length b) c;
        Bytes.to_string b
  | Drop_byte i ->
      if text = "" then text
      else
        let i = i mod String.length text in
        String.sub text 0 i ^ String.sub text (i + 1) (String.length text - i - 1)
  | Insert_byte (i, c) ->
      let i = i mod (String.length text + 1) in
      String.sub text 0 i ^ String.make 1 c
      ^ String.sub text i (String.length text - i)
  | (Drop_line _ | Dup_line _ | Swap_lines _) as e ->
      let a = Array.of_list (String.split_on_char '\n' text) in
      let n = Array.length a in
      let l =
        match e with
        | Drop_line i -> List.filteri (fun j _ -> j <> i mod n) (Array.to_list a)
        | Dup_line i ->
            List.concat_map
              (fun (j, s) -> if j = i mod n then [ s; s ] else [ s ])
              (List.mapi (fun j s -> (j, s)) (Array.to_list a))
        | Swap_lines (i, j) ->
            let i = i mod n and j = j mod n in
            let t = a.(i) in
            a.(i) <- a.(j);
            a.(j) <- t;
            Array.to_list a
        | _ -> assert false
      in
      String.concat "\n" l
  | Set_value (k, v) ->
      let toks = String.split_on_char '=' text in
      let n = List.length toks - 1 in
      if n = 0 then text
      else
        let k = 1 + (k mod n) in
        (* token k starts with the value after the k-th '=' *)
        String.concat "="
          (List.mapi
             (fun j t ->
               if j <> k then t
               else
                 let stop =
                   match String.index_from_opt t 0 ' ', String.index_from_opt t 0 '\n' with
                   | Some a, Some b -> min a b
                   | Some a, None | None, Some a -> a
                   | None, None -> String.length t
                 in
                 v ^ String.sub t stop (String.length t - stop))
             toks)

let edit_gen =
  QCheck2.Gen.(
    let pos = int_bound 10_000 in
    oneof
      [
        map2 (fun i c -> Set_byte (i, c)) pos char;
        map (fun i -> Drop_byte i) pos;
        map2 (fun i c -> Insert_byte (i, c)) pos char;
        map (fun i -> Drop_line i) pos;
        map (fun i -> Dup_line i) pos;
        map2 (fun i j -> Swap_lines (i, j)) pos pos;
        map2 (fun k v -> Set_value (k, v)) pos (oneofl edge_values);
      ])

let prop_fault_mutations =
  QCheck2.Test.make ~name:".fault parser: mutated examples" ~count:1000
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(
      map2
        (fun which edits ->
          let base = List.nth (Lazy.force example_texts) (if which then 0 else 1) in
          List.fold_left apply base edits)
        bool
        (list_size (int_range 1 6) edit_gen))
    parses_or_names_line

let test_builtins () =
  List.iter
    (fun name ->
      match Fault_scenario.find name with
      | Ok s -> check_string "resolves" name s.Fault_scenario.sname
      | Error e -> Alcotest.failf "builtin %s: %s" name e)
    [ "encoder-dropout"; "sensor-stuck"; "noise-burst"; "encoder-glitch";
      "actuator-jam"; "overrun-burst"; "wdog-suppress" ];
  match Fault_scenario.find "no-such-scenario" with
  | Ok _ -> Alcotest.fail "nonsense scenario resolved"
  | Error e ->
      check_bool "error lists builtins" true (contains "encoder-dropout" e)

(* a path that exists but does not read as a file is an error naming it,
   not an exception *)
let test_scenario_directory () =
  let dir = Filename.temp_dir "ecsd" "scenario" in
  Fun.protect ~finally:(fun () -> Sys.rmdir dir) @@ fun () ->
  match Fault_scenario.find dir with
  | Ok _ -> Alcotest.fail "a directory loaded as a scenario"
  | Error e -> check_bool "error names the path" true (contains dir e)

(* ---- the seeded injector ---- *)

let scn faults = { Fault_scenario.sname = "test"; faults }

let test_injector_sensor () =
  let inj =
    Fault_inject.arm
      (scn [ Fault.make ~at:0.5 ~duration:0.2 (Fault.Sensor_offset 10) ])
  in
  check_int "inactive passthrough" 100
    (Fault_inject.sensor inj ~slot:0 ~time:0.1 100);
  check_int "offset applied" 110 (Fault_inject.sensor inj ~slot:0 ~time:0.6 100);
  check_int "other slot untouched" 100
    (Fault_inject.sensor inj ~slot:1 ~time:0.6 100);
  let drop =
    Fault_inject.arm (scn [ Fault.make ~at:0.5 ~duration:0.2 Fault.Sensor_dropout ])
  in
  check_int "dropout zeroes" 0 (Fault_inject.sensor drop ~slot:0 ~time:0.6 4321);
  (* stuck freezes the last clean code *)
  let stuck =
    Fault_inject.arm (scn [ Fault.make ~at:0.5 ~duration:0.2 Fault.Sensor_stuck ])
  in
  check_int "clean" 7 (Fault_inject.sensor stuck ~slot:0 ~time:0.4 7);
  check_int "frozen at last clean" 7
    (Fault_inject.sensor stuck ~slot:0 ~time:0.6 9);
  check_int "still frozen" 7 (Fault_inject.sensor stuck ~slot:0 ~time:0.65 12);
  check_int "released" 12 (Fault_inject.sensor stuck ~slot:0 ~time:0.8 12)

let test_injector_determinism () =
  let mk seed =
    Fault_inject.arm ~seed
      (scn [ Fault.make ~at:0.0 ~duration:1.0 (Fault.Sensor_noise 40) ])
  in
  let stream seed =
    let inj = mk seed in
    List.init 50 (fun k ->
        Fault_inject.sensor inj ~slot:0 ~time:(float_of_int k *. 1e-3) 1000)
  in
  check_bool "same seed replays exactly" true (stream 3 = stream 3);
  check_bool "different seed differs" true (stream 3 <> stream 4);
  check_bool "noise stays within amplitude" true
    (List.for_all (fun v -> abs (v - 1000) <= 40) (stream 3));
  (* actuator faults *)
  let jam =
    Fault_inject.arm (scn [ Fault.make ~at:0.0 ~duration:1.0 (Fault.Actuator_jam 1.0) ])
  in
  Alcotest.(check (float 1e-12)) "jam forces duty" 1.0
    (Fault_inject.duty jam ~time:0.5 0.2);
  let sat =
    Fault_inject.arm
      (scn [ Fault.make ~at:0.0 ~duration:1.0 (Fault.Actuator_saturation 0.3) ])
  in
  Alcotest.(check (float 1e-12)) "saturation clips" 0.3
    (Fault_inject.duty sat ~time:0.5 0.8);
  Alcotest.(check (float 1e-12)) "saturation passes small" 0.1
    (Fault_inject.duty sat ~time:0.5 0.1)

(* the injector memoizes the active sublist per window; every answer
   must still match the Fault.active predicate — across one-shot and
   periodic windows, and after non-monotonic queries (each campaign run
   rewinds time to zero) *)
let test_injector_cache_equivalence () =
  let f1 = Fault.make ~at:0.2 ~duration:0.2 (Fault.Sensor_offset 10) in
  let f2 =
    Fault.make ~every:0.5 ~at:0.05 ~duration:0.1 (Fault.Sensor_offset 300)
  in
  let inj = Fault_inject.arm (scn [ f1; f2 ]) in
  let expected time =
    List.fold_left
      (fun v f ->
        match f.Fault.kind with
        | Fault.Sensor_offset d when Fault.active f ~time -> v + d
        | _ -> v)
      1000 [ f1; f2 ]
  in
  for k = 0 to 1200 do
    let time = float_of_int k *. 1e-3 in
    check_int
      (Printf.sprintf "t=%g" time)
      (expected time)
      (Fault_inject.sensor inj ~slot:0 ~time 1000)
  done;
  (* rewinding time must invalidate the cached window *)
  check_int "rewound inside the one-shot window" 1010
    (Fault_inject.sensor inj ~slot:0 ~time:0.3 1000);
  check_int "rewound before every onset" 1000
    (Fault_inject.sensor inj ~slot:0 ~time:0.0 1000);
  (* next_transition edges are the exact float window bounds *)
  Alcotest.(check (float 0.0)) "edge: onset" 0.2
    (Fault.next_transition f1 ~time:0.1);
  Alcotest.(check (float 0.0)) "edge: clear" (0.2 +. 0.2)
    (Fault.next_transition f1 ~time:0.25);
  check_bool "edge: gone for good" true
    (Fault.next_transition f1 ~time:0.5 = infinity);
  Alcotest.(check (float 0.0)) "periodic: revalidate every instant" 0.3
    (Fault.next_transition f2 ~time:0.3)

(* Every kind, with a magnitude where it takes one. *)
let gen_kind =
  QCheck2.Gen.(
    oneof
      [
        return Fault.Sensor_stuck;
        map (fun n -> Fault.Sensor_offset n) (int_range (-50) 50);
        map (fun n -> Fault.Sensor_noise n) (int_range 1 50);
        return Fault.Sensor_dropout;
        map (fun n -> Fault.Encoder_glitch n) (int_range 1 500);
        map (fun x -> Fault.Actuator_saturation x) (float_range 0.1 1.0);
        map (fun x -> Fault.Actuator_jam x) (float_range (-1.0) 1.0);
        map (fun x -> Fault.Load_torque x) (float_range 0.0 0.01);
        map (fun n -> Fault.Overrun n) (int_range 0 100_000);
        return Fault.Wdog_suppress;
      ])

(* times on the 1 ms control grid, so queries land on window edges *)
let gen_time = QCheck2.Gen.(map (fun k -> float_of_int k *. 1e-3) (int_range 0 1500))

(* windows of 1-400 ms, one-shot or recurring 0-500 ms after they close *)
let gen_fault =
  QCheck2.Gen.(
    map
      (fun (kind, slot, (at, duration), gap) ->
        let ms k = float_of_int k *. 1e-3 in
        let every = Option.map (fun g -> ms (duration + g)) gap in
        Fault.make ~slot ?every ~at ~duration:(ms duration) kind)
      (quad gen_kind (int_range 0 1)
         (pair gen_time (int_range 1 400))
         (opt (int_range 0 500))))

type call = Sensor of int * float * int | Duty of float * float | Timing of float

let gen_call =
  QCheck2.Gen.(
    oneof
      [
        map3 (fun slot time v -> Sensor (slot, time, v)) (int_range 0 1)
          gen_time (int_range 0 65535);
        map2 (fun time u -> Duty (time, u)) gen_time (float_range (-1.5) 1.5);
        map (fun time -> Timing time) gen_time;
      ])

(* A kind {!Fault_inject.draws} calls non-drawing must give every seed
   the same answers: campaigns simulate such a run once and hand it to
   every seed. *)
let prop_non_drawing_seed_free =
  QCheck2.Test.make ~name:"non-drawing kinds answer every seed alike"
    ~count:300
    QCheck2.Gen.(
      triple (list_size (int_range 1 4) gen_fault)
        (list_size (int_range 1 60) gen_call)
        (pair (int_range 1 1000) (int_range 1 1000)))
    (fun (faults, calls, (s1, d)) ->
      let faults =
        List.filter (fun f -> not (Fault_inject.draws f.Fault.kind)) faults
      in
      let answers seed =
        let inj = Fault_inject.arm ~seed (scn faults) in
        List.map
          (function
            | Sensor (slot, time, v) ->
                `I (Fault_inject.sensor inj ~slot ~time v)
            | Duty (time, u) -> `F (Fault_inject.duty inj ~time u)
            | Timing time ->
                let n = Fault_inject.overrun_cycles inj ~time in
                `T (n, Fault_inject.wdog_suppressed inj ~time))
          calls
      in
      answers s1 = answers (s1 + d))

let test_unarmed_identity () =
  (* an empty scenario arms nothing at all *)
  check_bool "empty scenario installs no hook" true
    (Fault_inject.sim_hook
       (Fault_inject.arm (scn []))
       ~sensor_ports:[||] ()
    = []);
  (* a hook whose windows never open must not perturb the trace *)
  let final_speed armed =
    let scenario =
      scn [ Fault.make ~at:10.0 ~duration:0.1 Fault.Sensor_dropout ]
    in
    let subject, _ = Servo_system.faultsim_subject ~scenario () in
    if armed then ignore (Fault_campaign.arm subject scenario)
    else Fault_campaign.disarm subject;
    for _ = 1 to 300 do
      Sim.step subject.Fault_campaign.sim
    done;
    Value.to_float
      (Sim.value subject.Fault_campaign.sim
         subject.Fault_campaign.ports.Fault_campaign.speed_port)
  in
  let w_off = final_speed false and w_on = final_speed true in
  check_bool "armed-but-idle hook is bit-identical" true (w_off = w_on)

(* ---- the planned MIL step: allocation budget and hooked ports ---- *)

let builtin name =
  match Fault_scenario.builtin name with
  | Some s -> s
  | None -> Alcotest.failf "no builtin scenario %s" name

(* run [f] with span and flight recording off, restoring both after *)
let quiet f =
  let obs = Obs.enabled () and fl = Flight.enabled () in
  if obs then Obs.set_enabled false;
  Flight.set_enabled false;
  Fun.protect
    ~finally:(fun () ->
      if obs then Obs.set_enabled true;
      Flight.set_enabled fl)
    f

(* minor words per [Sim.step] on the faultsim subject: 2000 steps after
   a 100-step warm-up, so the run crosses the 0.9 s fault window *)
let words_per_step ?armed () =
  let scenario = Option.value armed ~default:(scn []) in
  let subject, _ = Servo_system.faultsim_subject ~scenario () in
  (match armed with
  | Some s -> ignore (Fault_campaign.arm subject s)
  | None -> Fault_campaign.disarm subject);
  let sim = subject.Fault_campaign.sim in
  quiet (fun () ->
      for _ = 1 to 100 do
        Sim.step sim
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to 2000 do
        Sim.step sim
      done;
      (Gc.minor_words () -. w0) /. 2000.0)

let test_step_allocation () =
  let unarmed = words_per_step () in
  let armed = words_per_step ~armed:(builtin "sensor-stuck") () in
  (* measured 153 words with OCaml 5.1 in the release build (RK4, 5
     sub-steps: 20 derivative stages per step), with the step planned
     once as closures, the stage time read from the solver's cell and
     the setpoint schedule boxing nothing per call; 219 while every
     stage boxed its time and the schedule allocated a closure and a
     ref a call; 451 in a dev build, whose -opaque stops every inlining
     across modules; 803 when every stage boxed the plant's outputs and
     returned fresh derivative arrays, and 3356 for a step that
     re-derived its inputs, arities and continuous order every call *)
  let budget = 1.25 *. 153.0 in
  if unarmed > budget then
    Alcotest.failf "unarmed step allocates %.0f minor words, budget %.0f"
      unarmed budget;
  if Float.abs (armed -. unarmed) > 0.1 *. unarmed then
    Alcotest.failf "armed (sensor-stuck) step allocates %.0f words, unarmed %.0f"
      armed unarmed

(* minor words per [Silvm_diff.run] lock-step on servo [--opt] (MIL
   step, compiled SIL step, compare, PIL plant): the difference of a
   6000- and a 1000-step run, after a warm-up run that fills the
   compile cache *)
let words_per_lockstep () =
  let subject steps =
    match
      Diff_subject.make ~config:Servo_system.default_config ~steps ~opt:true
        "servo"
    with
    | Ok s -> s
    | Error _ -> Alcotest.fail "no servo diff subject"
  in
  let words steps =
    let s = subject steps in
    let w0 = Gc.minor_words () in
    let r = Diff_subject.run s in
    let w = Gc.minor_words () -. w0 in
    check_bool "lock-step agrees" true (r.Silvm_diff.divergence = None);
    w
  in
  quiet (fun () ->
      ignore (words 10);
      let short = words 1000 in
      (words 6000 -. short) /. 5000.0)

let test_lockstep_allocation () =
  let w = words_per_lockstep () in
  (* measured 179 words with OCaml 5.1 in the release build; 202 before
     the setpoint schedule of the MIL controller stopped allocating a
     closure and a ref a step, 264 while the compiled SIL step read every
     float cell and constant through a closure that boxed it, 362 in a
     dev build (no inlining across modules) and 442 before the harness
     kept its plan in flat arrays and the PIL plant stopped allocating;
     the lock-step allocated 1366 while the PIL plant rebuilt its state,
     RK4 closure and workspace every motor sub-step *)
  let budget = 1.25 *. 179.0 in
  if w > budget then
    Alcotest.failf "a diff lock-step allocates %.0f minor words, budget %.0f" w
      budget

(* minor words per PIL period of the servo plant, through its driver as
   the lock-step uses it: read the sensors, apply the duty, advance. The
   times come boxed from a list, so the loop itself allocates nothing *)
let test_pil_plant_allocation () =
  let b = Servo_system.build () in
  let plant = Servo_system.pil_plant b in
  let d = Servo_system.pil_driver b in
  let acts = [| 30000 |] in
  let period time =
    ignore (d.Pil_cosim.read_sensors plant ~time);
    d.Pil_cosim.apply_actuators plant acts;
    d.Pil_cosim.advance plant ~dt:1e-3
  in
  let times lo hi = List.init (hi - lo) (fun k -> float_of_int (lo + k) *. 1e-3) in
  List.iter period (times 0 100);
  let measured = times 100 2100 in
  let w0 = Gc.minor_words () in
  List.iter period measured;
  let w = (Gc.minor_words () -. w0) /. 2000.0 in
  (* measured 0 words with OCaml 5.1 in the release build: the power
     stage, load, motor and RK4 step inline into the period; 98 in a dev
     build, 153 before they inlined and 1055 for 8 fresh-state
     [Dc_motor.step] calls a period *)
  if w > 0.0 then
    Alcotest.failf "a PIL plant period allocates %.1f minor words, budget 0" w

(* minor words per control period of [Pil_cosim.run] on the servo as
   [ecsd pil] runs it (5 ms period): the difference of a 600- and a
   100-period run, so the link's and the machine's setup cancel *)
let words_per_pil_period () =
  let cfg =
    { Servo_system.default_config with Servo_system.control_period = 5e-3 }
  in
  let b = Servo_system.build ~config:cfg () in
  let comp = Compile.compile b.Servo_system.controller in
  let a = Pil_target.generate ~name:"servo" ~project:b.Servo_system.project comp in
  let words periods =
    let controller = Sim.create comp in
    let plant = Servo_system.pil_plant b and driver = Servo_system.pil_driver b in
    let w0 = Gc.minor_words () in
    let r =
      Pil_cosim.run ~mcu:cfg.Servo_system.mcu ~schedule:a.Target.schedule
        ~controller ~plant ~driver ~periods ()
    in
    let w = Gc.minor_words () -. w0 in
    check_int "no overruns" 0 r.Pil_cosim.profile.Pil_cosim.overruns;
    w
  in
  quiet (fun () ->
      ignore (words 10);
      let short = words 100 in
      (words 600 -. short) /. 500.0)

let test_pil_period_allocation () =
  let w = words_per_pil_period () in
  (* measured 193 words with OCaml 5.1 in the release build: the
     controller's [Sim.step] (123), the plant trace (42), the sensor
     overrides and the profile's samples; 2071 when every event was a
     closure, every IRQ dispatch a record and every frame an int list *)
  let budget = 1.25 *. 193.0 in
  if w > budget then
    Alcotest.failf "a PIL period allocates %.0f minor words, budget %.0f" w
      budget

let test_hooked_ports () =
  let subject, built = Servo_system.faultsim_subject ~scenario:(scn []) () in
  let sim = subject.Fault_campaign.sim in
  let m = built.Servo_system.closed_loop in
  let qd = (Model.find m "ctl/qd", 0)
  and duty = (Model.find m "duty_junction", 0) in
  let calls = [| 0; 0 |] and seen = [| Value.F nan; Value.F nan |] in
  let counting slot ~time:_ v =
    calls.(slot) <- calls.(slot) + 1;
    seen.(slot) <- v;
    v
  in
  Sim.set_fault_hook sim [ (qd, counting 0); (duty, counting 1) ];
  let steps = 300 in
  for k = 1 to steps do
    Sim.step sim;
    check_int (Printf.sprintf "qd hook calls after step %d" k) k calls.(0);
    check_int (Printf.sprintf "duty hook calls after step %d" k) k calls.(1);
    (* each hook sees exactly its own port's writes *)
    check_bool "qd hook bound to ctl/qd" true (Sim.value sim qd == seen.(0));
    check_bool "duty hook bound to duty_junction" true
      (Sim.value sim duty == seen.(1))
  done;
  let rejects what hooks =
    match Sim.set_fault_hook sim hooks with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s accepted" what
  in
  let n_out = (Model.spec_of m (fst qd)).Block.n_out in
  rejects "port past n_out" [ ((fst qd, n_out), counting 0) ];
  rejects "negative port" [ ((fst qd, -1), counting 0) ];
  (* a block of a bigger model lies outside this one *)
  let big = Model.create "big" in
  let outside = ref (fst qd) in
  for _ = 0 to Model.n_blocks m do
    outside := Model.add big (Sources.constant 0.0)
  done;
  rejects "block outside the model" [ ((!outside, 0), counting 0) ];
  rejects "port hooked twice" [ (qd, counting 0); (qd, counting 1) ];
  (* a rejected install leaves the installed hooks in place *)
  Sim.step sim;
  check_int "hooks survive a rejected install" (steps + 1) calls.(0);
  Sim.set_fault_hook sim [];
  Sim.step sim;
  check_int "cleared hooks see nothing" (steps + 1) calls.(0);
  check_int "cleared duty hook sees nothing" (steps + 1) calls.(1)

(* ---- recovery campaigns on the servo loop ---- *)

let campaign ?(seeds = 2) name =
  let scenario =
    match Fault_scenario.find name with
    | Ok s -> s
    | Error e -> Alcotest.failf "scenario %s: %s" name e
  in
  let subject, _ = Servo_system.faultsim_subject ~scenario () in
  Fault_campaign.run ~seeds ~scenario subject

let test_campaign_dropout () =
  let r = campaign "encoder-dropout" in
  check_int "two runs" 2 (List.length r.Fault_campaign.runs);
  check_bool "all detected" true (Fault_campaign.all_detected r);
  check_bool "all recovered" true (Fault_campaign.all_recovered r);
  List.iter
    (fun run ->
      check_bool "left Nominal" true (run.Fault_campaign.max_mode >= 1);
      check_bool "spent steps degraded" true (run.Fault_campaign.steps_degraded > 0);
      (match run.Fault_campaign.detection_s with
      | Some d ->
          (* the wrapped count delta reads as a huge speed: range check
             fires within a few control periods *)
          check_bool "fast detection" true (d < 0.01)
      | None -> Alcotest.fail "no detection latency");
      (match run.Fault_campaign.recovery_s with
      | Some rt -> check_bool "recovers within 0.5 s" true (rt < 0.5)
      | None -> Alcotest.fail "no recovery time");
      check_bool "tracks the set-point again" true
        (run.Fault_campaign.residual_rms < 20.0))
    r.Fault_campaign.runs

(* the sharded campaign must reproduce the sequential one run-for-run:
   seeds are independent, results land in seed order, and each worker
   domain builds its own subject. Both bodies of the seed sweep are
   held to it: the MIL fault campaign and the MIL<->SIL diff. *)
(* A scenario that never draws from the RNG is one run for every seed,
   so it runs on one domain whatever the job count: at --jobs 4 it
   reports what --jobs 1 does and simulates as many steps, one run's. *)
let test_shared_campaign_one_domain () =
  let scenario = builtin "wdog-suppress" in
  let steps = Obs.counter "sim.steps" in
  let campaign jobs =
    let before = Obs.counter_value steps in
    let r =
      Fault_campaign.sweep ~t_end:1.5 ~seeds:6 ~jobs ~scenario (fun () ->
          fst (Servo_system.faultsim_subject ~scenario ()))
    in
    (r, Obs.counter_value steps - before)
  in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  let (one, n1), (four, n4) =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled was)
      (fun () ->
        let one = campaign 1 in
        (one, campaign 4))
  in
  check_bool "jobs 4 report = jobs 1 report" true
    (one.Fault_campaign.runs = four.Fault_campaign.runs);
  check_int "one run simulated" one.Fault_campaign.steps_per_run n1;
  check_int "jobs 4 sim.steps = jobs 1 sim.steps" n1 n4

let test_parallel_campaign_matches_sequential () =
  let scenario =
    match Fault_scenario.find "encoder-dropout" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let subject, _ = Servo_system.faultsim_subject ~scenario () in
  let seq = Fault_campaign.run ~t_end:0.4 ~seeds:6 ~scenario subject in
  let par =
    Fault_campaign.sweep ~t_end:0.4 ~seeds:6 ~jobs:3 ~scenario (fun () ->
        fst (Servo_system.faultsim_subject ~scenario ()))
  in
  check_int "same number of runs" 6 (List.length par.Fault_campaign.runs);
  check_bool "identical run lists" true
    (seq.Fault_campaign.runs = par.Fault_campaign.runs);
  check_int "same steps per run" seq.Fault_campaign.steps_per_run
    par.Fault_campaign.steps_per_run;
  (* The diff body. Its reports are seed-blind while MIL and SIL agree,
     and a dropout is not seeded at all, so the sweep runs the seeded
     noise burst, a divergence is forced inside it, and the forensics
     bundles, which carry each seed's perturbed sensor stream, are
     compared as well as the reports. *)
  let noise =
    match Fault_scenario.find "noise-burst" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let sweep_diffs ?jobs () =
    Flight.reset ();
    let s =
      Seed_sweep.run ?jobs ~seeds:6 ~track:"noise-burst" ~label:"diff"
        ~subject:(fun () ->
          Result.get_ok
            (Diff_subject.make ~config:Servo_system.default_config ~steps:1000
               ~scenario:noise "servo"))
        ~plan:ignore
        (fun () s seed -> Diff_subject.run ~seed s)
    in
    let reports =
      Array.to_list
        (Array.map
           (fun (seed, o) ->
             let r = Result.get_ok o.Supervise.result in
             (* the timing fields are the only schedule-dependent ones *)
             (seed, { r with Silvm_diff.mil_seconds = 0.0; sil_seconds = 0.0 }))
           s.Seed_sweep.outcomes)
    in
    (reports, Flight.captures_jsonl ())
  in
  Unix.putenv "ECSD_DIVERGE_AT" "950";
  Flight.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "ECSD_DIVERGE_AT" "";
      Flight.set_enabled false;
      Flight.reset ())
  @@ fun () ->
  let seq, seq_bundles = sweep_diffs () in
  let par, par_bundles = sweep_diffs ~jobs:3 () in
  check_int "diff: one report per seed" 6 (List.length par);
  check_bool "diff: identical report lists" true (seq = par);
  check_bool "diff: every seed diverged at the forced step" true
    (List.for_all
       (fun (_, r) ->
         match r.Silvm_diff.divergence with
         | Some d -> d.Silvm_diff.d_step = 950
         | None -> false)
       seq);
  check_int "diff: one bundle per seed" 6 (List.length (Flight.captures ()));
  check_bool "diff: identical bundles" true (seq_bundles = par_bundles)

(* run sizes are validated once, by the seed sweep and the diff
   subject: seeds >= 1, steps >= 0, a finite t_end of at least one
   step; anything else is a bad request raised before any run *)
let test_run_sizes_validated () =
  let scenario =
    match Fault_scenario.find "encoder-dropout" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let subject, _ = Servo_system.faultsim_subject ~scenario () in
  let bad what f =
    check_bool what true
      (match f () with
      | exception Supervise.Bad_request _ -> true
      | _ -> false)
  in
  let campaign ?t_end seeds () =
    Fault_campaign.run ?t_end ~seeds ~scenario subject
  in
  bad "seeds 0" (campaign 0);
  bad "seeds -3" (campaign (-3));
  bad "t_end -1" (campaign ~t_end:(-1.0) 2);
  bad "t_end nan" (campaign ~t_end:Float.nan 2);
  bad "t_end inf" (campaign ~t_end:Float.infinity 2);
  bad "t_end under one step" (campaign ~t_end:0.0001 2);
  (* 5e18 steps of 1 ms: past max_int, so the step count cannot be
     rounded, and the message must say so rather than blame finiteness *)
  (match campaign ~t_end:5e15 2 () with
  | exception Supervise.Bad_request msg ->
      check_bool "overlong t_end names the step limit" true
        (Astring_contains.contains msg "step limit")
  | _ -> Alcotest.fail "t_end 5e15 was accepted");
  check_int "t_end of ten steps" 10
    (campaign ~t_end:0.01 1 ()).Fault_campaign.steps_per_run;
  let built = ref 0 in
  bad "sweep seeds 0" (fun () ->
      Seed_sweep.run ~seeds:0 ~track:"t" ~label:"t"
        ~subject:(fun () -> incr built)
        ~plan:ignore
        (fun () () _ -> ()));
  check_int "rejected before any subject is built" 0 !built;
  let config = Servo_system.default_config in
  bad "diff steps -5" (fun () -> Diff_subject.make ~config ~steps:(-5) "servo");
  (* the diff injector perturbs the generated code's sensor slots, and
     nothing else: a fault it cannot inject is refused before any
     lock-step *)
  let diff_fault line =
    match Fault_scenario.of_string ~name:"t" line with
    | Ok scenario -> fun () -> Diff_subject.make ~config ~scenario "servo"
    | Error e -> Alcotest.fail e
  in
  (match diff_fault "stuck at=0.9 duration=0.15 slot=99" () with
  | exception Supervise.Bad_request msg ->
      check_bool "diff slot 99 names the slot count" true
        (Astring_contains.contains msg "slot 99"
        && Astring_contains.contains msg "2 sensor slots")
  | _ -> Alcotest.fail "diff: a fault on sensor slot 99 was accepted");
  bad "diff actuator fault" (diff_fault "jam at=0.9 duration=0.1 value=1");
  check_bool "diff sensor slot 1 accepted" true
    (Result.is_ok (diff_fault "stuck at=0.9 duration=0.15 slot=1" ()));
  (match Diff_subject.make ~config ~steps:0 "isr-demo" with
  | Ok s ->
      check_string "isr-demo report name" "isr_demo" (Diff_subject.name s);
      check_int "zero steps run" 0 (Diff_subject.run s).Silvm_diff.steps_run
  | Error _ -> Alcotest.fail "isr-demo is a known model");
  check_bool "unknown model is a typed error" true
    (Diff_subject.make ~config "nosuch"
    = Error (Diff_subject.Unknown_model "nosuch"))

(* a fault its subject does not apply is a bad request naming the fault
   and the reason (or the slot count), not a run that injects nothing *)
let test_fault_ports_validated () =
  let subject, _ =
    Servo_system.faultsim_subject ~scenario:(scn []) ()
  in
  (* load faults are folded into the plant when the subject is built *)
  let built_for line =
    match Fault_scenario.of_string ~name:"built" line with
    | Ok scenario -> fst (Servo_system.faultsim_subject ~scenario ())
    | Error e -> Alcotest.failf "%s: %s" line e
  in
  let load = "load at=1.2 duration=0.4 value=0.05" in
  let dropout_subject = built_for "dropout at=100 duration=0.4"
  and load_subject = built_for load in
  let no_duty =
    {
      subject with
      Fault_campaign.ports =
        { subject.Fault_campaign.ports with Fault_campaign.duty_port = None };
    }
  in
  let campaign subject scenario =
    ignore (Fault_campaign.run ~t_end:0.01 ~seeds:1 ~scenario subject)
  in
  (* the diff lock-step perturbs the generated code's sensor codes only *)
  let diff scenario =
    ignore
      (Diff_subject.make ~config:Servo_system.default_config ~steps:0
         ~scenario "servo")
  in
  List.iter
    (fun (run, line, expect) ->
      let scenario =
        match Fault_scenario.of_string ~name:"t" line with
        | Ok s -> s
        | Error e -> Alcotest.failf "%s: %s" line e
      in
      match run scenario with
      | () -> if expect <> None then Alcotest.failf "%s: accepted" line
      | exception Supervise.Bad_request msg -> (
          match expect with
          | None -> Alcotest.failf "%s: rejected (%s)" line msg
          | Some parts ->
              List.iter
                (fun part ->
                  check_bool
                    (Printf.sprintf "%s: %S names %S" line msg part)
                    true (contains part msg))
                parts))
    [
      (campaign subject, "stuck at=0.9 duration=0.15 slot=99",
       Some [ "sensor-stuck@99"; "slot 99"; "1 sensor slot" ]);
      (campaign subject, "noise at=0.9 duration=0.1 value=5 slot=1",
       Some [ "sensor-noise(+-5)@1"; "slot 1"; "1 sensor slot" ]);
      (campaign subject,
       "dropout at=0.9 duration=0.1\nglitch at=0 duration=1 value=9 slot=2",
       Some [ "encoder-glitch(+-9)@2"; "slot 2" ]);
      (campaign subject, "dropout at=0.9 duration=0.1 slot=0", None);
      (campaign subject, "overrun at=0.9 duration=0.1 value=100 slot=7", None);
      (campaign subject, "wdog-suppress at=0.9 duration=0.1 slot=3", None);
      (campaign subject, "jam at=0.9 duration=0.1 value=1", None);
      (campaign no_duty, "jam at=0.9 duration=0.1 value=1",
       Some [ "actuator-jam(1)"; "no duty port" ]);
      (campaign no_duty, "saturation at=0.9 duration=0.1 value=0.5",
       Some [ "actuator-saturation(0.5)"; "no duty port" ]);
      (campaign no_duty, "offset at=0.9 duration=0.1 value=3", None);
      (campaign dropout_subject, load,
       Some [ "load-torque(0.05 N.m)"; "built without it" ]);
      (campaign subject, load, Some [ "load-torque(0.05 N.m)" ]);
      (campaign load_subject, load, None);
      (campaign load_subject, "load at=1.2 duration=0.4 value=0.06",
       Some [ "load-torque(0.06 N.m)"; "built without it" ]);
      (diff, "saturation at=0.9 duration=0.1 value=0.5",
       Some [ "actuator-saturation(0.5)"; "sensor faults only" ]);
      (diff, "jam at=0.9 duration=0.1 value=1",
       Some [ "actuator-jam(1)"; "sensor faults only" ]);
      (diff, "load at=0.9 duration=0.1 value=0.01",
       Some [ "load-torque(0.01 N.m)"; "sensor faults only" ]);
      (diff, "overrun at=0.9 duration=0.1 value=600000",
       Some [ "overrun(+600000 cycles)"; "sensor faults only" ]);
      (diff, "stuck at=0.9 duration=0.15\nwdog-suppress at=0.9 duration=0.1",
       Some [ "wdog-suppress [0.9,1)"; "sensor faults only" ]);
      (diff, "glitch at=0.9 duration=0.1 value=9 slot=1", None);
    ]

(* every kind word the .fault grammar accepts changes a campaign run
   when its window covers the run's end, against the same line
   scheduled after the run: no kind parses and then injects nothing *)
let test_every_kind_applied () =
  let row line =
    Result.map
      (fun scenario ->
        let subject, _ = Servo_system.faultsim_subject ~scenario () in
        (Fault_campaign.run ~t_end:1.6 ~seeds:1 ~scenario subject)
          .Fault_campaign.runs)
      (Fault_scenario.of_string ~name:"t" line)
  in
  List.iter
    (fun (kind, value, applied) ->
      let line at = Printf.sprintf "%s at=%s duration=0.4 %s" kind at value in
      match (row (line "1.2"), row (line "100"), applied) with
      | Ok during, Ok after, true ->
          check_bool (kind ^ " changes the run") true (during <> after)
      | Error e, _, false ->
          check_bool (kind ^ " refused at its line") true
            (contains "line 1: unknown fault kind" e)
      | Ok _, _, false -> Alcotest.failf "%s: accepted" kind
      | Error e, _, true | _, Error e, _ -> Alcotest.failf "%s: %s" kind e)
    [
      ("stuck", "", true);
      ("dropout", "", true);
      ("offset", "value=500", true);
      ("noise", "value=400", true);
      ("glitch", "value=5000", true);
      ("saturation", "value=0.05", true);
      ("jam", "value=-1", true);
      ("load", "value=0.05", true);
      ("overrun", "value=600000", true);
      ("wdog-suppress", "", true);
      (* serial-line noise belongs to the PIL link, not to a campaign *)
      ("comm", "value=0.5", false);
    ]

let test_campaign_stuck_reaches_safestop () =
  let r = campaign "sensor-stuck" in
  check_bool "all detected" true (Fault_campaign.all_detected r);
  check_bool "all recovered" true (Fault_campaign.all_recovered r);
  List.iter
    (fun run ->
      check_int "escalates to SafeStop" 2 run.Fault_campaign.max_mode;
      check_bool "spent steps safe-stopped" true
        (run.Fault_campaign.steps_safestop > 0))
    r.Fault_campaign.runs

let test_campaign_timing_faults_bite () =
  (* injected overruns stretch the step past the watchdog budget *)
  let r = campaign ~seeds:1 "overrun-burst" in
  check_bool "overruns detected" true (Fault_campaign.all_detected r);
  List.iter
    (fun run -> check_bool "watchdog bit" true (run.Fault_campaign.wdog_bites > 0))
    r.Fault_campaign.runs;
  let r = campaign ~seeds:1 "wdog-suppress" in
  check_bool "lost service detected" true (Fault_campaign.all_detected r);
  List.iter
    (fun run -> check_bool "watchdog bit" true (run.Fault_campaign.wdog_bites > 0))
    r.Fault_campaign.runs

let test_campaign_json () =
  let r = campaign ~seeds:2 "noise-burst" in
  let doc = Fault_campaign.to_json ~model:"servo" r in
  let text = Bench_json.to_string doc in
  let j = Bench_json.parse text in
  let str k = match Bench_json.member k j with
    | Some (Bench_json.Str s) -> s
    | _ -> Alcotest.failf "missing %s" k
  in
  check_string "schema" "ecsd-fault-1" (str "schema");
  check_string "model" "servo" (str "model");
  check_string "scenario" "noise-burst" (str "scenario");
  (match Bench_json.member "runs" j with
  | Some (Bench_json.Arr rows) -> check_int "rows" 2 (List.length rows)
  | _ -> Alcotest.fail "runs missing");
  (match Bench_json.member "all_recovered" j with
  | Some (Bench_json.Bool _) -> ()
  | _ -> Alcotest.fail "all_recovered missing")

(* ---- MIL vs SIL stays bit-exact through a fault transient ---- *)

let test_diff_under_fault () =
  let b =
    Servo_system.build
      ~config:{ Servo_system.default_config with Servo_system.with_supervisor = true }
      ()
  in
  let comp = Compile.compile b.Servo_system.controller in
  let plant = Servo_system.pil_plant b in
  let driver = Servo_system.pil_driver b in
  let scenario =
    match Fault_scenario.find "noise-burst" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let injector = Diff_subject.injector scenario ~seed:7 in
  let r =
    Silvm_diff.run ~steps:1200 ~plant:(Silvm_diff.Plant (plant, driver))
      ~injector ~name:"servo" ~project:b.Servo_system.project comp
  in
  (match r.Silvm_diff.divergence with
  | None -> ()
  | Some d ->
      Alcotest.failf "diverged under fault at step %d %s:%d (MIL %s, SIL %s; %s)"
        d.Silvm_diff.d_step d.Silvm_diff.d_block d.Silvm_diff.d_port
        d.Silvm_diff.d_mil d.Silvm_diff.d_sil
        (String.concat ", " d.Silvm_diff.d_faults));
  check_int "ran every step" 1200 r.Silvm_diff.steps_run

(* ---- deployment-side watchdog behaviour ---- *)

let test_wdog_rearm () =
  let machine = Machine.create Mcu_db.mc56f8367 in
  let wd = Wdog_periph.create machine ~timeout:1e-3 () in
  Wdog_periph.enable wd;
  let half = Machine.cycles_of_time machine 0.5e-3 in
  Machine.advance machine ~cycles:(4 * half);
  let n1 = Wdog_periph.bites wd in
  check_bool "starved watchdog bites" true (n1 >= 1);
  (* serviced twice per timeout: the re-armed countdown never expires *)
  for _ = 1 to 8 do
    Wdog_periph.refresh wd;
    Machine.advance machine ~cycles:half
  done;
  check_int "no bites while serviced" n1 (Wdog_periph.bites wd);
  Machine.advance machine ~cycles:(4 * half);
  check_bool "bites again after re-arm" true (Wdog_periph.bites wd > n1)

(* ---- CON004 ---- *)

let test_con004 () =
  (* a watchdog bean nobody services *)
  let p = Bean_project.create Mcu_db.mc56f8367 in
  let _wd = Bean_project.add p (Bean.make ~name:"WD1" (Bean.Watch_dog { timeout = 8e-3 })) in
  let m = Model.create "wd_orphan" in
  let c = Model.add m ~name:"c" (Sources.constant 1.0) in
  let g = Model.add m ~name:"g" (Math_blocks.gain 2.0) in
  Model.connect m ~src:(c, 0) ~dst:(g, 0);
  let comp = Compile.compile m in
  (match Concurrency.watchdog_findings ~project:p comp with
  | [ f ] ->
      check_string "rule" "CON004" f.Diag.rule;
      check_string "subject" "WD1" f.Diag.subject;
      check_bool "severity error" true (f.Diag.severity = Diag.Error)
  | fs -> Alcotest.failf "expected one CON004, got %d" (List.length fs));
  (* the supervisor services WD1 from the periodic step: clean *)
  let b =
    Servo_system.build
      ~config:{ Servo_system.default_config with Servo_system.with_supervisor = true }
      ()
  in
  let comp = Compile.compile b.Servo_system.controller in
  check_int "supervised servo passes" 0
    (List.length
       (Concurrency.watchdog_findings ~project:b.Servo_system.project comp))

let suite =
  [
    Alcotest.test_case "fault windows" `Quick test_fault_window;
    Alcotest.test_case "scenario parse" `Quick test_scenario_parse;
    Alcotest.test_case "scenario errors" `Quick test_scenario_errors;
    Alcotest.test_case "scenario bad values" `Quick test_scenario_bad_values;
    Alcotest.test_case "example scenarios parse" `Quick test_example_scenarios;
    Alcotest.test_case "brownout load spike recurs" `Quick test_periodic_load;
    QCheck_alcotest.to_alcotest prop_periodic_load_window;
    QCheck_alcotest.to_alcotest prop_fault_bytes;
    QCheck_alcotest.to_alcotest prop_fault_mutations;
    Alcotest.test_case "builtin scenarios" `Quick test_builtins;
    Alcotest.test_case "scenario path is a directory" `Quick
      test_scenario_directory;
    Alcotest.test_case "injector: sensor kinds" `Quick test_injector_sensor;
    Alcotest.test_case "injector: seeds and actuators" `Quick
      test_injector_determinism;
    Alcotest.test_case "injector: cache matches Fault.active" `Quick
      test_injector_cache_equivalence;
    QCheck_alcotest.to_alcotest prop_non_drawing_seed_free;
    Alcotest.test_case "unarmed hooks are identity" `Quick test_unarmed_identity;
    Alcotest.test_case "MIL step allocation budget" `Quick test_step_allocation;
    Alcotest.test_case "diff lock-step allocation budget" `Quick
      test_lockstep_allocation;
    Alcotest.test_case "PIL period allocation budget" `Quick
      test_pil_period_allocation;
    Alcotest.test_case "PIL plant allocation budget" `Quick
      test_pil_plant_allocation;
    Alcotest.test_case "fault hooks see only their ports" `Quick
      test_hooked_ports;
    Alcotest.test_case "campaign: encoder dropout recovers" `Quick
      test_campaign_dropout;
    Alcotest.test_case "campaign: parallel matches sequential" `Quick
      test_parallel_campaign_matches_sequential;
    Alcotest.test_case "campaign: shared run on one domain" `Quick
      test_shared_campaign_one_domain;
    Alcotest.test_case "campaign: run sizes validated" `Quick
      test_run_sizes_validated;
    Alcotest.test_case "campaign: every fault kind is applied" `Quick
      test_every_kind_applied;
    Alcotest.test_case "campaign: fault ports validated" `Quick
      test_fault_ports_validated;
    Alcotest.test_case "campaign: stuck sensor reaches SafeStop" `Quick
      test_campaign_stuck_reaches_safestop;
    Alcotest.test_case "campaign: timing faults bite the watchdog" `Quick
      test_campaign_timing_faults_bite;
    Alcotest.test_case "campaign: JSON roundtrip" `Quick test_campaign_json;
    Alcotest.test_case "MIL vs SIL bit-exact under fault" `Quick
      test_diff_under_fault;
    Alcotest.test_case "watchdog re-arms after bite" `Quick test_wdog_rearm;
    Alcotest.test_case "CON004 watchdog service path" `Quick test_con004;
  ]

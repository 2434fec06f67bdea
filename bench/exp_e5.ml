(* E5 -- Fig 6.2: processor-in-the-loop simulation. The development-board
   profile (execution times, response times, sampling jitter, stack),
   fidelity against MIL, and the RS-232 feasibility crossover. *)

let cfg = { Servo_system.default_config with Servo_system.control_period = 5e-3 }

let run_pil ?(baud = 115200) ?(periods = 320) () =
  let built = Servo_system.build ~config:cfg () in
  let comp = Compile.compile built.Servo_system.controller in
  let arts = Pil_target.generate ~name:"servo" ~project:built.Servo_system.project comp in
  let controller = Sim.create comp in
  let plant = Servo_system.pil_plant built in
  let driver = Servo_system.pil_driver built in
  ( built,
    arts,
    Pil_cosim.run ~baud ~mcu:cfg.Servo_system.mcu ~schedule:arts.Target.schedule
      ~controller ~plant ~driver ~periods () )

let run () =
  print_endline "==================================================================";
  print_endline "E5 (Fig 6.2): PIL co-simulation over RS-232";
  print_endline "==================================================================";
  let built, _arts, r = run_pil () in
  let p = r.Pil_cosim.profile in
  let t =
    Table.create
      ~title:"PIL profile: servo on the virtual MC56F8367, 5 ms period, 115200 baud"
      [ "quantity"; "value" ]
  in
  Table.add_rows t
    [
      [ "controller execution";
        Printf.sprintf "%.1f us/step" (p.Pil_cosim.controller_exec *. 1e6) ];
      [ "ISR-to-reply latency p50/p95/max";
        Printf.sprintf "%.0f / %.0f / %.0f us"
          (p.Pil_cosim.response_latency.Stats.p50 *. 1e6)
          (p.Pil_cosim.response_latency.Stats.p95 *. 1e6)
          (p.Pil_cosim.response_latency.Stats.max *. 1e6) ];
      [ "sampling jitter (peak-to-peak)";
        Printf.sprintf "%.1f us" (p.Pil_cosim.target.Machine.start_jitter *. 1e6) ];
      [ "communication";
        Printf.sprintf "%d B/period = %.2f ms on the wire"
          p.Pil_cosim.comm_bytes_per_period (p.Pil_cosim.comm_time_per_period *. 1e3) ];
      [ "CPU utilisation"; Table.cell_pct p.Pil_cosim.target.Machine.utilization ];
      [ "stack high-water"; Printf.sprintf "%d B" p.Pil_cosim.target.Machine.max_stack_bytes ];
      [ "deadline overruns"; string_of_int p.Pil_cosim.overruns ];
      [ "CRC errors"; string_of_int p.Pil_cosim.crc_errors ];
    ];
  Table.print t;

  (* fidelity: PIL vs MIL *)
  let mil_speed, _ = Servo_system.mil_run built ~t_end:1.6 in
  let pil_speed = Servo_system.pil_speed_trace r.Pil_cosim.trace in
  Ascii_plot.print ~title:"Fig 6.2 workload: MIL (*) vs PIL (+) speed" ~x_label:"time [s]"
    [
      { Ascii_plot.label = "MIL"; points = mil_speed };
      { Ascii_plot.label = "PIL"; points = pil_speed };
    ];
  let mil_at t =
    List.fold_left
      (fun best (ti, w) ->
        match best with
        | Some (tb, _) when Float.abs (ti -. t) >= Float.abs (tb -. t) -> best
        | _ -> Some (ti, w))
      None mil_speed
    |> Option.map snd
  in
  let dev =
    List.fold_left
      (fun acc (t, w) ->
        match mil_at t with Some wm -> Float.max acc (Float.abs (w -. wm)) | None -> acc)
      0.0
      (List.filter (fun (t, _) -> t > 0.05) pil_speed)
  in
  Printf.printf "max MIL-vs-PIL speed deviation after 50 ms: %.2f rad/s\n\n" dev;

  (* baud sweep: the RS-232 bottleneck *)
  let t =
    Table.create ~title:"baud-rate sweep at a 5 ms control period"
      [ "baud"; "wire time/period"; "feasible"; "latency p50"; "jitter p2p" ]
  in
  List.iter
    (fun baud ->
      match run_pil ~baud ~periods:120 () with
      | _, _, r ->
          let p = r.Pil_cosim.profile in
          Table.add_row t
            [
              string_of_int baud;
              Printf.sprintf "%.2f ms" (p.Pil_cosim.comm_time_per_period *. 1e3);
              "yes";
              Printf.sprintf "%.2f ms" (p.Pil_cosim.response_latency.Stats.p50 *. 1e3);
              Printf.sprintf "%.0f us" (p.Pil_cosim.target.Machine.start_jitter *. 1e6);
            ]
      | exception Invalid_argument _ ->
          Table.add_row t [ string_of_int baud; "> 4.75 ms"; "NO"; "-"; "-" ])
    [ 9600; 19200; 38400; 57600; 115200 ];
  Table.print t;

  (* minimum feasible control period per baud (the crossover curve) *)
  let t =
    Table.create ~title:"shortest feasible control period vs baud (wire-limited)"
      [ "baud"; "min period" ]
  in
  List.iter
    (fun baud ->
      let schedule =
        (let built = Servo_system.build ~config:cfg () in
         let comp = Compile.compile built.Servo_system.controller in
         (Pil_target.generate ~name:"servo" ~project:built.Servo_system.project comp)
           .Target.schedule)
      in
      let bytes = Pil_cosim.wire_bytes_per_period ~schedule in
      let min_period = float_of_int bytes *. 10.0 /. float_of_int baud /. 0.95 in
      Table.add_row t
        [ string_of_int baud; Printf.sprintf "%.2f ms" (min_period *. 1e3) ])
    [ 9600; 19200; 38400; 57600; 115200 ];
  Table.print t;

  (* line-noise robustness: CRC catches corruption, the loop survives *)
  let built2 = Servo_system.build ~config:cfg () in
  let comp2 = Compile.compile built2.Servo_system.controller in
  let arts2 = Pil_target.generate ~name:"servo" ~project:built2.Servo_system.project comp2 in
  let controller2 = Sim.create comp2 in
  let plant2 = Servo_system.pil_plant built2 in
  let driver2 = Servo_system.pil_driver built2 in
  let rn =
    Pil_cosim.run ~error_rate:0.005 ~mcu:cfg.Servo_system.mcu
      ~schedule:arts2.Target.schedule ~controller:controller2 ~plant:plant2
      ~driver:driver2 ~periods:320 ()
  in
  let pn = rn.Pil_cosim.profile in
  Printf.printf
    "with 0.5 %% per-byte line corruption: %d CRC drops, %d overrun periods, final speed %.1f rad/s\n\n"
    pn.Pil_cosim.crc_errors pn.Pil_cosim.overruns
    (match List.rev (Servo_system.pil_speed_trace rn.Pil_cosim.trace) with
    | (_, w) :: _ -> w
    | [] -> nan);

  (* the next phase of the V cycle: HIL, no communication redirection *)
  print_endline "--- E5b: hardware-in-the-loop stage (the step after PIL, section 6) ---";
  let hb = Servo_system.build () in
  let hcomp = Compile.compile hb.Servo_system.controller in
  let harts = Target.generate ~name:"servo" ~project:hb.Servo_system.project hcomp in
  let hctl = Sim.create hcomp in
  let hr =
    Hil_cosim.servo_run ~built_mcu:Servo_system.default_config.Servo_system.mcu
      ~schedule:harts.Target.schedule ~controller:hctl
      ~motor:Servo_system.default_config.Servo_system.motor
      ~load:Servo_system.default_config.Servo_system.load
      ~encoder:(Encoder.create ())
      ~periods:1100 ()
  in
  let hp = hr.Hil_cosim.profile in
  let t = Table.create ~title:"HIL profile: deployment build, real peripherals, 1 kHz"
      [ "quantity"; "PIL (5 ms)"; "HIL (1 ms)" ] in
  Table.add_rows t
    [
      [ "controller execution";
        Printf.sprintf "%.1f us" (p.Pil_cosim.controller_exec *. 1e6);
        Printf.sprintf "%.1f us" (hp.Hil_cosim.controller_exec *. 1e6) ];
      [ "actuation latency p50";
        Printf.sprintf "%.0f us (comm-bound)"
          (p.Pil_cosim.response_latency.Stats.p50 *. 1e6);
        Printf.sprintf "%.1f us (exec only)"
          (hp.Hil_cosim.controller_exec *. 1e6) ];
      [ "release jitter p2p";
        Printf.sprintf "%.1f us" (p.Pil_cosim.target.Machine.start_jitter *. 1e6);
        Printf.sprintf "%.2f us" (hp.Hil_cosim.target.Machine.release_jitter *. 1e6) ];
      [ "CPU utilisation"; Table.cell_pct p.Pil_cosim.target.Machine.utilization;
        Table.cell_pct hp.Hil_cosim.target.Machine.utilization ];
      [ "overruns"; string_of_int p.Pil_cosim.overruns;
        string_of_int hp.Hil_cosim.target.Machine.overruns ];
    ];
  Table.print t;
  (match List.rev
           (List.filter_map
              (fun (t, obs) ->
                Option.map (fun w -> (t, w)) (List.assoc_opt "speed" obs))
              hr.Hil_cosim.trace)
   with
  | (_, w) :: _ ->
      Printf.printf
        "HIL runs the paper's full 1 kHz loop (no RS-232 in the path); final \
         speed %.1f rad/s\n\n" w
  | [] -> ())

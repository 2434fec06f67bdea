(* Processor-in-the-loop simulation (§6, Fig 6.2): the servo controller
   executes on the virtual MC56F8367 development board while the plant
   runs on the host, the two exchanging packets over the simulated RS-232
   line. The profile shows exactly what the paper says PIL reveals:
   execution times, response times, sampling jitter, stack and
   communication overheads.

   Run with:  dune exec examples/pil_profiling.exe
*)

let cfg = { Servo_system.default_config with Servo_system.control_period = 5e-3 }

let run_once baud =
  let built = Servo_system.build ~config:cfg () in
  let comp = Compile.compile built.Servo_system.controller in
  let arts =
    Pil_target.generate ~name:"servo" ~project:built.Servo_system.project comp
  in
  let controller = Sim.create comp in
  let plant = Servo_system.pil_plant built in
  let driver = Servo_system.pil_driver built in
  ( built,
    Pil_cosim.run ~baud ~mcu:cfg.Servo_system.mcu ~schedule:arts.Target.schedule
      ~controller ~plant ~driver ~periods:320 () )

let () =
  print_endline "=== PIL co-simulation at 115200 baud, 5 ms control period ===";
  let built, r = run_once 115200 in
  let p = r.Pil_cosim.profile in
  let t = Table.create ~title:"PIL profile (what the development board reveals)"
      [ "quantity"; "value" ] in
  Table.add_rows t
    [
      [ "controller execution (mean)";
        Printf.sprintf "%.1f us" (p.Pil_cosim.controller_exec *. 1e6) ];
      [ "response latency p50 / p95";
        Printf.sprintf "%.0f / %.0f us"
          (p.Pil_cosim.response_latency.Stats.p50 *. 1e6)
          (p.Pil_cosim.response_latency.Stats.p95 *. 1e6) ];
      [ "sampling jitter (p2p)";
        Printf.sprintf "%.1f us" (p.Pil_cosim.target.Machine.start_jitter *. 1e6) ];
      [ "comm per period";
        Printf.sprintf "%d bytes = %.2f ms" p.Pil_cosim.comm_bytes_per_period
          (p.Pil_cosim.comm_time_per_period *. 1e3) ];
      [ "CPU utilisation"; Table.cell_pct p.Pil_cosim.target.Machine.utilization ];
      [ "stack high-water"; Printf.sprintf "%d B" p.Pil_cosim.target.Machine.max_stack_bytes ];
      [ "deadline overruns"; string_of_int p.Pil_cosim.overruns ];
    ];
  Table.print t;

  print_endline "\n=== PIL vs MIL trajectory ===";
  let mil_speed, _ = Servo_system.mil_run built ~t_end:1.6 in
  let pil_speed = Servo_system.pil_speed_trace r.Pil_cosim.trace in
  Ascii_plot.print ~title:"MIL (*) vs PIL (+)" ~x_label:"time [s]"
    [
      { Ascii_plot.label = "MIL"; points = mil_speed };
      { Ascii_plot.label = "PIL"; points = pil_speed };
    ];

  print_endline "\n=== RS-232 baud-rate sweep: where does PIL become feasible? ===";
  let t = Table.create [ "baud"; "comm time/period"; "feasible"; "latency p50" ] in
  List.iter
    (fun baud ->
      match run_once baud with
      | _, r ->
          let p = r.Pil_cosim.profile in
          Table.add_row t
            [
              string_of_int baud;
              Printf.sprintf "%.2f ms" (p.Pil_cosim.comm_time_per_period *. 1e3);
              "yes";
              Printf.sprintf "%.2f ms" (p.Pil_cosim.response_latency.Stats.p50 *. 1e3);
            ]
      | exception Invalid_argument _ ->
          Table.add_row t
            [ string_of_int baud; "> period"; "no (line saturated)"; "-" ])
    [ 9600; 19200; 38400; 57600; 115200 ];
  Table.print t;
  print_endline
    "\nThe RS-232 bottleneck the paper concedes (\"communication over RS232 is\n\
     very slow\") is visible directly: below ~38400 baud the two packets no\n\
     longer fit into the 5 ms control period."

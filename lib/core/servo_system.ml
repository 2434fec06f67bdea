type variant = Float_pid | Fixed_pid
type block_set = Pe_blocks | Autosar_blocks

type config = {
  mcu : Mcu_db.t;
  control_period : float;
  pwm_freq : float;
  encoder_lines : int;
  variant : variant;
  setpoints : (float * float) list;
  load : Load_profile.t;
  motor : Dc_motor.params;
  baud : int;
  with_mode_logic : bool;
  block_set : block_set;
  with_supervisor : bool;
}

let default_config =
  {
    mcu = Mcu_db.mc56f8367;
    control_period = 1e-3;
    pwm_freq = 20e3;
    encoder_lines = 100;
    variant = Float_pid;
    setpoints = [ (0.0, 50.0); (0.4, 100.0); (0.8, 150.0) ];
    load = Load_profile.Step { at = 1.2; torque = 4.0e-3 };
    motor = Dc_motor.default;
    baud = 115200;
    with_mode_logic = true;
    block_set = Pe_blocks;
    with_supervisor = false;
  }

type built = {
  config : config;
  project : Bean_project.t;
  controller : Model.t;
  closed_loop : Model.t;
  gains : Pid.gains;
  speed_block : string;
  duty_block : string;
  setpoint_block : string;
  supervisor_block : string option;
}

(* The speed normalisation of the Q15 controller: set-points stay well
   below the no-load speed of the 24 V motor (~480 rad/s). *)
let fixed_in_scale = 512.0

let tuned_gains cfg =
  let kp, ki = Tuning.pi_for_dc_motor_speed cfg.motor ~closed_loop_tau:0.02 () in
  Pid.gains ~kp ~ki ~u_min:0.0 ~u_max:cfg.motor.Dc_motor.u_max ()

let make_project cfg =
  let p = Bean_project.create cfg.mcu in
  let add name config = ignore (Bean_project.add p (Bean.make ~name config)) in
  add "TI1" (Bean.Timer_int { period = cfg.control_period; tolerance_frac = 0.001 });
  add "PWM1" (Bean.Pwm { channel = None; freq_hz = cfg.pwm_freq; initial_ratio = 0.0 });
  add "QD1" (Bean.Quad_dec { lines_per_rev = cfg.encoder_lines });
  if cfg.with_mode_logic then
    add "SW1"
      (Bean.Bit_io { pin = List.hd cfg.mcu.Mcu_db.pins; direction = Bean.In_pin;
                     init = false });
  add "AS1" (Bean.Serial { port = None; baud = cfg.baud });
  if cfg.with_supervisor then
    (* serviced by the supervisor block's generated step; timeout covers
       several missed periods so PIL jitter alone never bites *)
    add "WD1" (Bean.Watch_dog { timeout = 8.0 *. cfg.control_period });
  (match Bean_project.verify p with
  | Ok () -> ()
  | Error msgs ->
      invalid_arg
        ("Servo_system: bean project does not verify: " ^ String.concat "; " msgs));
  p

(* Manual/Auto mode chart: starts in Auto, each button press toggles. *)
let mode_chart_factory () =
  let ctx = ref (true, false) in
  (* (auto, prev_button) -- kept outside the chart for reset simplicity *)
  let chart =
    Chart.create
      [
        Chart.state ~initial:true "Operate";
        Chart.state ~parent:"Operate" ~initial:true "Auto";
        Chart.state ~parent:"Operate" "Manual";
      ]
      [
        Chart.transition ~trigger:"button" ~src:"Auto" ~dst:"Manual" ();
        Chart.transition ~trigger:"button" ~src:"Manual" ~dst:"Auto" ();
      ]
  in
  Chart.start chart ();
  let step ~time:_ ins =
    let btn = ins.(0) > 0.5 in
    let _, prev = !ctx in
    if btn && not prev then ignore (Chart.dispatch chart () "button");
    ctx := (Chart.is_in chart "Auto", btn);
    [| (if Chart.is_in chart "Auto" then 1.0 else 0.0) |]
  in
  let reset () =
    Chart.reset chart;
    Chart.start chart ();
    ctx := (true, false)
  in
  let save () =
    let restore = Chart.save chart and c = !ctx in
    fun () ->
      restore ();
      ctx := c
  in
  (step, reset, save)

(* Embedded realisation of the mode chart: the TLC script of the
   user-written s-function block (Blockgen's custom-emitter hook). *)
let () =
  Blockgen.register "ModeChart" (fun g _spec ->
      let open C_ast in
      let btn = Var (g.Blockgen.name ^ "_btn") in
      {
        Blockgen.state_fields = [ (U8, "auto"); (U8, "prev") ];
        init =
          [
            Assign (g.Blockgen.state "auto", Int_lit 1);
            Assign (g.Blockgen.state "prev", Int_lit 0);
          ];
        step =
          [
            Decl
              ( U8, g.Blockgen.name ^ "_btn",
                Some
                  (Ternary
                     ( Bin (">", List.nth g.Blockgen.ins 0, flt 0.5),
                       Int_lit 1, Int_lit 0 )) );
            If
              ( Bin ("&&", btn, Un ("!", g.Blockgen.state "prev")),
                [
                  Assign
                    ( g.Blockgen.state "auto",
                      Cast_to (U8, Un ("!", g.Blockgen.state "auto")) );
                ],
                [] );
            Assign (g.Blockgen.state "prev", btn);
            Assign
              ( List.nth g.Blockgen.outs 0,
                Ternary (g.Blockgen.state "auto", flt 1.0, flt 0.0) );
          ];
        update = [];
        needs_time = false;
      })

let build_controller cfg project gains =
  let ts = cfg.control_period in
  (* the two block-set variants are behaviourally identical; only the
     generated-code API differs (section 8) *)
  let mk_timer, mk_qdec, mk_bitio_in, mk_pwm =
    match cfg.block_set with
    | Pe_blocks ->
        ( Periph_blocks.timer_int, Periph_blocks.quad_decoder,
          Periph_blocks.bit_io_in, Periph_blocks.pwm )
    | Autosar_blocks ->
        ( Autosar_blocks.timer_int, Autosar_blocks.icu_position,
          Autosar_blocks.dio_in, Autosar_blocks.pwm )
  in
  let m = Model.create "servo_ctl" in
  let add = Model.add m in
  let connect = Model.connect m in
  let in_theta = add ~name:"theta_in" (Routing_blocks.inport 0) in
  (* the TimerInt bean block defines the periodic execution (§5) *)
  let _ti = add ~name:"ti" (mk_timer (Bean_project.find project "TI1")) in
  let zoh = add ~name:"theta_smp" (Discrete_blocks.zoh ~period:ts ()) in
  let qd = add ~name:"qd" (mk_qdec (Bean_project.find project "QD1")) in
  let spd =
    add ~name:"speed"
      (Discrete_blocks.encoder_speed ~counts_per_rev:(4 * cfg.encoder_lines))
  in
  let sp = add ~name:"sp" (Sources.setpoint_schedule cfg.setpoints) in
  let pid =
    match cfg.variant with
    | Float_pid -> add ~name:"pid" (Discrete_blocks.pid ~ts gains)
    | Fixed_pid ->
        add ~name:"pid"
          (Discrete_blocks.fix_pid ~ts ~in_scale:fixed_in_scale
             ~out_scale:cfg.motor.Dc_motor.u_max gains)
  in
  let duty =
    add ~name:"volt2duty" (Math_blocks.gain (1.0 /. cfg.motor.Dc_motor.u_max))
  in
  let sat = add ~name:"duty_sat" (Nonlinear_blocks.saturation ~lo:0.0 ~hi:1.0) in
  connect ~src:(in_theta, 0) ~dst:(zoh, 0);
  connect ~src:(zoh, 0) ~dst:(qd, 0);
  connect ~src:(qd, 0) ~dst:(spd, 0);
  connect ~src:(sp, 0) ~dst:(pid, 0);
  connect ~src:(spd, 0) ~dst:(pid, 1);
  connect ~src:(pid, 0) ~dst:(duty, 0);
  connect ~src:(duty, 0) ~dst:(sat, 0);
  let duty_src =
    if cfg.with_mode_logic then begin
      let in_btn = add ~name:"btn_in" (Routing_blocks.inport 1) in
      let sw1 = add ~name:"sw1" (mk_bitio_in (Bean_project.find project "SW1")) in
      let mode =
        add ~name:"mode_chart"
          (Chart_block.block ~kind:"ModeChart" ~n_in:1 ~n_out:1 ~period:ts
             mode_chart_factory)
      in
      let manual = add ~name:"manual_duty" (Sources.constant 0.3) in
      let select = add ~name:"mode_switch" (Nonlinear_blocks.switch ~threshold:0.5) in
      connect ~src:(in_btn, 0) ~dst:(sw1, 0);
      connect ~src:(sw1, 0) ~dst:(mode, 0);
      connect ~src:(sat, 0) ~dst:(select, 0);
      connect ~src:(mode, 0) ~dst:(select, 1);
      connect ~src:(manual, 0) ~dst:(select, 2);
      (select, 0)
    end
    else (sat, 0)
  in
  let duty_src =
    if cfg.with_supervisor then begin
      (* the safe-state supervisor rides between the controller and the
         PWM: raw count + measured speed in, supervised duty out *)
      let sup =
        add ~name:"supervisor"
          (Supervisor.block ~period:ts
             { Supervisor.default with Supervisor.wdog_bean = Some "WD1" })
      in
      connect ~src:(qd, 0) ~dst:(sup, 0);
      connect ~src:(spd, 0) ~dst:(sup, 1);
      connect ~src:duty_src ~dst:(sup, 2);
      (sup, 0)
    end
    else duty_src
  in
  let ratio = add ~name:"duty2ratio" (Math_blocks.gain 65535.0) in
  let cast = add ~name:"ratio_u16" (Math_blocks.cast Dtype.Uint16) in
  let pwm = add ~name:"pwm" (mk_pwm (Bean_project.find project "PWM1")) in
  let out = add ~name:"duty_out" (Routing_blocks.outport 0) in
  connect ~src:duty_src ~dst:(ratio, 0);
  connect ~src:(ratio, 0) ~dst:(cast, 0);
  connect ~src:(cast, 0) ~dst:(pwm, 0);
  connect ~src:(pwm, 0) ~dst:(out, 0);
  m

let build_plant cfg =
  let m = Model.create "servo_plant" in
  let add = Model.add m in
  let connect = Model.connect m in
  let in_duty = add ~name:"duty_in" (Routing_blocks.inport 0) in
  let stage =
    add ~name:"stage"
      (Plant_blocks.power_stage (Power_stage.ideal ~u_supply:cfg.motor.Dc_motor.u_max))
  in
  let motor = add ~name:"motor" (Plant_blocks.dc_motor ~params:cfg.motor ~load:cfg.load ()) in
  let out_theta = add ~name:"theta_out" (Routing_blocks.outport 0) in
  let out_w = add ~name:"w_out" (Routing_blocks.outport 1) in
  connect ~src:(in_duty, 0) ~dst:(stage, 0);
  connect ~src:(motor, 2) ~dst:(stage, 1);
  connect ~src:(stage, 0) ~dst:(motor, 0);
  connect ~src:(motor, 1) ~dst:(out_theta, 0);
  connect ~src:(motor, 0) ~dst:(out_w, 0);
  m

let plant_model cfg = build_plant cfg

let build ?(config = default_config) () =
  let cfg = config in
  let project = make_project cfg in
  let gains = tuned_gains cfg in
  let controller = build_controller cfg project gains in
  let plant = build_plant cfg in
  (* single-model closed loop (Fig 7.1): a unit junction carries the duty
     signal into the plant; the loop is broken inside the motor states *)
  let closed = Model.create "servo" in
  let junction = Model.add closed ~name:"duty_junction" (Math_blocks.gain 1.0) in
  let plant_outs =
    Model.inline closed ~prefix:"plant" ~sub:plant ~inputs:[| (junction, 0) |]
  in
  let button =
    Model.add closed ~name:"button"
      (Sources.step ~t_step:1e9 ~before:0.0 ~after:1.0 ())
  in
  let ctl_inputs =
    if cfg.with_mode_logic then [| plant_outs.(0); (button, 0) |]
    else [| plant_outs.(0) |]
  in
  if not cfg.with_mode_logic then
    ignore (Model.add closed ~name:"button_sink" Routing_blocks.terminator |> fun b ->
            Model.connect closed ~src:(button, 0) ~dst:(b, 0));
  let ctl_outs =
    Model.inline closed ~prefix:"ctl" ~sub:controller ~inputs:ctl_inputs
  in
  Model.connect closed ~src:ctl_outs.(0) ~dst:(junction, 0);
  {
    config = cfg;
    project;
    controller;
    closed_loop = closed;
    gains;
    speed_block = "plant/motor";
    duty_block = "duty_junction";
    setpoint_block = "ctl/sp";
    supervisor_block =
      (if cfg.with_supervisor then Some "ctl/supervisor" else None);
  }

let solver_substeps_for built comp =
  (* keep the RK4 sub-step below ~40 % of the electrical time constant *)
  let tau_e = Dc_motor.electrical_time_constant built.config.motor in
  Stdlib.max 1
    (int_of_float (Float.ceil (comp.Compile.base_dt /. (0.4 *. tau_e))))

(* ---------- fault-campaign subject ---------- *)

let faultsim_subject ?(config = default_config) ~scenario () =
  (* plant-side load faults fold into the load profile — the MIL plant
     computes its shaft torque internally, not through a signal port *)
  let loads =
    List.filter
      (fun f -> match f.Fault.kind with Fault.Load_torque _ -> true | _ -> false)
      scenario.Fault_scenario.faults
  in
  let load =
    List.fold_left
      (fun acc f ->
        match f.Fault.kind with
        | Fault.Load_torque torque ->
            let at = f.Fault.at and duration = f.Fault.duration in
            let window =
              match f.Fault.every with
              | None -> Load_profile.Pulse { start = at; stop = at +. duration; torque }
              | Some every -> Load_profile.Periodic { at; every; duration; torque }
            in
            Load_profile.Sum [ acc; window ]
        | _ -> acc)
      config.load scenario.Fault_scenario.faults
  in
  let cfg = { config with with_supervisor = true; load } in
  let built = build ~config:cfg () in
  (* compiled directly: a Compile_cache digest of the closed loop costs
     more than the compile it would save *)
  let comp = Compile.compile built.closed_loop in
  let sim = Sim.create ~solver_substeps:(solver_substeps_for built comp) comp in
  let find n = Model.find built.closed_loop n in
  let subject =
    {
      Fault_campaign.sim;
      ports =
        {
          Fault_campaign.sensor_ports = [| (find "ctl/qd", 0) |];
          duty_port = Some (find built.duty_block, 0);
          mode_port = (find "ctl/supervisor", 1);
          speed_port = (find built.speed_block, 0);
          setpoint_port = Some (find built.setpoint_block, 0);
        };
      mcu = cfg.mcu;
      loads;
    }
  in
  (subject, built)

let mil_run built ~t_end =
  let comp = Compile.compile built.closed_loop in
  let sim = Sim.create ~solver_substeps:(solver_substeps_for built comp) comp in
  ignore (Seed_sweep.horizon_steps ~period:(Sim.base_dt sim) t_end);
  Sim.probe_named sim built.speed_block 0;
  Sim.probe_named sim built.duty_block 0;
  Sim.run sim ~until:t_end ();
  (Sim.trace_named sim built.speed_block 0, Sim.trace_named sim built.duty_block 0)

let mil_speed_at built ~t_end =
  let speed, _ = mil_run built ~t_end in
  match List.rev speed with (_, w) :: _ -> w | [] -> 0.0

(* ---------- PIL side ---------- *)

(* The floats the plant writes every sub-step, in an all-float record:
   its fields are stored unboxed, so a write allocates nothing. *)
type pil_io = { mutable duty : float; mutable time : float }

type pil_plant = {
  cfg : config;
  stage : Power_stage.t;
  enc : Encoder.t;
  motor : Dc_motor.stepper;
  x : float array;  (* the motor state, in [Dc_motor]'s layout *)
  io : pil_io;
  sensors : int array;
      (* what [read_sensors] returns: the quadrature count, then the
         mode button when the controller has one; a PIL run never
         presses it *)
}

let pil_plant built =
  {
    cfg = built.config;
    stage = Power_stage.ideal ~u_supply:built.config.motor.Dc_motor.u_max;
    enc = Encoder.create ~lines_per_rev:built.config.encoder_lines ();
    motor = Dc_motor.stepper built.config.motor;
    x = Array.make 3 0.0;
    io = { duty = 0.0; time = 0.0 };
    sensors = Array.make (if built.config.with_mode_logic then 2 else 1) 0;
  }

(* sub-step the electrical dynamics inside one control period; the
   power stage, load and motor step inline, so a period allocates
   nothing *)
let pil_substeps = 8

let pil_advance p ~dt =
  let h = dt /. float_of_int pil_substeps in
  let x = p.x and io = p.io in
  for _ = 1 to pil_substeps do
    let u =
      Power_stage.output_voltage p.stage ~duty:io.duty ~i:x.(Dc_motor.x_i)
    in
    let tau = Load_profile.torque p.cfg.load ~time:io.time ~w:x.(Dc_motor.x_w) in
    Dc_motor.advance p.motor ~u ~tau_load:tau ~h x;
    io.time <- io.time +. h
  done

let pil_driver _built =
  {
    Pil_cosim.read_sensors =
      (fun p ~time:_ ->
        p.sensors.(0) <-
          Encoder.count_of_angle p.enc ~theta:p.x.(Dc_motor.x_theta) land 0xFFFF;
        p.sensors);
    apply_actuators =
      (fun p acts ->
        if Array.length acts > 0 then
          p.io.duty <- float_of_int acts.(0) /. 65535.0);
    advance = pil_advance;
    observe =
      (fun p ->
        [
          ("speed", p.x.(Dc_motor.x_w));
          ("theta", p.x.(Dc_motor.x_theta));
          ("duty", p.io.duty);
          ("current", p.x.(Dc_motor.x_i));
        ]);
  }

let pil_speed_trace trace =
  List.filter_map
    (fun (t, obs) ->
      match List.assoc_opt "speed" obs with Some w -> Some (t, w) | None -> None)
    trace

type profile = {
  target : Machine.profile;
  controller_exec : float;
  watchdog_bites : int;
}

type 'p result = {
  profile : profile;
  trace : (float * (string * float) list) list;
}

(* plant/peripheral coupling steps per control period *)
let substeps = 16

let run ?(preemptive = false) ?(button = fun _ -> false)
    ?(background_load = 0.0) ?watchdog ~mcu ~schedule ~controller ~plant
    ~advance ~angle_of ~observe ~encoder ~periods () =
  Flight.span "hil.run" @@ fun () ->
  let comp = Sim.compiled controller in
  let m = comp.Compile.model in
  let machine = Machine.create ~preemptive ~base_stack:96 mcu in
  let period = schedule.Target.base_period in
  (* the deployment timer settings come from the same expert system the
     generated HAL baked into Gpt_Init/TI1_Enable *)
  let timer = Timer_periph.create machine ~channel:0 in
  (match Expert.solve_timer_period mcu ~period with
  | Ok sol ->
      Timer_periph.configure timer ~prescaler:sol.Expert.prescaler
        ~modulo:sol.Expert.modulo
  | Error e -> invalid_arg ("Hil_cosim.run: " ^ e));
  let pwm = Pwm_periph.create machine ~channel:0 () in
  (try Pwm_periph.set_frequency pwm ~hz:20e3
   with Invalid_argument _ -> Pwm_periph.set_period_counts pwm 200);
  let qdec = if mcu.Mcu_db.has_qdec then Some (Qdec_periph.create machine ()) else None in
  (* locate the peripheral blocks of the controller model *)
  let find periph coding =
    List.filter_map
      (fun b ->
        let kind = (Model.spec_of m b).Block.kind in
        match Periph_blocks.classify kind with
        | Some (p, _) when p = periph -> Some (b, coding kind)
        | _ -> None)
      (Model.blocks m)
  in
  let sensor = Periph_blocks.sensor_coding in
  let qdec_blocks = find Quad_dec sensor in
  let btn_blocks = find Bit_io_in sensor in
  let pwm_blocks = find Pwm Periph_blocks.actuator_coding in
  let group_cost =
    List.fold_left (fun acc (_, c) -> acc + c) 0 schedule.Target.group_cycle_map
  in
  let step_cost = schedule.Target.total_step_cycles + group_cost in
  let wdog =
    Option.map (fun timeout -> Wdog_periph.create machine ~timeout ()) watchdog
  in
  let run_step () =
    (* service the watchdog first, as the generated step's prologue does *)
    Option.iter Wdog_periph.refresh wdog;
    (* read the position register exactly as the generated code does *)
    List.iter
      (fun (b, decode) ->
        let count =
          match qdec with
          | Some q -> Qdec_periph.read_position q
          | None ->
              Encoder.count_of_angle encoder ~theta:(angle_of plant) land 0xFFFF
        in
        Sim.override_output controller (b, 0) (Some (decode count)))
      qdec_blocks;
    List.iter
      (fun (b, decode) ->
        Sim.override_output controller (b, 0)
          (Some (decode (Bool.to_int (button (Machine.now machine))))))
      btn_blocks;
    Sim.step controller;
    (* program the PWM duty register from the block's realised ratio *)
    List.iter
      (fun (b, encode) ->
        Pwm_periph.set_ratio16 pwm (encode (Sim.value controller (b, 0))))
      pwm_blocks
  in
  let step_job =
    {
      Machine.jname = "model_step";
      cycles = step_cost;
      action = run_step;
      stack_bytes = schedule.Target.isr_stack_bytes;
    }
  in
  let ctrl_irq =
    Machine.register_irq machine ~name:"TI1" ~prio:2 ~handler:(fun () -> step_job)
  in
  Timer_periph.on_overflow timer (fun () -> Machine.raise_irq machine ctrl_irq);
  Timer_periph.start timer;
  Option.iter Wdog_periph.enable wdog;
  (* optional competing load *)
  if background_load > 0.0 then begin
    let bg_period = Machine.cycles_of_time machine (period *. 0.73) in
    let bg_cost = int_of_float (background_load *. float_of_int bg_period) in
    let bg_job =
      { Machine.jname = "bg"; cycles = bg_cost; action = ignore; stack_bytes = 48 }
    in
    let bg_irq =
      Machine.register_irq machine ~name:"bg" ~prio:5 ~handler:(fun () -> bg_job)
    in
    let bg_timer = Timer_periph.create machine ~channel:1 in
    let prescaler = List.hd mcu.Mcu_db.timer.Mcu_db.prescalers in
    let max_modulo = 1 lsl mcu.Mcu_db.timer.Mcu_db.counter_bits in
    let rec fit p =
      if bg_period / p <= max_modulo then (p, bg_period / p)
      else
        match List.find_opt (fun q -> q > p) mcu.Mcu_db.timer.Mcu_db.prescalers with
        | Some q -> fit q
        | None -> (p, max_modulo)
    in
    let p, modulo = fit prescaler in
    Timer_periph.configure bg_timer ~prescaler:p ~modulo;
    Timer_periph.on_overflow bg_timer (fun () -> Machine.raise_irq machine bg_irq);
    Timer_periph.start bg_timer
  end;
  (* plant/peripheral coupling on a fine sub-grid *)
  let slice = period /. float_of_int substeps in
  let trace = ref [] in
  for k = 0 to periods - 1 do
    for i = 0 to substeps - 1 do
      let t = (float_of_int k *. period) +. (float_of_int i *. slice) in
      Machine.run_until_time machine t;
      advance plant ~dt:slice ~duty:(Pwm_periph.duty_ratio pwm);
      (match qdec with
      | Some q ->
          Qdec_periph.set_true_count q
            (Encoder.count_of_angle encoder ~theta:(angle_of plant))
      | None -> ())
    done;
    Machine.run_until_time machine (float_of_int (k + 1) *. period);
    trace := (float_of_int (k + 1) *. period, observe plant) :: !trace
  done;
  {
    profile =
      {
        target =
          Machine.profile machine ctrl_irq
            ~period:(Machine.cycles_of_time machine period);
        controller_exec = float_of_int step_cost /. mcu.Mcu_db.f_cpu_hz;
        watchdog_bites =
          (match wdog with Some w -> Wdog_periph.bites w | None -> 0);
      };
    trace = List.rev !trace;
  }

let servo_run ?preemptive ?button ?background_load ?watchdog ~built_mcu
    ~schedule ~controller ~motor ~load ~encoder ~periods () =
  let stage = Power_stage.ideal ~u_supply:motor.Dc_motor.u_max in
  let st = Dc_motor.stepper motor in
  let time = ref 0.0 in
  let advance x ~dt ~duty =
    let u = Power_stage.output_voltage stage ~duty ~i:x.(Dc_motor.x_i) in
    let tau = Load_profile.torque load ~time:!time ~w:x.(Dc_motor.x_w) in
    Dc_motor.advance st ~u ~tau_load:tau ~h:dt x;
    time := !time +. dt
  in
  let r =
    run ?preemptive ?button ?background_load ?watchdog ~mcu:built_mcu
      ~schedule ~controller
      ~plant:(Array.make 3 0.0) ~advance
      ~angle_of:(fun x -> x.(Dc_motor.x_theta))
      ~observe:(fun x ->
        [
          ("speed", x.(Dc_motor.x_w));
          ("theta", x.(Dc_motor.x_theta));
          ("current", x.(Dc_motor.x_i));
        ])
      ~encoder ~periods ()
  in
  { profile = r.profile; trace = r.trace }

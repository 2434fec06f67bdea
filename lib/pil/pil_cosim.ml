type 'p plant_driver = {
  read_sensors : 'p -> time:float -> int array;
  apply_actuators : 'p -> int array -> unit;
  advance : 'p -> dt:float -> unit;
  observe : 'p -> (string * float) list;
}

type profile = {
  target : Machine.profile;
  controller_exec : float;
  response_latency : Stats.summary;
  comm_bytes_per_period : int;
  comm_time_per_period : float;
  overruns : int;
  crc_errors : int;
  sci_rx_overruns : int;
}

type result = {
  profile : profile;
  trace : (float * (string * float) list) list;
}

let wire_bytes_per_period ~schedule =
  let ns = List.length schedule.Target.sensor_slots in
  let na = List.length schedule.Target.actuator_slots in
  let pkt n =
    Packet.wire_length
      { Packet.ptype = 1; seq = 0; payload = List.init (2 * n) (fun _ -> 0) }
  in
  pkt ns + pkt na

(* the target's SCI ISR costs in CPU cycles: taking one received byte,
   and starting the reply once a frame is complete *)
let rx_isr_cycles = 80
let tx_isr_cycles = 40

let run ?(baud = 115200) ?(preemptive = false) ?(error_rate = 0.0)
    ?(dup_frames = false) ~mcu ~schedule ~controller ~plant ~driver ~periods
    () =
  Flight.span "pil.run" @@ fun () ->
  let comp = Sim.compiled controller in
  let m = comp.Compile.model in
  let machine = Machine.create ~preemptive ~base_stack:96 mcu in
  let sci = Sci_periph.create machine ~baud () in
  let period = schedule.Target.base_period in
  let period_cycles = Machine.cycles_of_time machine period in
  let byte_time = Sci_periph.byte_seconds sci in
  let wire_bytes = wire_bytes_per_period ~schedule in
  let comm_time = float_of_int wire_bytes *. byte_time in
  if comm_time > 0.95 *. period then
    invalid_arg
      (Printf.sprintf
         "Pil_cosim.run: %d wire bytes take %.3g ms but the control period is \
          %.3g ms; minimum feasible period at %d baud is %.3g ms"
         wire_bytes (comm_time *. 1e3) (period *. 1e3) baud
         (comm_time /. 0.95 *. 1e3));
  let group_cost =
    List.fold_left (fun acc (_, c) -> acc + c) 0 schedule.Target.group_cycle_map
  in
  let step_cost = schedule.Target.total_step_cycles + group_cost in
  (* --- target side --- *)
  let sensor_kind b = (Model.spec_of m b).Block.kind in
  let apply_sensors payload =
    let values = ref payload in
    List.iter
      (fun (b, _slot) ->
        let v, rest = Packet.take_u16 !values in
        values := rest;
        let value =
          match sensor_kind b with
          | "PE_Adc" | "AR_Adc" -> Value.of_int Dtype.Uint16 v
          | "PE_QuadDec" | "AR_Icu" -> Value.of_int Dtype.Int32 v
          | "PE_BitIO_In" | "AR_Dio_In" -> Value.of_bool (v <> 0)
          | k -> failwith ("unexpected sensor block kind " ^ k)
        in
        Sim.override_output controller (b, 0) (Some value))
      schedule.Target.sensor_slots
  in
  let read_actuators () =
    List.map
      (fun (b, _slot) ->
        match sensor_kind b with
        | "PE_Pwm" | "AR_Pwm" ->
            let ratio = Value.to_float (Sim.value controller (b, 0)) in
            int_of_float (Float.round (ratio *. 65535.0)) land 0xFFFF
        | "PE_Dac" ->
            (* the DAC block outputs volts; ship the raw code instead *)
            (match Model.driver m (b, 0) with
            | Some src -> Value.to_int (Sim.value controller src) land 0xFFFF
            | None -> 0)
        | k -> failwith ("unexpected actuator block kind " ^ k))
      schedule.Target.actuator_slots
  in
  (* host-side state *)
  let pending_actuators = ref None in
  let reply_complete_cycle = ref None in
  let host_framer =
    Framer.create ~on_packet:(fun pkt ->
        if pkt.Packet.ptype = Packet.ptype_actuator then begin
          let rec take acc rest n =
            if n = 0 then List.rev acc
            else
              let v, rest = Packet.take_u16 rest in
              take (v :: acc) rest (n - 1)
          in
          let n = List.length schedule.Target.actuator_slots in
          pending_actuators := Some (Array.of_list (take [] pkt.Packet.payload n));
          reply_complete_cycle := Some (Machine.now_cycles machine)
        end)
  in
  Sci_periph.on_tx_byte sci (fun b -> Framer.feed host_framer b);
  (* target framer and step execution *)
  let latencies = ref [] in
  let target_pending = ref None in
  (* the target accepts one step per sequence number: a frame the line
     duplicated (or the host retransmitted) must not step the
     controller twice *)
  let last_rx_seq = ref (-1) in
  let target_framer =
    Framer.create ~on_packet:(fun pkt ->
        if
          pkt.Packet.ptype = Packet.ptype_sensor
          && pkt.Packet.seq <> !last_rx_seq
        then begin
          last_rx_seq := pkt.Packet.seq;
          target_pending := Some pkt
        end)
  in
  let do_step pkt =
    apply_sensors pkt.Packet.payload;
    Sim.step controller;
    let acts = read_actuators () in
    let payload =
      Packet.finish_payload
        (List.fold_left (fun acc v -> Packet.push_u16 v acc) [] acts)
    in
    let reply =
      { Packet.ptype = Packet.ptype_actuator; seq = pkt.Packet.seq; payload }
    in
    ignore (Sci_periph.send_bytes sci (Packet.encode reply))
  in
  (* the job that completes a frame also runs the step *)
  let step_job_cycles = rx_isr_cycles + step_cost + tx_isr_cycles in
  let handler () =
    let byte = Sci_periph.read_data sci in
    Framer.feed target_framer byte;
    match !target_pending with
    | Some pkt ->
        target_pending := None;
        {
          Machine.jname = "pil_step";
          cycles = step_job_cycles;
          action = (fun () -> do_step pkt);
          stack_bytes = schedule.Target.isr_stack_bytes;
        }
    | None ->
        {
          Machine.jname = "sci_rx";
          cycles = rx_isr_cycles;
          action = (fun () -> ());
          stack_bytes = 32;
        }
  in
  let rx_irq = Machine.register_irq machine ~name:"SCI_RX" ~prio:2 ~handler in
  Sci_periph.on_rx sci (fun _ -> Machine.raise_irq machine rx_irq);
  (* --- co-simulation loop --- *)
  (* the line: byte i of a period's sensor frame arrives one frame time
     after byte i - 1, through the serial-line noise model *)
  let byte_cycles = Sci_periph.byte_cycles sci in
  let wire_cycle = ref 0 in
  let line =
    Faulty.create { Faulty.clean with Faulty.corrupt_rate = error_rate }
      ~sink:(fun b ->
        let cycle = !wire_cycle in
        wire_cycle := cycle + byte_cycles;
        Machine.schedule_at machine ~cycle (fun () ->
            Sci_periph.deliver_byte sci b))
  in
  let overruns = ref 0 in
  let trace = ref [] in
  let last_actuators =
    ref (Array.make (List.length schedule.Target.actuator_slots) 0)
  in
  for k = 0 to periods - 1 do
    let t_k = k * period_cycles in
    Machine.advance_to machine ~cycle:t_k;
    reply_complete_cycle := None;
    (* compose and "transmit" the sensor packet: byte i arrives one frame
       time after it started on the wire *)
    let sensors = driver.read_sensors plant ~time:(Machine.now machine) in
    let payload =
      Packet.finish_payload
        (Array.fold_left (fun acc v -> Packet.push_u16 v acc) [] sensors)
    in
    let pkt = { Packet.ptype = Packet.ptype_sensor; seq = k land 0xFF; payload } in
    let wire = Packet.encode pkt in
    let wire = if dup_frames then wire @ wire else wire in
    wire_cycle := t_k;
    Faulty.send_all line wire;
    (* let the period elapse on the target *)
    Machine.advance_to machine ~cycle:(t_k + period_cycles);
    (match !pending_actuators with
    | Some acts ->
        last_actuators := acts;
        pending_actuators := None;
        (match !reply_complete_cycle with
        | Some c ->
            latencies :=
              (float_of_int (c - t_k) /. mcu.Mcu_db.f_cpu_hz) :: !latencies
        | None -> ())
    | None ->
        (* no reply this period: the host holds the last actuator frame *)
        incr overruns);
    driver.apply_actuators plant !last_actuators;
    driver.advance plant ~dt:period;
    trace := (float_of_int (k + 1) *. period, driver.observe plant) :: !trace
  done;
  {
    profile =
      {
        target =
          Machine.profile machine rx_irq ~budget:step_job_cycles
            ~period:period_cycles;
        controller_exec = float_of_int step_cost /. mcu.Mcu_db.f_cpu_hz;
        response_latency = Stats.summary_or_zero !latencies;
        comm_bytes_per_period = wire_bytes;
        comm_time_per_period = comm_time;
        overruns = !overruns;
        crc_errors = Framer.crc_errors target_framer;
        sci_rx_overruns = Sci_periph.rx_overruns sci;
      };
    trace = List.rev !trace;
  }

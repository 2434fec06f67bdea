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
  let pkt n =
    let p = Packet.create () in
    p.Packet.ptype <- 1;
    p.Packet.len <- 2 * n;
    Packet.wire_length p
  in
  pkt (List.length schedule.Target.sensor_slots)
  + pkt (List.length schedule.Target.actuator_slots)

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
  (* each slot's coding, resolved once: a sensor word's MIL value, and
     the word an actuator slot ships *)
  let kind b = (Model.spec_of m b).Block.kind in
  let sensors =
    Array.of_list
      (List.map
         (fun (b, _slot) ->
           let port = (b, 0) and decode = Periph_blocks.sensor_coding (kind b) in
           fun w -> Sim.override_output controller port (Some (decode w)))
         schedule.Target.sensor_slots)
  in
  let actuators =
    Array.of_list
      (List.map
         (fun (b, _slot) ->
           let port = (b, 0) and encode = Periph_blocks.actuator_coding (kind b) in
           fun () -> encode (Sim.value controller port))
         schedule.Target.actuator_slots)
  in
  let n_act = Array.length actuators in
  (* the frames and wire buffers of both directions, reused every period *)
  let sensor_pkt = Packet.create () and reply = Packet.create () in
  let sensor_wire = Bytes.create Packet.max_wire in
  let reply_wire = Bytes.create Packet.max_wire in
  (* host-side state: the newest actuator reply and its arrival cycle *)
  let replied = ref false in
  let reply_acts = Array.make n_act 0 in
  let reply_complete_cycle = ref (-1) in
  let host_framer =
    Framer.create ~on_packet:(fun pkt ->
        if pkt.Packet.ptype = Packet.ptype_actuator then begin
          for i = 0 to n_act - 1 do
            reply_acts.(i) <- Packet.get_u16 pkt (2 * i)
          done;
          replied := true;
          reply_complete_cycle := Machine.now_cycles machine
        end)
  in
  Sci_periph.on_tx_byte sci (fun b -> Framer.feed host_framer b);
  (* target framer and step execution *)
  let latencies = ref [] in
  (* the frame the next step job runs on: the SCI vector cannot preempt
     itself, so no later frame lands in it before that job completes *)
  let target_rx = Packet.create () in
  let target_pending = ref false in
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
          Packet.blit ~src:pkt ~dst:target_rx;
          target_pending := true
        end)
  in
  let do_step () =
    for i = 0 to Array.length sensors - 1 do
      sensors.(i) (Packet.get_u16 target_rx (2 * i))
    done;
    Sim.step controller;
    reply.Packet.ptype <- Packet.ptype_actuator;
    reply.Packet.seq <- target_rx.Packet.seq;
    reply.Packet.len <- 2 * n_act;
    for i = 0 to n_act - 1 do
      Packet.set_u16 reply (2 * i) (actuators.(i) ())
    done;
    let len = Packet.encode_into reply reply_wire in
    ignore (Sci_periph.send_sub sci reply_wire ~pos:0 ~len)
  in
  (* the job that completes a frame also runs the step; both jobs are
     built once *)
  let step_job_cycles = rx_isr_cycles + step_cost + tx_isr_cycles in
  let step_job =
    {
      Machine.jname = "pil_step";
      cycles = step_job_cycles;
      action = do_step;
      stack_bytes = schedule.Target.isr_stack_bytes;
    }
  in
  let rx_job =
    { Machine.jname = "sci_rx"; cycles = rx_isr_cycles; action = ignore;
      stack_bytes = 32 }
  in
  let handler () =
    Framer.feed target_framer (Sci_periph.read_data sci);
    if !target_pending then begin
      target_pending := false;
      step_job
    end
    else rx_job
  in
  let rx_irq = Machine.register_irq machine ~name:"SCI_RX" ~prio:2 ~handler in
  Sci_periph.on_rx sci (fun _ -> Machine.raise_irq machine rx_irq);
  (* --- co-simulation loop --- *)
  (* the line: byte i of a period's sensor frame arrives one frame time
     after byte i - 1, through the serial-line noise model *)
  let byte_cycles = Sci_periph.byte_cycles sci in
  let arrive = Machine.on_event machine (Sci_periph.deliver_byte sci) in
  let wire_cycle = ref 0 in
  let line =
    Faulty.create { Faulty.clean with Faulty.corrupt_rate = error_rate }
      ~sink:(fun b ->
        let cycle = !wire_cycle in
        wire_cycle := cycle + byte_cycles;
        Machine.schedule_at machine ~cycle arrive b)
  in
  let overruns = ref 0 in
  let trace = ref [] in
  let last_actuators = Array.make n_act 0 in
  for k = 0 to periods - 1 do
    let t_k = k * period_cycles in
    Machine.advance_to machine ~cycle:t_k;
    reply_complete_cycle := -1;
    (* compose and "transmit" the sensor packet: byte i arrives one frame
       time after it started on the wire *)
    let words = driver.read_sensors plant ~time:(Machine.now machine) in
    sensor_pkt.Packet.ptype <- Packet.ptype_sensor;
    sensor_pkt.Packet.seq <- k land 0xFF;
    for i = 0 to Array.length words - 1 do
      Packet.set_u16 sensor_pkt (2 * i) words.(i)
    done;
    sensor_pkt.Packet.len <- 2 * Array.length words;
    let len = Packet.encode_into sensor_pkt sensor_wire in
    wire_cycle := t_k;
    Faulty.send_sub line sensor_wire ~pos:0 ~len;
    if dup_frames then Faulty.send_sub line sensor_wire ~pos:0 ~len;
    (* let the period elapse on the target *)
    Machine.advance_to machine ~cycle:(t_k + period_cycles);
    if !replied then begin
      Array.blit reply_acts 0 last_actuators 0 n_act;
      replied := false;
      if !reply_complete_cycle >= 0 then
        latencies :=
          (float_of_int (!reply_complete_cycle - t_k) /. mcu.Mcu_db.f_cpu_hz)
          :: !latencies
    end
    else
      (* no reply this period: the host holds the last actuator frame *)
      incr overruns;
    driver.apply_actuators plant last_actuators;
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

type t = {
  machine : Machine.t;
  channel : int;
  mutable prescaler : int;
  mutable modulo : int;
  mutable callback : unit -> unit;
  mutable active : bool;
  mutable epoch : int;  (* invalidates in-flight scheduled ticks on stop *)
  tick : Machine.event;  (* its argument: the epoch it was armed in *)
}

let period_cycles t = t.prescaler * t.modulo

let schedule_tick t epoch =
  Machine.schedule t.machine ~after:(period_cycles t) t.tick epoch

let on_tick t epoch =
  if t.active && t.epoch = epoch then begin
    t.callback ();
    schedule_tick t epoch
  end

let create machine ~channel =
  let traits = Machine.traits machine in
  if channel < 0 || channel >= traits.Mcu_db.timer.Mcu_db.timer_channels then
    invalid_arg
      (Printf.sprintf "Timer_periph.create: %s has no timer channel %d"
         traits.Mcu_db.name channel);
  (* the handler needs the timer, the timer its event *)
  let fire = ref ignore in
  let t =
    {
      machine;
      channel;
      prescaler = 1;
      modulo = 1;
      callback = (fun () -> ());
      active = false;
      epoch = 0;
      tick = Machine.on_event machine (fun epoch -> !fire epoch);
    }
  in
  fire := on_tick t;
  t

let configure t ~prescaler ~modulo =
  let traits = Machine.traits t.machine in
  if not (List.mem prescaler traits.Mcu_db.timer.Mcu_db.prescalers) then
    invalid_arg
      (Printf.sprintf "Timer_periph.configure: prescaler %d unavailable on %s"
         prescaler traits.Mcu_db.name);
  let max_modulo = 1 lsl traits.Mcu_db.timer.Mcu_db.counter_bits in
  if modulo < 1 || modulo > max_modulo then
    invalid_arg
      (Printf.sprintf "Timer_periph.configure: modulo %d out of 1..%d" modulo
         max_modulo);
  t.prescaler <- prescaler;
  t.modulo <- modulo

let on_overflow t f = t.callback <- f

let period_seconds t =
  float_of_int (period_cycles t) /. (Machine.traits t.machine).Mcu_db.f_cpu_hz

let start t =
  if not t.active then begin
    t.active <- true;
    t.epoch <- t.epoch + 1;
    schedule_tick t t.epoch
  end

let stop t =
  t.active <- false;
  t.epoch <- t.epoch + 1

let running t = t.active
let channel t = t.channel

type t = {
  machine : Machine.t;
  channel : int;
  mutable period : int;
  mutable duty : int;
}

let create machine ~channel () =
  let traits = Machine.traits machine in
  if channel < 0 || channel >= traits.Mcu_db.pwm.Mcu_db.pwm_channels then
    invalid_arg
      (Printf.sprintf "Pwm_periph.create: %s has no PWM channel %d"
         traits.Mcu_db.name channel);
  { machine; channel; period = 1000; duty = 0 }

let max_counts t =
  (1 lsl (Machine.traits t.machine).Mcu_db.pwm.Mcu_db.pwm_counter_bits) - 1

let set_period_counts t n =
  if n < 2 || n > max_counts t then
    invalid_arg
      (Printf.sprintf "Pwm_periph.set_period_counts: %d out of 2..%d" n
         (max_counts t));
  t.period <- n;
  if t.duty > n then t.duty <- n

let set_ratio16 t r =
  let r = if r < 0 then 0 else if r > 65535 then 65535 else r in
  t.duty <- r * t.period / 65535

let set_frequency t ~hz =
  if hz <= 0.0 then invalid_arg "Pwm_periph.set_frequency: hz";
  let f_cpu = (Machine.traits t.machine).Mcu_db.f_cpu_hz in
  let counts = int_of_float (Float.round (f_cpu /. hz)) in
  if counts < 2 || counts > max_counts t then
    invalid_arg
      (Printf.sprintf
         "Pwm_periph.set_frequency: %g Hz needs %d counts (max %d)" hz counts
         (max_counts t));
  set_period_counts t counts

let duty_ratio t = float_of_int t.duty /. float_of_int t.period

let frequency t =
  (Machine.traits t.machine).Mcu_db.f_cpu_hz /. float_of_int t.period

let period_counts t = t.period
let duty_counts t = t.duty

let resolution_bits t =
  int_of_float (Float.floor (log (float_of_int t.period) /. log 2.0))

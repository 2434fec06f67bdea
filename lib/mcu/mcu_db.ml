type timer_traits = {
  timer_channels : int;
  prescalers : int list;
  counter_bits : int;
}

type adc_traits = {
  adc_channels : int;
  resolutions : int list;
  conv_cycles : int;
}

type pwm_traits = { pwm_channels : int; pwm_counter_bits : int }

type dac_traits = {
  dac_channels : int;
  dac_resolutions : int list;
}

type t = {
  name : string;
  family : string;
  core : string;
  f_cpu_hz : float;
  word_bits : int;
  has_fpu : bool;
  has_mac : bool;
  flash_bytes : int;
  ram_bytes : int;
  irq_latency_cycles : int;
  irq_exit_cycles : int;
  timer : timer_traits;
  adc : adc_traits;
  pwm : pwm_traits;
  dac : dac_traits;
  sci_count : int;
  has_qdec : bool;
  pins : string list;
}

(* The pin lists are written out in full: literal lists are static
   data, so no process builds them at start-up. *)

let mc56f8367 =
  {
    name = "MC56F8367";
    family = "56F83xx";
    core = "DSP56800E";
    f_cpu_hz = 60.0e6;
    word_bits = 16;
    has_fpu = false;
    has_mac = true;
    flash_bytes = 512 * 1024;
    ram_bytes = 32 * 1024;
    irq_latency_cycles = 12;
    irq_exit_cycles = 8;
    timer =
      { timer_channels = 8; prescalers = [ 1; 2; 4; 8; 16; 32; 64; 128 ];
        counter_bits = 16 };
    adc = { adc_channels = 16; resolutions = [ 12 ]; conv_cycles = 102 };
    pwm = { pwm_channels = 6; pwm_counter_bits = 15 };
    dac = { dac_channels = 2; dac_resolutions = [ 12 ] };
    sci_count = 2;
    has_qdec = true;
    pins =
      [ "GPIOA0"; "GPIOA1"; "GPIOA2"; "GPIOA3"; "GPIOA4"; "GPIOA5"; "GPIOA6";
        "GPIOA7"; "GPIOB0"; "GPIOB1"; "GPIOB2"; "GPIOB3"; "GPIOB4"; "GPIOB5";
        "GPIOB6"; "GPIOB7"; "GPIOC0"; "GPIOC1"; "GPIOC2"; "GPIOC3"; "GPIOC4";
        "GPIOC5"; "GPIOC6"; "GPIOC7" ];
  }

let mc9s12dp256 =
  {
    name = "MC9S12DP256";
    family = "HCS12";
    core = "HCS12";
    f_cpu_hz = 25.0e6;
    word_bits = 16;
    has_fpu = false;
    has_mac = false;
    flash_bytes = 256 * 1024;
    ram_bytes = 12 * 1024;
    irq_latency_cycles = 9;
    irq_exit_cycles = 8;
    timer =
      { timer_channels = 8; prescalers = [ 1; 2; 4; 8; 16; 32; 64; 128 ];
        counter_bits = 16 };
    adc = { adc_channels = 16; resolutions = [ 8; 10 ]; conv_cycles = 140 };
    pwm = { pwm_channels = 8; pwm_counter_bits = 8 };
    dac = { dac_channels = 0; dac_resolutions = [] };
    sci_count = 2;
    has_qdec = false;
    pins =
      [ "PORTA0"; "PORTA1"; "PORTA2"; "PORTA3"; "PORTA4"; "PORTA5"; "PORTA6";
        "PORTA7"; "PORTB0"; "PORTB1"; "PORTB2"; "PORTB3"; "PORTB4"; "PORTB5";
        "PORTB6"; "PORTB7"; "PTT0"; "PTT1"; "PTT2"; "PTT3"; "PTT4"; "PTT5";
        "PTT6"; "PTT7" ];
  }

let mcf5213 =
  {
    name = "MCF5213";
    family = "ColdFire V2";
    core = "V2";
    f_cpu_hz = 80.0e6;
    word_bits = 32;
    has_fpu = false;
    has_mac = true;
    flash_bytes = 256 * 1024;
    ram_bytes = 32 * 1024;
    irq_latency_cycles = 10;
    irq_exit_cycles = 10;
    timer =
      { timer_channels = 4; prescalers = List.init 8 (fun i -> 1 lsl i);
        counter_bits = 16 };
    adc = { adc_channels = 8; resolutions = [ 12 ]; conv_cycles = 96 };
    pwm = { pwm_channels = 8; pwm_counter_bits = 16 };
    dac = { dac_channels = 1; dac_resolutions = [ 12 ] };
    sci_count = 3;
    has_qdec = true;
    pins =
      [ "PORTTC0"; "PORTTC1"; "PORTTC2"; "PORTTC3"; "PORTAN0"; "PORTAN1";
        "PORTAN2"; "PORTAN3"; "PORTAN4"; "PORTAN5"; "PORTAN6"; "PORTAN7";
        "PORTQS0"; "PORTQS1"; "PORTQS2"; "PORTQS3"; "PORTQS4"; "PORTQS5";
        "PORTQS6"; "PORTQS7" ];
  }

let mc56f8323 =
  (* the small sibling of the case-study DSC: same core, less of
     everything -- the part a cost-down exercise would try first *)
  {
    mc56f8367 with
    name = "MC56F8323";
    f_cpu_hz = 60.0e6;
    flash_bytes = 64 * 1024;
    ram_bytes = 8 * 1024;
    timer =
      { timer_channels = 4; prescalers = [ 1; 2; 4; 8; 16; 32; 64; 128 ];
        counter_bits = 16 };
    adc = { adc_channels = 8; resolutions = [ 12 ]; conv_cycles = 102 };
    pwm = { pwm_channels = 6; pwm_counter_bits = 15 };
    dac = { dac_channels = 1; dac_resolutions = [ 12 ] };
    sci_count = 1;
    pins =
      [ "GPIOA0"; "GPIOA1"; "GPIOA2"; "GPIOA3"; "GPIOA4"; "GPIOA5"; "GPIOA6";
        "GPIOA7"; "GPIOB0"; "GPIOB1"; "GPIOB2"; "GPIOB3" ];
  }

let mpc5554 =
  (* 32-bit PowerPC automotive MCU with an FPU: the "power PC" class the
     paper's conclusions mention for the Linux PIL simulator *)
  {
    name = "MPC5554";
    family = "MPC55xx";
    core = "e200z6";
    f_cpu_hz = 132.0e6;
    word_bits = 32;
    has_fpu = true;
    has_mac = true;
    flash_bytes = 2 * 1024 * 1024;
    ram_bytes = 64 * 1024;
    irq_latency_cycles = 14;
    irq_exit_cycles = 12;
    timer =
      { timer_channels = 24; prescalers = List.init 8 (fun i -> 1 lsl i);
        counter_bits = 24 };
    adc = { adc_channels = 40; resolutions = [ 10; 12 ]; conv_cycles = 120 };
    pwm = { pwm_channels = 24; pwm_counter_bits = 16 };
    dac = { dac_channels = 0; dac_resolutions = [] };
    sci_count = 2;
    has_qdec = true;
    pins =
      [ "ETPUA0"; "ETPUA1"; "ETPUA2"; "ETPUA3"; "ETPUA4"; "ETPUA5"; "ETPUA6";
        "ETPUA7"; "ETPUA8"; "ETPUA9"; "ETPUA10"; "ETPUA11"; "ETPUA12";
        "ETPUA13"; "ETPUA14"; "ETPUA15"; "EMIOS0"; "EMIOS1"; "EMIOS2";
        "EMIOS3"; "EMIOS4"; "EMIOS5"; "EMIOS6"; "EMIOS7"; "EMIOS8"; "EMIOS9";
        "EMIOS10"; "EMIOS11"; "EMIOS12"; "EMIOS13"; "EMIOS14"; "EMIOS15" ];
  }

let all = [ mc56f8367; mc56f8323; mc9s12dp256; mcf5213; mpc5554 ]

let find name =
  let up = String.uppercase_ascii name in
  List.find_opt (fun t -> String.uppercase_ascii t.name = up) all

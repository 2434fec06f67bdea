let require_valid bean =
  if not (Bean.is_valid bean) then
    invalid_arg
      (Printf.sprintf
         "Periph_blocks: bean %s is not valid (%s); fix it in the Bean Inspector"
         bean.Bean.bname
         (match bean.Bean.errors with e :: _ -> e | [] -> "unresolved"))

let bean_param bean = ("bean", Param.String bean.Bean.bname)

let timer_int bean =
  require_valid bean;
  let period =
    match bean.Bean.resolved with
    | Some (Bean.R_timer (sol, _)) -> sol.Expert.achieved_period
    | _ -> invalid_arg "Periph_blocks.timer_int: not a TimerInt bean"
  in
  {
    Block.kind = "PE_TimerInt";
    params = [ bean_param bean; ("period", Param.Float period) ];
    n_in = 0;
    n_out = 0;
    feedthrough = [||];
    out_types = [||];
    sample = Sample_time.discrete period;
    event_outs = [| "OnInterrupt" |];
    make =
      (fun ctx ->
        { Block.no_beh_state with update = (fun ~time:_ _ -> ctx.Block.fire 0) });
  }

let adc bean =
  require_valid bean;
  let vref, sample_period, max_code =
    match (bean.Bean.config, bean.Bean.resolved) with
    | Bean.Adc { vref; sample_period; _ }, Some (Bean.R_adc { max_code; _ }) ->
        (vref, sample_period, max_code)
    | _ -> invalid_arg "Periph_blocks.adc: not an ADC bean"
  in
  {
    Block.kind = "PE_Adc";
    params =
      [
        bean_param bean;
        ("vref", Param.Float vref);
        ("max_code", Param.Int max_code);
        ("period", Param.Float sample_period);
      ];
    n_in = 1;
    n_out = 1;
    feedthrough = [| true |];
    out_types = [| Block.Fixed_type Dtype.Uint16 |];
    sample = Sample_time.discrete sample_period;
    event_outs = [| "OnEnd" |];
    make =
      (fun ctx ->
        let quantize v =
          let code =
            int_of_float (Float.round (v /. vref *. float_of_int max_code))
          in
          if code < 0 then 0 else if code > max_code then max_code else code
        in
        {
          Block.no_beh_state with
          out =
            (fun ~minor:_ ~time:_ ins ->
              [| Value.of_int Dtype.Uint16 (quantize (Value.to_float ins.(0))) |]);
          update = (fun ~time:_ _ -> ctx.Block.fire 0);
        });
  }

let adc_volts_gain bean =
  match (bean.Bean.config, bean.Bean.resolved) with
  | Bean.Adc { vref; _ }, Some (Bean.R_adc { max_code; _ }) ->
      vref /. float_of_int max_code
  | _ -> invalid_arg "Periph_blocks.adc_volts_gain: not a resolved ADC bean"

let pwm bean =
  require_valid bean;
  let period_counts =
    match bean.Bean.resolved with
    | Some (Bean.R_pwm { period_counts; _ }) -> period_counts
    | _ -> invalid_arg "Periph_blocks.pwm: not a PWM bean"
  in
  {
    Block.kind = "PE_Pwm";
    params = [ bean_param bean; ("period_counts", Param.Int period_counts) ];
    n_in = 1;
    n_out = 1;
    feedthrough = [| true |];
    out_types = [| Block.Fixed_type Dtype.Double |];
    sample = Sample_time.Inherited;
    event_outs = [||];
    make =
      (fun _ctx ->
        {
          Block.no_beh_state with
          out =
            (fun ~minor:_ ~time:_ ins ->
              (* SetRatio16 semantics including the integer duty counter *)
              let ratio16 = Value.to_int ins.(0) in
              let ratio16 =
                if ratio16 < 0 then 0 else if ratio16 > 65535 then 65535 else ratio16
              in
              let duty_counts = ratio16 * period_counts / 65535 in
              [| Value.F (float_of_int duty_counts /. float_of_int period_counts) |]);
        });
  }

let bit_io_out bean =
  require_valid bean;
  let init =
    match bean.Bean.config with
    | Bean.Bit_io { direction = Bean.Out_pin; init; _ } -> init
    | _ -> invalid_arg "Periph_blocks.bit_io_out: not an output BitIO bean"
  in
  {
    Block.kind = "PE_BitIO_Out";
    params = [ bean_param bean; ("init", Param.Bool init) ];
    n_in = 1;
    n_out = 1;
    feedthrough = [| true |];
    out_types = [| Block.Fixed_type Dtype.Bool |];
    sample = Sample_time.Inherited;
    event_outs = [||];
    make =
      (fun _ctx ->
        let latch = ref init in
        {
          Block.no_beh_state with
          out =
            (fun ~minor ~time:_ ins ->
              if not minor then latch := Value.to_bool ins.(0);
              [| Value.of_bool !latch |]);
          reset = (fun () -> latch := init);
          save = (fun () -> let v = !latch in fun () -> latch := v);
        });
  }

let bit_io_in bean =
  require_valid bean;
  (match bean.Bean.config with
  | Bean.Bit_io { direction = Bean.In_pin; _ } -> ()
  | _ -> invalid_arg "Periph_blocks.bit_io_in: not an input BitIO bean");
  {
    Block.kind = "PE_BitIO_In";
    params = [ bean_param bean ];
    n_in = 1;
    n_out = 1;
    feedthrough = [| true |];
    out_types = [| Block.Fixed_type Dtype.Bool |];
    sample = Sample_time.Inherited;
    event_outs = [||];
    make =
      (fun _ctx ->
        {
          Block.no_beh_state with
          out = (fun ~minor:_ ~time:_ ins -> [| Value.of_bool (Value.to_bool ins.(0)) |]);
        });
  }

let quad_decoder bean =
  require_valid bean;
  let lines =
    match bean.Bean.config with
    | Bean.Quad_dec { lines_per_rev } -> lines_per_rev
    | _ -> invalid_arg "Periph_blocks.quad_decoder: not a QuadDecoder bean"
  in
  let counts_per_rev = 4 * lines in
  {
    Block.kind = "PE_QuadDec";
    params = [ bean_param bean; ("counts_per_rev", Param.Int counts_per_rev) ];
    n_in = 1;
    n_out = 1;
    feedthrough = [| true |];
    out_types = [| Block.Fixed_type Dtype.Int32 |];
    sample = Sample_time.Inherited;
    event_outs = [||];
    make =
      (fun _ctx ->
        let two_pi = 2.0 *. Float.pi in
        {
          Block.no_beh_state with
          out =
            (fun ~minor:_ ~time:_ ins ->
              let theta = Value.to_float ins.(0) in
              let count =
                int_of_float
                  (Float.floor (theta /. two_pi *. float_of_int counts_per_rev))
              in
              [| Value.of_int Dtype.Int32 count |]);
        });
  }

let free_counter bean =
  require_valid bean;
  let tick =
    match bean.Bean.resolved with
    | Some (Bean.R_free_cntr (sol, _)) -> sol.Expert.achieved_period
    | _ -> invalid_arg "Periph_blocks.free_counter: not a FreeCntr bean"
  in
  {
    Block.kind = "PE_FreeCntr";
    params = [ bean_param bean; ("tick", Param.Float tick) ];
    n_in = 0;
    n_out = 1;
    feedthrough = [||];
    out_types = [| Block.Fixed_type Dtype.Uint16 |];
    sample = Sample_time.Inherited;
    event_outs = [||];
    make =
      (fun _ctx ->
        {
          Block.no_beh_state with
          out =
            (fun ~minor:_ ~time _ ->
              let ticks = int_of_float (Float.floor (time /. tick)) in
              [| Value.of_int Dtype.Uint16 (ticks land 0xFFFF) |]);
        });
  }

let dac bean =
  require_valid bean;
  let vref, max_code =
    match (bean.Bean.config, bean.Bean.resolved) with
    | Bean.Dac { vref; _ }, Some (Bean.R_dac { max_code; _ }) -> (vref, max_code)
    | _ -> invalid_arg "Periph_blocks.dac: not a DAC bean"
  in
  {
    Block.kind = "PE_Dac";
    params =
      [ bean_param bean; ("vref", Param.Float vref);
        ("max_code", Param.Int max_code) ];
    n_in = 1;
    n_out = 1;
    feedthrough = [| true |];
    out_types = [| Block.Fixed_type Dtype.Double |];
    sample = Sample_time.Inherited;
    event_outs = [||];
    make =
      (fun _ctx ->
        {
          Block.no_beh_state with
          out =
            (fun ~minor:_ ~time:_ ins ->
              let code = Value.to_int ins.(0) in
              let code =
                if code < 0 then 0 else if code > max_code then max_code else code
              in
              [| Value.F (float_of_int code /. float_of_int max_code *. vref) |]);
        });
  }

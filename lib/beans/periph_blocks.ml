(* The peripheral block kinds of both block sets: the one place a kind
   string is read or written. A block set is the API its Hw code calls;
   the simulation behaviour of a peripheral is the same in both. Two
   compiled matches rather than one association list: every consumer
   classifies every block of a model, several times a code generation. *)

type periph = Timer_int | Adc | Pwm | Bit_io_in | Quad_dec
type api = Pe | Autosar

let classify = function
  | "PE_TimerInt" -> Some (Timer_int, Pe)
  | "AR_TimerInt" -> Some (Timer_int, Autosar)
  | "PE_Adc" -> Some (Adc, Pe)
  | "PE_Pwm" -> Some (Pwm, Pe)
  | "AR_Pwm" -> Some (Pwm, Autosar)
  | "PE_BitIO_In" -> Some (Bit_io_in, Pe)
  | "AR_Dio_In" -> Some (Bit_io_in, Autosar)
  | "PE_QuadDec" -> Some (Quad_dec, Pe)
  | "AR_Icu" -> Some (Quad_dec, Autosar)
  | _ -> None

let kind_of = function
  | Timer_int, Pe -> "PE_TimerInt"
  | Timer_int, Autosar -> "AR_TimerInt"
  | Adc, Pe -> "PE_Adc"
  | Adc, Autosar -> raise Not_found
  | Pwm, Pe -> "PE_Pwm"
  | Pwm, Autosar -> "AR_Pwm"
  | Bit_io_in, Pe -> "PE_BitIO_In"
  | Bit_io_in, Autosar -> "AR_Dio_In"
  | Quad_dec, Pe -> "PE_QuadDec"
  | Quad_dec, Autosar -> "AR_Icu"

let model_api m =
  if
    List.exists
      (fun b ->
        match classify (Model.spec_of m b).Block.kind with
        | Some (_, Autosar) -> true
        | _ -> false)
      (Model.blocks m)
  then Autosar
  else Pe

let sensor_coding kind =
  match classify kind with
  | Some (Adc, _) -> Value.of_int Dtype.Uint16
  | Some (Quad_dec, _) -> Value.of_int Dtype.Int32
  | Some (Bit_io_in, _) -> fun w -> Value.of_bool (w <> 0)
  | _ -> invalid_arg ("Periph_blocks.sensor_coding: no sensor kind " ^ kind)

let actuator_coding kind =
  match classify kind with
  | Some (Pwm, _) ->
      fun v -> int_of_float (Float.round (Value.to_float v *. 65535.0)) land 0xFFFF
  | _ -> invalid_arg ("Periph_blocks.actuator_coding: no actuator kind " ^ kind)

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
    Block.kind = kind_of (Timer_int, Pe);
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
    Block.kind = kind_of (Adc, Pe);
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
    Block.kind = kind_of (Pwm, Pe);
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

let bit_io_in bean =
  require_valid bean;
  (match bean.Bean.config with
  | Bean.Bit_io { direction = Bean.In_pin; _ } -> ()
  | _ -> invalid_arg "Periph_blocks.bit_io_in: not an input BitIO bean");
  {
    Block.kind = kind_of (Bit_io_in, Pe);
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
    Block.kind = kind_of (Quad_dec, Pe);
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

let sample_of period =
  match period with
  | Some p -> Sample_time.discrete p
  | None -> Sample_time.Inherited

let unit_delay ?(init = 0.0) ?period () =
  {
    Block.kind = "UnitDelay";
    params = [ ("init", Param.Float init) ];
    n_in = 1;
    n_out = 1;
    feedthrough = [| false |];
    out_types = [| Block.Same_as 0 |];
    sample = sample_of period;
    event_outs = [||];
    make =
      (fun ctx ->
        let state = ref (Value.of_float ctx.Block.out_dtypes.(0) init) in
        {
          Block.no_beh_state with
          out = (fun ~minor:_ ~time:_ _ -> [| !state |]);
          update = (fun ~time:_ ins -> state := Value.cast ctx.Block.out_dtypes.(0) ins.(0));
          reset = (fun () -> state := Value.of_float ctx.Block.out_dtypes.(0) init);
          save = (fun () -> let v = !state in fun () -> state := v);
        });
  }

let zoh ?(offset = 0.0) ~period () =
  {
    Block.kind = "ZOH";
    params = [ ("period", Param.Float period); ("offset", Param.Float offset) ];
    n_in = 1;
    n_out = 1;
    feedthrough = [| true |];
    out_types = [| Block.Same_as 0 |];
    sample = Sample_time.discrete ~offset period;
    event_outs = [||];
    make =
      (fun _ctx ->
        { Block.no_beh_state with out = (fun ~minor:_ ~time:_ ins -> [| ins.(0) |]) });
  }

let discrete_integrator ?(k = 1.0) ?(init = 0.0) ?(lo = neg_infinity)
    ?(hi = infinity) () =
  {
    Block.kind = "DiscreteIntegrator";
    params =
      [
        ("k", Param.Float k);
        ("init", Param.Float init);
        ("lo", Param.Float lo);
        ("hi", Param.Float hi);
      ];
    n_in = 1;
    n_out = 1;
    feedthrough = [| false |];
    out_types = [| Block.Fixed_type Dtype.Double |];
    sample = Sample_time.Inherited;
    event_outs = [||];
    make =
      (fun ctx ->
        let y = ref init in
        let clamp x = Float.min hi (Float.max lo x) in
        {
          Block.no_beh_state with
          out = (fun ~minor:_ ~time:_ _ -> [| Value.F !y |]);
          update =
            (fun ~time:_ ins ->
              y := clamp (!y +. (k *. ctx.Block.block_dt *. Value.to_float ins.(0))));
          reset = (fun () -> y := init);
          save = (fun () -> let v = !y in fun () -> y := v);
        });
  }

let discrete_derivative ?(k = 1.0) () =
  {
    Block.kind = "DiscreteDerivative";
    params = [ ("k", Param.Float k) ];
    n_in = 1;
    n_out = 1;
    feedthrough = [| true |];
    out_types = [| Block.Fixed_type Dtype.Double |];
    sample = Sample_time.Inherited;
    event_outs = [||];
    make =
      (fun ctx ->
        let prev = ref 0.0 in
        {
          Block.no_beh_state with
          out =
            (fun ~minor:_ ~time:_ ins ->
              [| Value.F (k *. (Value.to_float ins.(0) -. !prev) /. ctx.Block.block_dt) |]);
          update = (fun ~time:_ ins -> prev := Value.to_float ins.(0));
          reset = (fun () -> prev := 0.0);
          save = (fun () -> let v = !prev in fun () -> prev := v);
        });
  }

let discrete_tf ~num ~den =
  let tf = Ztransfer.create ~num ~den in
  let feed = Array.length num = Array.length den && num.(0) <> 0.0 in
  {
    Block.kind = "DiscreteTransferFcn";
    params = [ ("num", Param.Floats num); ("den", Param.Floats den) ];
    n_in = 1;
    n_out = 1;
    feedthrough = [| feed |];
    out_types = [| Block.Fixed_type Dtype.Double |];
    sample = Sample_time.Inherited;
    event_outs = [||];
    make =
      (fun _ctx ->
        let st = Ztransfer.init tf in
        (* Direct form II transposed produces output and advances state in
           one sweep; evaluate once per major step, at output time. *)
        let current = ref 0.0 in
        {
          Block.no_beh_state with
          out =
            (fun ~minor ~time:_ ins ->
              if not minor then current := Ztransfer.step tf st (Value.to_float ins.(0));
              [| Value.F !current |]);
          reset =
            (fun () ->
              Ztransfer.reset st;
              current := 0.0);
          save =
            (fun () ->
              let restore_st = Ztransfer.save st and v = !current in
              fun () ->
                restore_st ();
                current := v);
        });
  }

let pid ~ts g =
  {
    Block.kind = "Pid";
    params =
      [
        ("kp", Param.Float g.Pid.kp);
        ("ki", Param.Float g.Pid.ki);
        ("kd", Param.Float g.Pid.kd);
        ("n", Param.Float g.Pid.n);
        ("u_min", Param.Float g.Pid.u_min);
        ("u_max", Param.Float g.Pid.u_max);
        ("ts", Param.Float ts);
      ];
    n_in = 2;
    n_out = 1;
    feedthrough = [| true; true |];
    out_types = [| Block.Fixed_type Dtype.Double |];
    sample = Sample_time.discrete ts;
    event_outs = [||];
    make =
      (fun _ctx ->
        let c = Pid.create ~ts g in
        let current = ref 0.0 in
        {
          Block.no_beh_state with
          out =
            (fun ~minor ~time:_ ins ->
              if not minor then
                current :=
                  Pid.step c ~sp:(Value.to_float ins.(0)) ~pv:(Value.to_float ins.(1));
              [| Value.F !current |]);
          reset =
            (fun () ->
              Pid.reset c;
              current := 0.0);
          save =
            (fun () ->
              let restore_c = Pid.save c and v = !current in
              fun () ->
                restore_c ();
                current := v);
        });
  }

let fix_pid ~ts ~in_scale ~out_scale g =
  {
    Block.kind = "FixPid";
    params =
      [
        ("kp", Param.Float g.Pid.kp);
        ("ki", Param.Float g.Pid.ki);
        ("kd", Param.Float g.Pid.kd);
        ("n", Param.Float g.Pid.n);
        ("u_min", Param.Float g.Pid.u_min);
        ("u_max", Param.Float g.Pid.u_max);
        ("ts", Param.Float ts);
        ("in_scale", Param.Float in_scale);
        ("out_scale", Param.Float out_scale);
      ];
    n_in = 2;
    n_out = 1;
    feedthrough = [| true; true |];
    out_types = [| Block.Fixed_type Dtype.Double |];
    sample = Sample_time.discrete ts;
    event_outs = [||];
    make =
      (fun _ctx ->
        let c = Pid.Fixpoint.create ~ts ~in_scale ~out_scale g in
        let current = ref 0.0 in
        {
          Block.no_beh_state with
          out =
            (fun ~minor ~time:_ ins ->
              if not minor then
                current :=
                  Pid.Fixpoint.step c ~sp:(Value.to_float ins.(0))
                    ~pv:(Value.to_float ins.(1));
              [| Value.F !current |]);
          reset =
            (fun () ->
              Pid.Fixpoint.reset c;
              current := 0.0);
          save =
            (fun () ->
              let restore_c = Pid.Fixpoint.save c and v = !current in
              fun () ->
                restore_c ();
                current := v);
        });
  }

let rate_limiter ~rising ~falling =
  if rising < 0.0 || falling < 0.0 then
    invalid_arg "Discrete_blocks.rate_limiter: rates must be non-negative";
  {
    Block.kind = "RateLimiter";
    params = [ ("rising", Param.Float rising); ("falling", Param.Float falling) ];
    n_in = 1;
    n_out = 1;
    feedthrough = [| true |];
    out_types = [| Block.Fixed_type Dtype.Double |];
    sample = Sample_time.Inherited;
    event_outs = [||];
    make =
      (fun ctx ->
        let prev = ref 0.0 in
        let started = ref false in
        {
          Block.no_beh_state with
          out =
            (fun ~minor ~time:_ ins ->
              let u = Value.to_float ins.(0) in
              if not minor then begin
                let dt = ctx.Block.block_dt in
                let y =
                  if not !started then u
                  else
                    let dy = u -. !prev in
                    let up = rising *. dt and down = -.falling *. dt in
                    !prev +. Float.min up (Float.max down dy)
                in
                started := true;
                prev := y
              end;
              [| Value.F !prev |]);
          reset =
            (fun () ->
              prev := 0.0;
              started := false);
          save =
            (fun () ->
              let p = !prev and st = !started in
              fun () ->
                prev := p;
                started := st);
        });
  }

let moving_average n =
  if n < 1 then invalid_arg "Discrete_blocks.moving_average: n < 1";
  {
    Block.kind = "MovingAverage";
    params = [ ("n", Param.Int n) ];
    n_in = 1;
    n_out = 1;
    feedthrough = [| true |];
    out_types = [| Block.Fixed_type Dtype.Double |];
    sample = Sample_time.Inherited;
    event_outs = [||];
    make =
      (fun _ctx ->
        let buf = Array.make n 0.0 in
        let idx = ref 0 and filled = ref 0 in
        let current = ref 0.0 in
        {
          Block.no_beh_state with
          out =
            (fun ~minor ~time:_ ins ->
              if not minor then begin
                buf.(!idx) <- Value.to_float ins.(0);
                idx := (!idx + 1) mod n;
                filled := Stdlib.min n (!filled + 1);
                let s = Array.fold_left ( +. ) 0.0 buf in
                current := s /. float_of_int !filled
              end;
              [| Value.F !current |]);
          reset =
            (fun () ->
              Array.fill buf 0 n 0.0;
              idx := 0;
              filled := 0;
              current := 0.0);
          save =
            (fun () ->
              let b = Array.copy buf and i = !idx and f = !filled
              and v = !current in
              fun () ->
                Array.blit b 0 buf 0 n;
                idx := i;
                filled := f;
                current := v);
        });
  }

let encoder_speed ~counts_per_rev =
  if counts_per_rev <= 0 then invalid_arg "Discrete_blocks.encoder_speed";
  {
    Block.kind = "EncoderSpeed";
    params = [ ("counts_per_rev", Param.Int counts_per_rev) ];
    n_in = 1;
    n_out = 1;
    feedthrough = [| true |];
    out_types = [| Block.Fixed_type Dtype.Double |];
    sample = Sample_time.Inherited;
    event_outs = [||];
    make =
      (fun ctx ->
        let prev = ref 0 in
        let current = ref 0.0 in
        let k = 2.0 *. Float.pi /. float_of_int counts_per_rev in
        {
          Block.no_beh_state with
          out =
            (fun ~minor ~time:_ ins ->
              if not minor then begin
                let c = Value.to_int ins.(0) in
                (* wrap-aware 16-bit difference, as the generated C does
                   with an (int16_t) cast: correct for both absolute and
                   wrapped position registers while |delta| < 2^15 *)
                let dc = (c - !prev) land 0xFFFF in
                let dc = if dc >= 0x8000 then dc - 0x10000 else dc in
                current := float_of_int dc *. k /. ctx.Block.block_dt;
                prev := c
              end;
              [| Value.F !current |]);
          reset =
            (fun () ->
              prev := 0;
              current := 0.0);
          save =
            (fun () ->
              let p = !prev and v = !current in
              fun () ->
                prev := p;
                current := v);
        });
  }

let delay_n n =
  if n < 0 then invalid_arg "Discrete_blocks.delay_n: n < 0";
  {
    Block.kind = "DelayN";
    params = [ ("n", Param.Int n) ];
    n_in = 1;
    n_out = 1;
    feedthrough = [| n = 0 |];
    out_types = [| Block.Same_as 0 |];
    sample = Sample_time.Inherited;
    event_outs = [||];
    make =
      (fun ctx ->
        if n = 0 then
          { Block.no_beh_state with out = (fun ~minor:_ ~time:_ ins -> [| ins.(0) |]) }
        else begin
          let zero = Value.zero ctx.Block.out_dtypes.(0) in
          let buf = Array.make n zero in
          let idx = ref 0 in
          {
            Block.no_beh_state with
            out = (fun ~minor:_ ~time:_ _ -> [| buf.(!idx) |]);
            update =
              (fun ~time:_ ins ->
                buf.(!idx) <- Value.cast ctx.Block.out_dtypes.(0) ins.(0);
                idx := (!idx + 1) mod n);
            reset =
              (fun () ->
                Array.fill buf 0 n zero;
                idx := 0);
            save =
              (fun () ->
                let b = Array.copy buf and i = !idx in
                fun () ->
                  Array.blit b 0 buf 0 n;
                  idx := i);
          }
        end);
  }

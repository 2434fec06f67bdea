let typed_out ctx x = Value.of_float ctx.Block.out_dtypes.(0) x

let saturation ~lo ~hi =
  if lo > hi then invalid_arg "Nonlinear_blocks.saturation: lo > hi";
  Block.stateless ~kind:"Saturation"
    ~params:[ ("lo", Param.Float lo); ("hi", Param.Float hi) ]
    ~n_in:1 ~n_out:1
    (fun ctx ins ->
      [| typed_out ctx (Float.min hi (Float.max lo (Value.to_float ins.(0)))) |])

let quantizer ~interval =
  if interval <= 0.0 then invalid_arg "Nonlinear_blocks.quantizer: interval";
  Block.stateless ~kind:"Quantizer"
    ~params:[ ("interval", Param.Float interval) ]
    ~n_in:1 ~n_out:1
    (fun ctx ins ->
      [| typed_out ctx (interval *. Float.round (Value.to_float ins.(0) /. interval)) |])

let dead_zone ~lo ~hi =
  if lo > hi then invalid_arg "Nonlinear_blocks.dead_zone: lo > hi";
  Block.stateless ~kind:"DeadZone"
    ~params:[ ("lo", Param.Float lo); ("hi", Param.Float hi) ]
    ~n_in:1 ~n_out:1
    (fun ctx ins ->
      let u = Value.to_float ins.(0) in
      let y = if u > hi then u -. hi else if u < lo then u -. lo else 0.0 in
      [| typed_out ctx y |])

let relay ?(on_point = 0.5) ?(off_point = -0.5) ~on_value ~off_value () =
  if off_point > on_point then invalid_arg "Nonlinear_blocks.relay: hysteresis";
  {
    Block.kind = "Relay";
    params =
      [
        ("on_point", Param.Float on_point);
        ("off_point", Param.Float off_point);
        ("on_value", Param.Float on_value);
        ("off_value", Param.Float off_value);
      ];
    n_in = 1;
    n_out = 1;
    feedthrough = [| true |];
    out_types = [| Block.Fixed_type Dtype.Double |];
    sample = Sample_time.Inherited;
    event_outs = [||];
    make =
      (fun _ctx ->
        let on = ref false in
        {
          Block.no_beh_state with
          out =
            (fun ~minor ~time:_ ins ->
              let u = Value.to_float ins.(0) in
              if not minor then begin
                if u >= on_point then on := true
                else if u <= off_point then on := false
              end;
              [| Value.F (if !on then on_value else off_value) |]);
          reset = (fun () -> on := false);
          save = (fun () -> let v = !on in fun () -> on := v);
        });
  }

let switch ~threshold =
  Block.stateless ~kind:"Switch"
    ~params:[ ("threshold", Param.Float threshold) ]
    ~n_in:3 ~n_out:1
    (fun _ctx ins ->
      [| (if Value.to_float ins.(1) >= threshold then ins.(0) else ins.(2)) |])

let sign_block =
  Block.stateless ~kind:"Sign" ~n_in:1 ~n_out:1 (fun ctx ins ->
      let u = Value.to_float ins.(0) in
      [| typed_out ctx (if u > 0.0 then 1.0 else if u < 0.0 then -1.0 else 0.0) |])

let coulomb_friction ~level =
  Block.stateless ~kind:"CoulombFriction"
    ~params:[ ("level", Param.Float level) ]
    ~n_in:1 ~n_out:1
    (fun ctx ins ->
      let u = Value.to_float ins.(0) in
      let s = if u > 0.0 then 1.0 else if u < 0.0 then -1.0 else 0.0 in
      [| typed_out ctx (u +. (level *. s)) |])

let backlash ~width =
  if width < 0.0 then invalid_arg "Nonlinear_blocks.backlash: width";
  {
    Block.kind = "Backlash";
    params = [ ("width", Param.Float width) ];
    n_in = 1;
    n_out = 1;
    feedthrough = [| true |];
    out_types = [| Block.Fixed_type Dtype.Double |];
    sample = Sample_time.Inherited;
    event_outs = [||];
    make =
      (fun _ctx ->
        let y = ref 0.0 in
        let half = width /. 2.0 in
        {
          Block.no_beh_state with
          out =
            (fun ~minor ~time:_ ins ->
              let u = Value.to_float ins.(0) in
              if not minor then begin
                if u -. !y > half then y := u -. half
                else if !y -. u > half then y := u +. half
              end;
              [| Value.F !y |]);
          reset = (fun () -> y := 0.0);
          save = (fun () -> let v = !y in fun () -> y := v);
        });
  }

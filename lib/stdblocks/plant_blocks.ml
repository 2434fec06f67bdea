(* Serialise the load profile into block parameters so the simulator
   code generator can rebuild it; composite profiles fall back to the
   closest simple form. *)
let load_params load =
  match load with
  | Load_profile.No_load -> [ ("load", Param.String "none") ]
  | Load_profile.Constant tau ->
      [ ("load", Param.String "constant"); ("load_tau", Param.Float tau) ]
  | Load_profile.Viscous k ->
      [ ("load", Param.String "viscous"); ("load_k", Param.Float k) ]
  | Load_profile.Step { at; torque } ->
      [ ("load", Param.String "step"); ("load_at", Param.Float at);
        ("load_tau", Param.Float torque) ]
  | Load_profile.Pulse { start; stop; torque } ->
      [ ("load", Param.String "pulse"); ("load_start", Param.Float start);
        ("load_stop", Param.Float stop); ("load_tau", Param.Float torque) ]
  | Load_profile.Sum _ -> [ ("load", Param.String "composite") ]

let dc_motor ?(params = Dc_motor.default) ?(load = Load_profile.No_load) () =
  let p = params in
  {
    Block.kind = "DcMotor";
    params =
      [
        ("ra", Param.Float p.Dc_motor.ra);
        ("la", Param.Float p.Dc_motor.la);
        ("ke", Param.Float p.Dc_motor.ke);
        ("kt", Param.Float p.Dc_motor.kt);
        ("j", Param.Float p.Dc_motor.j);
        ("b", Param.Float p.Dc_motor.b);
      ]
      @ load_params load;
    n_in = 1;
    n_out = 3;
    feedthrough = [| false |];
    out_types = Array.make 3 (Block.Fixed_type Dtype.Double);
    sample = Sample_time.Continuous;
    event_outs = [||];
    make =
      (fun _ctx ->
        let x = [| 0.0; 0.0; 0.0 |] in
        (* in [Dc_motor]'s layout: i, w, theta *)
        {
          Block.no_beh_state with
          ncstates = 3;
          out =
            (fun ~minor:_ ~time:_ _ ->
              [| Value.F x.(1); Value.F x.(2); Value.F x.(0) |]);
          deriv =
            (fun ~time ins ->
              let u = Value.to_float ins.(0) in
              let tau = Load_profile.torque load ~time ~w:x.(Dc_motor.x_w) in
              let dx = Array.make 3 0.0 in
              Dc_motor.deriv_into p ~u ~tau_load:tau x dx;
              dx);
          get_cstate = (fun () -> Array.copy x);
          set_cstate = (fun s -> Array.blit s 0 x 0 3);
          reset = (fun () -> Array.fill x 0 3 0.0);
          save =
            (fun () ->
              let s = Array.copy x in
              fun () -> Array.blit s 0 x 0 3);
        });
  }

let power_stage stage =
  Block.stateless ~kind:"PowerStage"
    ~params:
      [
        ("u_supply", Param.Float stage.Power_stage.u_supply);
        ("dead_time_frac", Param.Float stage.Power_stage.dead_time_frac);
        ("r_on", Param.Float stage.Power_stage.r_on);
        ("bipolar", Param.Bool stage.Power_stage.bipolar);
      ]
    ~n_in:2 ~n_out:1
    ~out_types:[| Block.Fixed_type Dtype.Double |]
    (fun _ctx ins ->
      let duty = Value.to_float ins.(0) and i = Value.to_float ins.(1) in
      [| Value.F (Power_stage.output_voltage stage ~duty ~i) |])

let encoder_counts ?(enc = Encoder.create ()) () =
  Block.stateless ~kind:"EncoderCounts"
    ~params:[ ("lines_per_rev", Param.Int (Encoder.lines_per_rev enc)) ]
    ~n_in:1 ~n_out:1
    ~out_types:[| Block.Fixed_type Dtype.Int32 |]
    (fun _ctx ins ->
      let theta = Value.to_float ins.(0) in
      [| Value.of_int Dtype.Int32 (Encoder.count_of_angle enc ~theta) |])

let thermal_plant ?(params = Thermal.default) () =
  let p = params in
  {
    Block.kind = "ThermalPlant";
    params =
      [
        ("c_th", Param.Float p.Thermal.c_th);
        ("r_th", Param.Float p.Thermal.r_th);
        ("t_amb", Param.Float p.Thermal.t_amb);
        ("p_max", Param.Float p.Thermal.p_max);
      ];
    n_in = 1;
    n_out = 1;
    feedthrough = [| false |];
    out_types = [| Block.Fixed_type Dtype.Double |];
    sample = Sample_time.Inherited;
    event_outs = [||];
    make =
      (fun ctx ->
        let temp = ref p.Thermal.t_amb in
        {
          Block.no_beh_state with
          out = (fun ~minor:_ ~time:_ _ -> [| Value.F !temp |]);
          update =
            (fun ~time:_ ins ->
              temp :=
                Thermal.step p ~p_in:(Value.to_float ins.(0))
                  ~h:ctx.Block.block_dt !temp);
          reset = (fun () -> temp := p.Thermal.t_amb);
          save = (fun () -> let v = !temp in fun () -> temp := v);
        });
  }

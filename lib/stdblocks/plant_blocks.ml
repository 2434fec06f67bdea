(* Serialise the load profile into block parameters so the simulator
   code generator can rebuild it. Each key hangs off [key]; the parts of
   a [Sum] hang off [key ^ ".0"], [key ^ ".1"], ... *)
let rec load_params ?(key = "load") load =
  let kind k = (key, Param.String k) and f k x = (key ^ "_" ^ k, Param.Float x) in
  match load with
  | Load_profile.No_load -> [ kind "none" ]
  | Load_profile.Constant tau -> [ kind "constant"; f "tau" tau ]
  | Load_profile.Viscous k -> [ kind "viscous"; f "k" k ]
  | Load_profile.Step { at; torque } -> [ kind "step"; f "at" at; f "tau" torque ]
  | Load_profile.Pulse { start; stop; torque } ->
      [ kind "pulse"; f "start" start; f "stop" stop; f "tau" torque ]
  | Load_profile.Periodic { at; every; duration; torque } ->
      [ kind "periodic"; f "at" at; f "every" every; f "duration" duration;
        f "tau" torque ]
  | Load_profile.Sum parts ->
      kind "sum"
      :: (key ^ "_n", Param.Int (List.length parts))
      :: List.concat
           (List.mapi
              (fun i p -> load_params ~key:(key ^ "." ^ string_of_int i) p)
              parts)

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
        {
          Block.no_beh_state with
          kernel =
            Some
              {
                Block.x0 = [| 0.0; 0.0; 0.0 |];
                (* in [Dc_motor]'s layout: i, w, theta *)
                outputs =
                  (fun x off _ y ->
                    y.(0) <- x.(off + Dc_motor.x_w);
                    y.(1) <- x.(off + Dc_motor.x_theta);
                    y.(2) <- x.(off + Dc_motor.x_i));
                deriv =
                  (fun tc x off u dx ->
                    let tau =
                      Load_profile.torque load ~time:tc.(0)
                        ~w:x.(off + Dc_motor.x_w)
                    in
                    Dc_motor.deriv_into p ~u:u.(0) ~tau_load:tau x off dx);
              };
        });
  }

let power_stage stage =
  {
    Block.kind = "PowerStage";
    params =
      [
        ("u_supply", Param.Float stage.Power_stage.u_supply);
        ("dead_time_frac", Param.Float stage.Power_stage.dead_time_frac);
        ("r_on", Param.Float stage.Power_stage.r_on);
        ("bipolar", Param.Bool stage.Power_stage.bipolar);
      ];
    n_in = 2;
    n_out = 1;
    feedthrough = [| true; true |];
    out_types = [| Block.Fixed_type Dtype.Double |];
    sample = Sample_time.Inherited;
    event_outs = [||];
    make =
      (fun _ctx ->
        {
          Block.no_beh_state with
          kernel =
            Some
              {
                Block.x0 = [||];
                outputs =
                  (fun _ _ u y ->
                    y.(0) <- Power_stage.output_voltage stage ~duty:u.(0) ~i:u.(1));
                deriv = (fun _ _ _ _ _ -> ());
              };
        });
  }

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

let dv x = Value.F x

let constant ?(dtype = Dtype.Double) value =
  {
    Block.kind = "Constant";
    params = [ ("value", Param.Float value); ("dtype", Param.Dtype dtype) ];
    n_in = 0;
    n_out = 1;
    feedthrough = [||];
    out_types = [| Block.Fixed_type dtype |];
    sample = Sample_time.Const;
    event_outs = [||];
    make =
      (fun _ctx ->
        let v = Value.of_float dtype value in
        { Block.no_beh_state with out = (fun ~minor:_ ~time:_ _ -> [| v |]) });
  }

let time_source ~kind ~params f =
  {
    Block.kind;
    params;
    n_in = 0;
    n_out = 1;
    feedthrough = [||];
    out_types = [| Block.Fixed_type Dtype.Double |];
    sample = Sample_time.Inherited;
    event_outs = [||];
    make =
      (fun _ctx ->
        { Block.no_beh_state with out = (fun ~minor:_ ~time _ -> [| dv (f time) |]) });
  }

let step ?(t_step = 0.0) ?(before = 0.0) ~after () =
  time_source ~kind:"Step"
    ~params:
      [
        ("t_step", Param.Float t_step);
        ("before", Param.Float before);
        ("after", Param.Float after);
      ]
    (fun t -> if t >= t_step then after else before)

let ramp ?(start = 0.0) ~slope () =
  time_source ~kind:"Ramp"
    ~params:[ ("start", Param.Float start); ("slope", Param.Float slope) ]
    (fun t -> if t >= start then slope *. (t -. start) else 0.0)

let sine ?(amp = 1.0) ?(freq_hz = 1.0) ?(phase = 0.0) ?(bias = 0.0) () =
  time_source ~kind:"Sine"
    ~params:
      [
        ("amp", Param.Float amp);
        ("freq_hz", Param.Float freq_hz);
        ("phase", Param.Float phase);
        ("bias", Param.Float bias);
      ]
    (fun t -> bias +. (amp *. sin ((2.0 *. Float.pi *. freq_hz *. t) +. phase)))

let pulse ~period ?(duty = 0.5) ?(amp = 1.0) () =
  if period <= 0.0 then invalid_arg "Sources.pulse: period";
  time_source ~kind:"Pulse"
    ~params:
      [
        ("period", Param.Float period);
        ("duty", Param.Float duty);
        ("amp", Param.Float amp);
      ]
    (fun t ->
      let frac = Float.rem t period /. period in
      if frac < duty then amp else 0.0)

let setpoint_schedule entries =
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) entries in
  let times = Array.of_list (List.map fst sorted) in
  let values = Array.of_list (List.map snd sorted) in
  time_source ~kind:"SetpointSchedule"
    ~params:[ ("times", Param.Floats times); ("values", Param.Floats values) ]
    (fun t ->
      let v = ref 0.0 in
      Array.iteri (fun i ti -> if t >= ti then v := values.(i)) times;
      !v)

(* SplitMix64, kept local for reproducibility independent of Stdlib.Random. *)
let splitmix_next state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let uniform_noise ?(seed = 42) ?(lo = -1.0) ?(hi = 1.0) () =
  {
    Block.kind = "UniformNoise";
    params =
      [
        ("seed", Param.Int seed);
        ("lo", Param.Float lo);
        ("hi", Param.Float hi);
      ];
    n_in = 0;
    n_out = 1;
    feedthrough = [||];
    out_types = [| Block.Fixed_type Dtype.Double |];
    sample = Sample_time.Inherited;
    event_outs = [||];
    make =
      (fun _ctx ->
        let state = ref (Int64.of_int seed) in
        let current = ref 0.0 in
        let draw () =
          let bits = Int64.shift_right_logical (splitmix_next state) 11 in
          let u = Int64.to_float bits /. 9007199254740992.0 in
          lo +. (u *. (hi -. lo))
        in
        {
          Block.no_beh_state with
          out =
            (fun ~minor ~time:_ _ ->
              if not minor then current := draw ();
              [| dv !current |]);
          reset =
            (fun () ->
              state := Int64.of_int seed;
              current := 0.0);
          save =
            (fun () ->
              let st = !state and v = !current in
              fun () ->
                state := st;
                current := v);
        });
  }

let clock =
  time_source ~kind:"Clock" ~params:[] (fun t -> t)

type config = {
  motor : Dc_motor.params;
  gains : Pid.gains;
  period : float;
  t_end : float;
  setpoint : float;
  jitter_frac : float;
  latency_frac : float;
  seed : int;
}

let default =
  (* an aggressive loop (closed-loop time constant of three periods) so
     that timing imperfections are visible, as in the TrueTime demos *)
  let motor = Dc_motor.default in
  let kp, ki = Tuning.pi_for_dc_motor_speed motor ~closed_loop_tau:0.003 () in
  {
    motor;
    gains = Pid.gains ~kp ~ki ~u_min:(-.motor.Dc_motor.u_max)
        ~u_max:motor.Dc_motor.u_max ();
    period = 1e-3;
    t_end = 0.6;
    setpoint = 100.0;
    jitter_frac = 0.0;
    latency_frac = 0.0;
    seed = 11;
  }

type outcome = {
  trajectory : (float * float) list;
  iae : float;
  ise : float;
  diverged : bool;
  sustained_oscillation : bool;
  max_overshoot : float;
}

let splitmix state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let r = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_float (Int64.shift_right_logical r 11) /. 9007199254740992.0

(* The loop runs on a fine sub-grid (64 ticks per control period) so that
   jittered sampling instants and delayed actuations land between
   controller invocations, exactly as on a loaded CPU. *)
let run cfg =
  let sub = 64 in
  let h = cfg.period /. float_of_int sub in
  let pid = Pid.create ~ts:cfg.period cfg.gains in
  let rng = ref (Int64.of_int cfg.seed) in
  let n_periods = int_of_float (Float.ceil (cfg.t_end /. cfg.period)) in
  let latency_ticks =
    int_of_float (Float.round (cfg.latency_frac *. cfg.period /. h))
  in
  let motor = Dc_motor.stepper cfg.motor and x = Array.make 3 0.0 in
  let u = ref 0.0 in
  let traj = ref [] in
  let blown = ref false in
  (* absolute-tick queue so latencies may span several periods *)
  let pending = ref [] in
  for k = 0 to n_periods - 1 do
    let t_k = float_of_int k *. cfg.period in
    let jitter = cfg.jitter_frac *. cfg.period *. splitmix rng in
    let sample_tick = (k * sub) + int_of_float (Float.round (jitter /. h)) in
    for i = 0 to sub - 1 do
      let tick = (k * sub) + i in
      if tick = sample_tick && not !blown then begin
        let cmd = Pid.step pid ~sp:cfg.setpoint ~pv:x.(Dc_motor.x_w) in
        pending := !pending @ [ (tick + latency_ticks, cmd) ]
      end;
      let due, future = List.partition (fun (at, _) -> at <= tick) !pending in
      (match List.rev due with (_, cmd) :: _ -> u := cmd | [] -> ());
      pending := future;
      if not !blown then begin
        Dc_motor.advance motor ~u:!u ~tau_load:0.0 ~h x;
        let w = x.(Dc_motor.x_w) in
        if Float.abs w > 1e5 || Float.is_nan w then blown := true
      end
    done;
    traj := (t_k +. cfg.period, x.(Dc_motor.x_w)) :: !traj
  done;
  let trajectory = List.rev !traj in
  let sp _ = cfg.setpoint in
  let max_w = List.fold_left (fun a (_, w) -> Float.max a w) 0.0 trajectory in
  let tail =
    List.filter (fun (t, _) -> t > 0.8 *. cfg.t_end) trajectory |> List.map snd
  in
  let tail_p2p = Stats.jitter tail in
  {
    trajectory;
    iae = Metrics.iae ~sp trajectory;
    ise = Metrics.ise ~sp trajectory;
    diverged = !blown || Metrics.diverged trajectory;
    sustained_oscillation = tail_p2p > 0.5 *. Float.abs cfg.setpoint;
    max_overshoot = Float.max 0.0 ((max_w -. cfg.setpoint) /. cfg.setpoint);
  }

let degradation_sweep ?(config = default) ~jitter_fracs ~latency_fracs () =
  List.concat_map
    (fun j ->
      List.map
        (fun l ->
          (j, l, run { config with jitter_frac = j; latency_frac = l }))
        latency_fracs)
    jitter_fracs

let relative_cost ~baseline outcome =
  if outcome.diverged then infinity else outcome.iae /. baseline.iae

let unstable o = o.diverged || o.sustained_oscillation

(* Seeded fault injector. The randomness is a private SplitMix64 stream
   (same idiom as the PIL byte-fault model) advanced only when a random
   fault actually samples it, so runs with the same seed replay exactly. *)

let c_sensor = Obs.counter "fault.sensor_perturbations"
let c_actuator = Obs.counter "fault.actuator_perturbations"
let c_overrun = Obs.counter "fault.injected_overrun_periods"
let c_wdog = Obs.counter "fault.wdog_clears_suppressed"

type t = {
  scn : Fault_scenario.t;
  sd : int;
  rng : int64 ref;
  last : (int, int) Hashtbl.t;  (* slot -> last clean code, for stuck *)
  (* Active-set cache: the scenario-ordered sublist of faults whose
     window covers [cache_time], valid for every query time in
     [cache_time, cache_until). With one-shot faults (all the builtin
     scenarios) the cache survives whole quiescent or steady-active
     stretches; a periodic fault collapses [cache_until] to [cache_time],
     i.e. a per-instant memo — still one filter per step instead of one
     per port write, since the engine calls the hook with a constant
     time within a step. *)
  mutable cache_time : float;
  mutable cache_until : float;
  mutable cache_active : Fault.t list;
  (* this run's share of the four counters above *)
  mutable n_sensor : int;
  mutable n_actuator : int;
  mutable n_overrun : int;
  mutable n_wdog : int;
}

let arm ?(seed = 1) scn =
  if Flight.enabled () then
    Flight.fault ~time:0.0 ~fired:false
      (Printf.sprintf "arm %s seed=%d" scn.Fault_scenario.sname seed);
  {
    scn;
    sd = seed;
    rng = ref (Int64.of_int (0x5DEECE66D + (seed * 0x9E3779B9)));
    last = Hashtbl.create 4;
    cache_time = nan;  (* nan compares false to everything: first
                          query always recomputes *)
    cache_until = nan;
    cache_active = [];
    n_sensor = 0;
    n_actuator = 0;
    n_overrun = 0;
    n_wdog = 0;
  }

let scenario t = t.scn
let seed t = t.sd

(* Everything a run leaves in its injector but the RNG, which a stretch
   before any drawing fault turns on never advances. *)
type saved = {
  sv_last : (int * int) list;
  sv_cache_time : float;
  sv_cache_until : float;
  sv_cache_active : Fault.t list;
  sv_counts : int * int * int * int;  (* sensor, actuator, overrun, wdog *)
}

let save t =
  {
    sv_last = Hashtbl.fold (fun slot c acc -> (slot, c) :: acc) t.last [];
    sv_cache_time = t.cache_time;
    sv_cache_until = t.cache_until;
    sv_cache_active = t.cache_active;
    sv_counts = (t.n_sensor, t.n_actuator, t.n_overrun, t.n_wdog);
  }

let restore t sv =
  Hashtbl.reset t.last;
  List.iter (fun (slot, c) -> Hashtbl.replace t.last slot c) sv.sv_last;
  t.cache_time <- sv.sv_cache_time;
  t.cache_until <- sv.sv_cache_until;
  t.cache_active <- sv.sv_cache_active;
  let s, a, o, w = sv.sv_counts in
  t.n_sensor <- s;
  t.n_actuator <- a;
  t.n_overrun <- o;
  t.n_wdog <- w;
  Obs.add c_sensor s;
  Obs.add c_actuator a;
  Obs.add c_overrun o;
  Obs.add c_wdog w

let count_sensor t =
  t.n_sensor <- t.n_sensor + 1;
  Obs.add c_sensor 1

let count_actuator t =
  t.n_actuator <- t.n_actuator + 1;
  Obs.add c_actuator 1

let next t =
  t.rng := Int64.add !(t.rng) 0x9E3779B97F4A7C15L;
  let z = !(t.rng) in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* The kinds [sensor] applies by sampling the RNG — no wildcard, so a new
   kind has to be placed here. A run draws nothing before the first of
   these turns on. *)
let draws : Fault.kind -> bool = function
  | Fault.Sensor_noise _ | Fault.Encoder_glitch _ -> true
  | Fault.Sensor_stuck | Fault.Sensor_offset _ | Fault.Sensor_dropout
  | Fault.Actuator_saturation _ | Fault.Actuator_jam _ | Fault.Load_torque _
  | Fault.Overrun _ | Fault.Wdog_suppress | Fault.Comm _ ->
      false

let uniform01 t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0

(* uniform integer in [-n, n] *)
let rand_pm t n =
  if n <= 0 then 0
  else int_of_float (uniform01 t *. float_of_int ((2 * n) + 1)) - n

(* [List.filter] preserves scenario order, so folding the cached
   sublist applies faults — and advances the RNG — in exactly the same
   sequence as filtering inline did: seeded replays are unaffected. *)
let refresh t ~time =
  if not (time = t.cache_time || (time > t.cache_time && time < t.cache_until))
  then begin
    let faults = t.scn.Fault_scenario.faults in
    let prev = t.cache_active in
    t.cache_active <- List.filter (fun fl -> Fault.active fl ~time) faults;
    t.cache_time <- time;
    t.cache_until <-
      List.fold_left
        (fun acc fl -> Float.min acc (Fault.next_transition fl ~time))
        infinity faults;
    (* fire/clear transitions are exactly the active-set edges; rare, so
       the recorder work (and Fault.name's allocation) stays off the
       steady-state path *)
    if Flight.enabled () && t.cache_active != prev then begin
      List.iter
        (fun fl ->
          if not (List.memq fl prev) then
            Flight.fault ~time ~fired:true (Fault.name fl))
        t.cache_active;
      List.iter
        (fun fl ->
          if not (List.memq fl t.cache_active) then
            Flight.fault ~time ~fired:false (Fault.name fl))
        prev
    end
  end

let quiescent t ~time =
  refresh t ~time;
  t.cache_active = []

let fold_active t ~time f init =
  refresh t ~time;
  List.fold_left f init t.cache_active

let sensor t ~slot ~time v =
  let stuck = ref false in
  let out =
    fold_active t ~time
      (fun v fl ->
        if fl.Fault.slot <> slot then v
        else
          match fl.Fault.kind with
          | Fault.Sensor_stuck ->
              stuck := true;
              count_sensor t;
              (match Hashtbl.find_opt t.last slot with Some p -> p | None -> v)
          | Fault.Sensor_dropout ->
              count_sensor t;
              0
          | Fault.Sensor_offset d ->
              count_sensor t;
              v + d
          | Fault.Sensor_noise a ->
              count_sensor t;
              v + rand_pm t a
          | Fault.Encoder_glitch a ->
              if uniform01 t < 0.2 then begin
                count_sensor t;
                v + rand_pm t a
              end
              else v
          | _ -> v)
      v
  in
  if not !stuck then Hashtbl.replace t.last slot out;
  out

let duty t ~time u =
  fold_active t ~time
    (fun u fl ->
      match fl.Fault.kind with
      | Fault.Actuator_jam x ->
          count_actuator t;
          x
      | Fault.Actuator_saturation c ->
          let clamped = if u > c then c else if u < -.c then -.c else u in
          if clamped <> u then count_actuator t;
          clamped
      | _ -> u)
    u

let load_torque t ~time =
  fold_active t ~time
    (fun acc fl ->
      match fl.Fault.kind with Fault.Load_torque x -> acc +. x | _ -> acc)
    0.0

let overrun_of faults =
  List.fold_left
    (fun acc fl -> match fl.Fault.kind with Fault.Overrun c -> acc + c | _ -> acc)
    0 faults

let suppressed_of faults =
  List.exists
    (fun fl -> match fl.Fault.kind with Fault.Wdog_suppress -> true | _ -> false)
    faults

let overrun_cycles t ~time =
  refresh t ~time;
  let n = overrun_of t.cache_active in
  if n > 0 then begin
    t.n_overrun <- t.n_overrun + 1;
    Obs.add c_overrun 1
  end;
  n

let wdog_suppressed t ~time =
  refresh t ~time;
  let s = suppressed_of t.cache_active in
  if s then begin
    t.n_wdog <- t.n_wdog + 1;
    Obs.add c_wdog 1
  end;
  s

(* straight from the windows: the cache refresh would record fire/clear
   edges the restored stretch already holds *)
let replay_timing t ~time =
  let active =
    List.filter (fun fl -> Fault.active fl ~time) t.scn.Fault_scenario.faults
  in
  (overrun_of active, suppressed_of active)

let comm_config t =
  List.find_map
    (fun fl ->
      match fl.Fault.kind with Fault.Comm c -> Some c | _ -> None)
    t.scn.Fault_scenario.faults

let active_names t ~time = Fault_scenario.active_names t.scn ~time

let sim_hook t ~sensor_ports ?duty_port () =
  if t.scn.Fault_scenario.faults = [] then []
  else begin
    (* Sensor_stuck freezes at the last value [sensor] returned while
       the fault was inactive, so slots carrying a stuck fault must keep
       flowing through [sensor] even in quiescent stretches to refresh
       [t.last]. Scenarios without stuck faults take the cheap exit: one
       cached-window check per write. *)
    let track_stuck =
      List.exists
        (fun fl -> fl.Fault.kind = Fault.Sensor_stuck)
        t.scn.Fault_scenario.faults
    in
    let sensor_hook slot ~time v =
      if (not track_stuck) && quiescent t ~time then v
      else
        match v with
        | Value.I (dt, c) -> Value.of_int dt (sensor t ~slot ~time c)
        | v -> v
    in
    let duty_hook ~time v =
      if quiescent t ~time then v
      else match v with Value.F u -> Value.F (duty t ~time u) | v -> v
    in
    let sensors =
      Array.to_list (Array.mapi (fun slot bp -> (bp, sensor_hook slot)) sensor_ports)
    in
    match duty_port with
    | Some bp -> sensors @ [ (bp, duty_hook) ]
    | None -> sensors
  end

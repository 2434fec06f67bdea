(* MIL <-> SIL differential execution.

   Runs the same compiled diagram through the simulation engine and
   through the generated application in lock-step, feeding
   both the identical sensor stimulus each control period, and reports
   the first step/signal where they disagree. This is the back-to-back
   model-versus-code check the paper's MIL->PIL chain implies but never
   mechanises: every block output of every step is compared, so a
   codegen bug surfaces with the block name and both values in hand. *)

type float_mode =
  | Exact  (** IEEE equality; +0/-0 identified, NaN equal to NaN *)
  | Ulp of int  (** tolerate a few representable values of drift *)

type engine =
  | Interp  (** the reference engine, {!Mir_eval} on the lifted MIR *)
  | Compiled  (** closure-compiled execution (the default) *)
  | Both
      (** tri-lockstep: MIL vs compiled, plus a shadow reference engine
          the compiled engine must match bit-for-bit *)

type divergence = {
  d_step : int;
  d_time : float;
  d_block : string;
  d_port : int;
  d_mil : string;
  d_sil : string;
  d_faults : string list;
}

type report = {
  steps_run : int;  (** lock-steps completed without divergence *)
  steps_requested : int;
  signals : int;  (** block output signals compared per step *)
  divergence : divergence option;
  mil_seconds : float;
  sil_seconds : float;
}

(* a plant plus its PIL driver, packaged so heterogeneous plants fit
   one argument *)
type plant = Plant : 'p * 'p Pil_cosim.plant_driver -> plant

(* fault perturbation applied to the sensor codes BOTH sides consume,
   plus the fault names active at a time (for the divergence report) *)
type injector = {
  inj_sensors : step:int -> time:float -> int array -> int array;
  inj_active : time:float -> string list;
}

let ulp_key x =
  let b = Int64.bits_of_float x in
  if Int64.compare b 0L < 0 then Int64.sub Int64.min_int b else b

let ulp_dist a b =
  let d = Int64.sub (ulp_key a) (ulp_key b) in
  Int64.abs d

(* the float policy, resolved once per run *)
let floats_agree = function
  | Exact -> fun a b -> (Float.is_nan a && Float.is_nan b) || a = b
  | Ulp n ->
      let n = Int64.of_int n in
      fun a b -> (Float.is_nan a && Float.is_nan b) || a = b || ulp_dist a b <= n

let values_agree mode mil sil =
  match mil with
  | Value.B b -> Mir_eval.is_truthy sil = b
  | Value.I (_, i) -> Mir_eval.to_int64 sil = Int64.of_int i
  | Value.X _ -> Mir_eval.to_int64 sil = Int64.of_int (Value.to_int mil)
  | Value.F x -> floats_agree mode x (Mir_eval.to_double sil)

(* [values_agree mode mil (probe_value probe)] specialised to the
   probe's static type: the common pairings (an integer, boolean or
   fixed-point MIL value against an integer cell, a double against a
   float cell) compare unboxed; the rest box and take the general
   path. Compiled integer cells are at most 32 bits wide, so their
   canonical value is also their int64 and double reading. *)
let agree mode (probe : Silvm_app.probe) : Value.t -> bool =
  let feq = floats_agree mode in
  match probe with
  | Silvm_app.Compiled_probe (Silvm_compile.TI (_, get), st) -> (
      fun mil ->
        let n = get st in
        match mil with
        | Value.I (_, i) -> n = i
        | Value.B b -> (n <> 0) = b
        | Value.X fx -> n = Fixed.raw fx
        | Value.F x -> feq x (float_of_int n))
  | Silvm_app.Compiled_probe (Silvm_compile.TF (fty, get), st) -> (
      fun mil ->
        match mil with
        | Value.F x -> feq x (get st)
        | mil -> values_agree mode mil (Mir_eval.Vf (fty, get st)))
  | Silvm_app.Reference_probe _ ->
      fun mil -> values_agree mode mil (Silvm_app.probe_value probe)

let mil_to_string = function
  | Value.F x -> Printf.sprintf "%.17g" x
  | Value.I (dt, i) -> Printf.sprintf "%d:%s" i (Dtype.to_string dt)
  | Value.B b -> string_of_bool b
  | Value.X f -> Printf.sprintf "fix:%d" (Fixed.raw f)

(* every block output signal present in the generated block-I/O
   structure: the periodic population plus the function-call groups *)
let compared_signals comp =
  let m = comp.Compile.model in
  let blocks =
    Array.to_list comp.Compile.order
    @ List.concat_map
        (fun (_, arr) -> Array.to_list arr)
        comp.Compile.group_order
  in
  List.concat_map
    (fun b ->
      let spec = Model.spec_of m b in
      List.init spec.Block.n_out (fun p -> (b, p)))
    blocks

(* feed one step's raw sensor codes to both sides; the MIL port each
   slot overrides and the code's conversion are resolved once *)
let injector_for sim apps schedule =
  let m = (Sim.compiled sim).Compile.model in
  let plan =
    List.map
      (fun (b, slot) ->
        ( (b, 0),
          slot,
          match (Model.spec_of m b).Block.kind with
          | "PE_Adc" | "AR_Adc" -> Value.of_int Dtype.Uint16
          | "PE_QuadDec" | "AR_Icu" -> Value.of_int Dtype.Int32
          | "PE_BitIO_In" | "AR_Dio_In" -> fun v -> Value.of_bool (v <> 0)
          | k ->
              fun _ -> failwith ("Silvm_diff: unexpected sensor block kind " ^ k)
        ))
      schedule.Target.sensor_slots
  in
  fun sensors ->
    List.iter
      (fun (port, slot, conv) ->
        let v = sensors.(slot) in
        Sim.override_output sim port (Some (conv v));
        List.iter (fun app -> Silvm_app.set_sensor app slot v) apps)
      plan

(* bit-for-bit equality between the two SIL engines: same type, same
   canonical integer, same float bits ([compare] would identify -0.
   with 0. and separate NaN from NaN — exactly the wrong laws here) *)
let sil_bits_equal a b =
  match (a, b) with
  | Mir_eval.Vi (ta, va), Mir_eval.Vi (tb, vb) -> ta = tb && Int64.equal va vb
  | Mir_eval.Vf (_, xa), Mir_eval.Vf (_, xb) ->
      Int64.equal (Int64.bits_of_float xa) (Int64.bits_of_float xb)
  | _ -> false

exception Stop of divergence

(* CI drill: ECSD_DIVERGE_AT=<k> fabricates a divergence at lock-step k,
   exercising the whole forensics path (flight-recorder capture, bundle
   write, nonzero exit) on a model that genuinely agrees *)
let forced_divergence_at () =
  match Sys.getenv_opt "ECSD_DIVERGE_AT" with
  | Some s -> int_of_string_opt s
  | None -> None

let run ?(steps = 1000) ?(float_mode = Exact) ?(opt = false) ?(engine = Compiled)
    ?plant ?stimulus ?injector ~name ~project comp =
  Flight.span "silvm.diff" @@ fun () ->
  let sim = Sim.create comp in
  let app =
    let e = match engine with Interp -> `Interp | Compiled | Both -> `Compiled in
    Silvm_app.create ~opt ~engine:e ~name ~project comp
  in
  (* [Both] runs a shadow reference engine in tri-lockstep; any
     compiled value that is not bit-identical to the reference's is
     reported as a divergence, even where MIL agrees with both *)
  let shadow =
    match engine with
    | Both -> Some (Silvm_app.create ~opt ~engine:`Interp ~name ~project comp)
    | Interp | Compiled -> None
  in
  Silvm_app.initialize app;
  Option.iter Silvm_app.initialize shadow;
  let sched = Silvm_app.schedule app in
  let inject = injector_for sim (app :: Option.to_list shadow) sched in
  (* every compared block output, resolved before the loop: its SIL
     probe, its comparator and the shadow engine's probe *)
  let signals =
    compared_signals comp
    |> List.map (fun bp ->
           let probe = Silvm_app.probe app bp in
           let shadow_probe =
             Option.map (fun sh -> Silvm_app.probe sh bp) shadow
           in
           (bp, probe, agree float_mode probe, shadow_probe))
    |> Array.of_list
  in
  let acts = Array.make (List.length sched.Target.actuator_slots) 0 in
  let m = comp.Compile.model in
  let base = comp.Compile.base_dt in
  let mil_ns = ref 0.0 and sil_ns = ref 0.0 in
  let steps_done = ref 0 in
  let force_at = forced_divergence_at () in
  (* one recorder fetch for the whole run, not one per sensor event *)
  let fr = if Flight.enabled () then Some (Flight.recorder ()) else None in
  let perturb k time s =
    let s =
      match injector with Some i -> i.inj_sensors ~step:k ~time s | None -> s
    in
    (match fr with
    | Some r ->
        Array.iteri
          (fun slot v ->
            Flight.signal_r r ~step:k ~time ~port:slot ~value:(float_of_int v)
              "sensor")
          s
    | None -> ());
    s
  in
  let diverged k time d_block d_port d_mil d_sil =
    let d_faults =
      match injector with Some i -> i.inj_active ~time | None -> []
    in
    Stop { d_step = k; d_time = time; d_block; d_port; d_mil; d_sil; d_faults }
  in
  let mismatch k time (b, p) = diverged k time (Model.block_name m b) p in
  let result =
    try
      for k = 0 to steps - 1 do
        let time = float_of_int k *. base in
        (match plant, stimulus with
        | Some (Plant (p, d)), _ ->
            inject (perturb k time (d.Pil_cosim.read_sensors p ~time))
        | None, Some f -> inject (perturb k time (f k))
        | None, None -> ());
        let t0 = Obs.now_ns () in
        Sim.step sim;
        let t1 = Obs.now_ns () in
        Silvm_app.step app;
        let t2 = Obs.now_ns () in
        mil_ns := !mil_ns +. (t1 -. t0);
        sil_ns := !sil_ns +. (t2 -. t1);
        Option.iter Silvm_app.step shadow;
        (match force_at with
        | Some k' when k = k' ->
            raise (diverged k time "__forced" 0 "forced" "forced")
        | _ -> ());
        for i = 0 to Array.length signals - 1 do
          let port, probe, agree, shadow = Array.unsafe_get signals i in
          let mil = Sim.value sim port in
          if not (agree mil) then
            raise
              (mismatch k time port (mil_to_string mil)
                 (Mir_eval.to_string (Silvm_app.probe_value probe)));
          match shadow with
          | None -> ()
          | Some sh ->
              let sil = Silvm_app.probe_value probe
              and isil = Silvm_app.probe_value sh in
              if not (sil_bits_equal sil isil) then
                raise
                  (mismatch k time port
                     ("interp:" ^ Mir_eval.to_string isil)
                     (Mir_eval.to_string sil))
        done;
        incr steps_done;
        match plant with
        | Some (Plant (p, d)) ->
            for slot = 0 to Array.length acts - 1 do
              acts.(slot) <- Silvm_app.actuator app slot
            done;
            d.Pil_cosim.apply_actuators p acts;
            d.Pil_cosim.advance p ~dt:base
        | None -> ()
      done;
      None
    with Stop d ->
      (* forensic moment: record the mismatch itself, then freeze the
         window of this track's events that led to it *)
      if Flight.enabled () then begin
        Flight.mark ~step:d.d_step ~time:d.d_time
          (Printf.sprintf "divergence %s[%d] mil=%s sil=%s" d.d_block d.d_port
             d.d_mil d.d_sil);
        Flight.capture
          ~reason:
            (Printf.sprintf "diff divergence at step %d on %s port %d"
               d.d_step d.d_block d.d_port)
      end;
      Some d
  in
  {
    steps_run = !steps_done;
    steps_requested = steps;
    signals = Array.length signals;
    divergence = result;
    mil_seconds = !mil_ns *. 1e-9;
    sil_seconds = !sil_ns *. 1e-9;
  }

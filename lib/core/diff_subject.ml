(* The MIL <-> SIL differential subject of a named model (see the
   interface). *)

type error = Unknown_model of string
type t = { name : string; run : int -> Silvm_diff.report }

let injector scenario ~seed =
  let inj = Fault_inject.arm ~seed scenario in
  {
    Silvm_diff.inj_sensors =
      (fun ~step:_ ~time codes ->
        Array.mapi
          (fun slot v -> Fault_inject.sensor inj ~slot ~time v land 0xFFFF)
          codes);
    inj_active = (fun ~time -> Fault_inject.active_names inj ~time);
  }

let make ~config ?(steps = 1000) ?(float_mode = Silvm_diff.Exact)
    ?(opt = false) ?(engine = Silvm_diff.Compiled) ?scenario model =
  if steps < 0 then
    Seed_sweep.bad_request "step count must be >= 0, got %d" steps;
  let subject name ?plant ?stimulus ~project comp =
    let run seed =
      let injector = Option.map (injector ~seed) scenario in
      Silvm_diff.run ~steps ~float_mode ~opt ~engine
        ?plant:(Option.map (fun plant -> plant ()) plant)
        ?stimulus ?injector ~name ~project comp
    in
    Ok { name; run }
  in
  match model with
  | "servo" ->
      let config =
        if scenario = None then config
        else { config with Servo_system.with_supervisor = true }
      in
      let built = Servo_system.build ~config () in
      (* a fresh plant per run: its motor state is mutable *)
      subject "servo"
        ~plant:(fun () ->
          Silvm_diff.Plant
            (Servo_system.pil_plant built, Servo_system.pil_driver built))
        ~project:built.Servo_system.project
        (Compile.compile built.Servo_system.controller)
  | "isr-demo" ->
      let m, project = Check.hazard_demo ~mcu:config.Servo_system.mcu () in
      subject "isr_demo" ~stimulus:(fun k -> [| k * 37 mod 4096 |]) ~project
        (Compile.compile m)
  | other -> Error (Unknown_model other)

let name t = t.name
let run ?(seed = 1) t = t.run seed

let engines =
  [ ("compiled", Silvm_diff.Compiled); ("interp", Silvm_diff.Interp);
    ("both", Silvm_diff.Both) ]

let engine_name e = fst (List.find (fun (_, e') -> e' = e) engines)

let divergence_json (d : Silvm_diff.divergence option) =
  let open Bench_json in
  match d with
  | None -> Null
  | Some d ->
      Obj
        [
          ("step", Int d.Silvm_diff.d_step);
          ("time", Float d.Silvm_diff.d_time);
          ("block", Str d.Silvm_diff.d_block);
          ("port", Int d.Silvm_diff.d_port);
          ("mil", Str d.Silvm_diff.d_mil);
          ("sil", Str d.Silvm_diff.d_sil);
          ( "active_faults",
            Arr (List.map (fun f -> Str f) d.Silvm_diff.d_faults) );
        ]

open C_ast

type report = {
  n_blocks : int;
  app_loc : int;
  hal_loc : int;
  state_bytes : int;
  signal_bytes : int;
  est_flash_bytes : int;
  est_ram_bytes : int;
  step_cycles : int;
  step_time : float;
  group_cycles : (string * int) list;
  stack_bytes : int;
  warnings : string list;
}

type schedule = {
  base_period : float;
  periodic_cycles : (Model.blk * int) list;
  group_cycle_map : (Model.group * int) list;
  sensor_slots : (Model.blk * int) list;
  actuator_slots : (Model.blk * int) list;
  timer_bean : string option;
  total_step_cycles : int;
  isr_stack_bytes : int;
}

type artifacts = {
  model_h : C_ast.cunit;
  model_c : C_ast.cunit;
  main_c : C_ast.cunit;
  hal : C_ast.cunit list;
  makefile : string;
  report : report;
  schedule : schedule;
}

exception Codegen_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Codegen_error s)) fmt

let cty_bytes = function
  | Double_t -> 8
  | Float_t | I32 | U32 -> 4
  | I16 | U16 -> 2
  | I8 | U8 -> 1
  | Arr (t, n) -> (
      n * (match t with Double_t -> 8 | I32 | U32 | Float_t -> 4 | I16 | U16 -> 2 | _ -> 1))
  | _ -> 4

(* Saturating fixed-point helpers shared by FixPid code. *)
let fix_helpers =
  [
    Func_def
      (func ~static:true ~comment:"saturate a 32-bit value into int16 range" I16
         "pe_sat16"
         [ (I32, "x") ]
         [
           (* single exit point (MISRA): saturate with nested ternaries *)
           Return
             (Some
                (Cast_to
                   ( I16,
                     Ternary
                       ( Bin (">", Var "x", Int_lit 32767),
                         Int_lit 32767,
                         Ternary
                           ( Bin ("<", Var "x", Int_lit (-32768)),
                             Int_lit (-32768),
                             Var "x" ) ) )));
         ]);
    Func_def
      (func ~static:true ~comment:"saturating 32-bit addition" I32 "pe_sat_add32"
         [ (I32, "a"); (I32, "b") ]
         [
           Decl (Named "int64_t", "s", Some (Bin ("+", Cast_to (Named "int64_t", Var "a"), Var "b")));
           Return
             (Some
                (Cast_to
                   ( I32,
                     Ternary
                       ( Bin (">", Var "s", Var "INT32_MAX"),
                         Var "INT32_MAX",
                         Ternary
                           ( Bin ("<", Var "s", Var "INT32_MIN"),
                             Var "INT32_MIN",
                             Var "s" ) ) )));
         ]);
    Func_def
      (func ~static:true
         ~comment:"fractional multiply: (a*b) >> shift, rounded to nearest" I32
         "pe_mul_shift"
         [ (I32, "a"); (I32, "b"); (I32, "shift") ]
         [
           Decl
             ( Named "int64_t", "p",
               Some (Bin ("*", Cast_to (Named "int64_t", Var "a"), Var "b")) );
           Assign
             ( Var "p",
               Bin ("+", Var "p", Bin ("<<", Cast_to (Named "int64_t", Int_lit 1),
                                       Bin ("-", Var "shift", Int_lit 1))) );
           Return (Some (Cast_to (I32, Bin (">>", Var "p", Var "shift"))));
         ]);
  ]

let is_sensor_kind = function
  | "PE_Adc" | "PE_QuadDec" | "PE_BitIO_In" | "AR_Adc" | "AR_Icu" | "AR_Dio_In" ->
      true
  | _ -> false

let is_actuator_kind = function
  | "PE_Pwm" | "PE_BitIO_Out" | "PE_Dac" | "AR_Pwm" | "AR_Dio_Out" -> true
  | _ -> false

let is_autosar_kind kind =
  String.length kind >= 3 && String.sub kind 0 3 = "AR_"

(* ISR entry point a bean event maps to: PE events are
   <bean>_<EventName>; the AUTOSAR variant uses driver notifications. *)
let event_handler_name ~kind ~bean ~event =
  if is_autosar_kind kind then
    match kind with
    | "AR_TimerInt" -> "Gpt_Notification_" ^ bean
    | "AR_Adc" -> "Adc_Notification_" ^ bean
    | _ -> bean ^ "_" ^ event
  else bean ^ "_" ^ event

(* codegen metrics: volume of generated output, across all targets *)
let c_blocks_generated = Obs.counter "peert.blocks_generated"
let c_lines_emitted = Obs.counter "peert.lines_emitted"
let c_generations = Obs.counter "peert.generations"

let generate ?(mode = Blockgen.Hw) ?(opt = false) ~name ~project comp =
  Flight.span "peert.generate" @@ fun () ->
  let m = comp.Compile.model in
  let mcu = Bean_project.mcu project in
  (match Bean_project.verify project with
  | Ok () -> ()
  | Error msgs ->
      err "bean project does not verify:\n%s" (String.concat "\n" msgs));
  let all_blocks = Model.blocks m in
  List.iter
    (fun b ->
      let spec = Model.spec_of m b in
      if not (Blockgen.supported spec) then
        err
          "block %s (%s) has no embedded realisation; generate code from the \
           controller subsystem only"
          (Model.block_name m b) spec.Block.kind)
    all_blocks;
  let bname b = Blockgen.sanitize (Model.block_name m b) in
  let b_struct = name ^ "_B" and dw_struct = name ^ "_DW" in
  let u_struct = name ^ "_U" and y_struct = name ^ "_Y" in
  let sig_field b p = Printf.sprintf "%s_o%d" (bname b) p in
  let sig_expr (b, p) = Field (Var b_struct, sig_field b p) in
  (* PIL buffer slots, in model order *)
  let sensor_slots = ref [] and actuator_slots = ref [] in
  List.iter
    (fun b ->
      let spec = Model.spec_of m b in
      if is_sensor_kind spec.Block.kind then
        sensor_slots := (b, List.length !sensor_slots) :: !sensor_slots
      else if is_actuator_kind spec.Block.kind then
        actuator_slots := (b, List.length !actuator_slots) :: !actuator_slots)
    all_blocks;
  let sensor_slots = List.rev !sensor_slots in
  let actuator_slots = List.rev !actuator_slots in
  (* per-block emission *)
  let srcs = Compile.signal_sources comp in
  let b_fields = ref [] and dw_fields = ref [] in
  let init_stmts = ref [] and const_stmts = ref [] in
  let needs_time = ref false in
  let gens = Hashtbl.create 32 in
  List.iter
    (fun b ->
      let spec = Model.spec_of m b in
      let bi = Model.blk_index b in
      let out_dtypes = Array.to_list comp.Compile.out_types.(bi) in
      let out_tys = List.map cty_of_dtype out_dtypes in
      List.iteri
        (fun p ty -> b_fields := (ty, sig_field b p) :: !b_fields)
        out_tys;
      let ins = Array.to_list (Array.map sig_expr srcs.(bi)) in
      let outs = List.init spec.Block.n_out (fun p -> sig_expr (b, p)) in
      let dt =
        match comp.Compile.sample.(bi) with
        | Sample_time.R_discrete { period; _ } -> period
        | _ -> comp.Compile.base_dt
      in
      let gctx =
        {
          Blockgen.mode;
          name = bname b;
          ins;
          outs;
          out_tys;
          out_dtypes;
          dt;
          state = (fun f -> Field (Var dw_struct, bname b ^ "_" ^ f));
          ext_in = (fun i -> Field (Var u_struct, Printf.sprintf "in%d" i));
          ext_out = (fun i -> Field (Var y_struct, Printf.sprintf "out%d" i));
          pil_slot =
            (match List.assoc_opt b sensor_slots with
            | Some s -> Some s
            | None -> List.assoc_opt b actuator_slots);
        }
      in
      let gen =
        try Blockgen.emit gctx spec
        with Blockgen.Unsupported msg -> err "%s: %s" (Model.block_name m b) msg
      in
      List.iter
        (fun (ty, f) -> dw_fields := (ty, bname b ^ "_" ^ f) :: !dw_fields)
        gen.Blockgen.state_fields;
      init_stmts := !init_stmts @ gen.Blockgen.init;
      if comp.Compile.sample.(bi) = Sample_time.R_const then
        const_stmts := !const_stmts @ gen.Blockgen.step @ gen.Blockgen.update;
      if gen.Blockgen.needs_time then needs_time := true;
      Hashtbl.replace gens bi gen)
    all_blocks;
  let gen_of b = Hashtbl.find gens (Model.blk_index b) in
  (* rates *)
  let base = comp.Compile.base_dt in
  let divisor_of period = int_of_float (Float.round (period /. base)) in
  let rates =
    Array.to_list comp.Compile.order
    |> List.filter_map (fun b ->
           match comp.Compile.sample.(Model.blk_index b) with
           | Sample_time.R_discrete { period; _ } -> Some (divisor_of period)
           | Sample_time.R_continuous ->
               err "continuous block %s in generated model" (Model.block_name m b)
           | _ -> None)
    |> List.sort_uniq Stdlib.compare
  in
  let blocks_at_rate d =
    Array.to_list comp.Compile.order
    |> List.filter (fun b ->
           match comp.Compile.sample.(Model.blk_index b) with
           | Sample_time.R_discrete { period; _ } -> divisor_of period = d
           | _ -> false)
  in
  let rate_section d =
    let bs = blocks_at_rate d in
    let steps = List.concat_map (fun b -> (gen_of b).Blockgen.step) bs in
    let updates = List.concat_map (fun b -> (gen_of b).Blockgen.update) bs in
    let body =
      (Comment (Printf.sprintf "rate %g s (base x%d)" (float_of_int d *. base) d)
       :: steps)
      @ updates
    in
    if d = 1 then body
    else
      [
        If
          ( Bin ("==", Bin ("%", Var (name ^ "_tick"), Int_lit d), Int_lit 0),
            body, [] );
      ]
  in
  let step_body =
    List.concat_map rate_section rates
    @ [ Expr (Un ("++", Var (name ^ "_tick"))) ]
    @ (if !needs_time then
         [ Assign (Var "model_time", Bin ("+", Var "model_time", flt base)) ]
       else [])
  in
  (* function-call groups *)
  let group_fn g = Printf.sprintf "%s_%s" name (Blockgen.sanitize (Model.group_name m g)) in
  let group_defs =
    List.map
      (fun (g, order) ->
        let steps = List.concat_map (fun b -> (gen_of b).Blockgen.step) (Array.to_list order) in
        let updates =
          List.concat_map (fun b -> (gen_of b).Blockgen.update) (Array.to_list order)
        in
        Func_def
          (func
             ~comment:
               (Printf.sprintf "function-call subsystem %s (executed in its \
                                triggering event's ISR)"
                  (Model.group_name m g))
             Void (group_fn g) [] (steps @ updates)))
      comp.Compile.group_order
  in
  (* external I/O structs *)
  let ext_in_fields =
    List.filter_map
      (fun b ->
        let spec = Model.spec_of m b in
        if spec.Block.kind = "Inport" then
          Some
            ( cty_of_dtype comp.Compile.out_types.(Model.blk_index b).(0),
              Printf.sprintf "in%d" (Param.int spec.Block.params "index") )
        else None)
      all_blocks
  in
  let ext_out_fields =
    List.filter_map
      (fun b ->
        let spec = Model.spec_of m b in
        if spec.Block.kind = "Outport" then
          Some
            ( cty_of_dtype comp.Compile.in_types.(Model.blk_index b).(0),
              Printf.sprintf "out%d" (Param.int spec.Block.params "index") )
        else None)
      all_blocks
  in
  let maybe_struct nm fields =
    if fields = [] then [] else [ Struct_def (nm ^ "_t", fields) ]
  in
  let maybe_global nm =
    if nm = [] then [] else nm
  in
  let model_h =
    {
      unit_name = name ^ ".h";
      items =
        [
          Include "stdint.h";
          Include "math.h";
          Item_comment "Block I/O (signals), states (DWork), external inputs/outputs";
          Struct_def (b_struct ^ "_t", List.rev !b_fields);
          Struct_def (dw_struct ^ "_t", List.rev !dw_fields);
        ]
        @ maybe_struct u_struct ext_in_fields
        @ maybe_struct y_struct ext_out_fields
        @ [
            Proto (func Void (name ^ "_initialize") [] []);
            Proto (func Void (name ^ "_step") [] []);
          ]
        @ List.map
            (fun (g, _) -> Proto (func Void (group_fn g) [] []))
            comp.Compile.group_order;
    }
  in
  let uses_autosar =
    List.exists (fun b -> is_autosar_kind (Model.spec_of m b).Block.kind) all_blocks
  in
  (* PIL mode exchanges peripheral data through these buffers *)
  let pil_buffer_items =
    [
      Global
        { gty = Arr (U16, Stdlib.max 1 (List.length sensor_slots));
          gname = "pil_sensor_buf"; ginit = None; volatile = true; static = false };
      Global
        { gty = Arr (U16, Stdlib.max 1 (List.length actuator_slots));
          gname = "pil_actuator_buf"; ginit = None; volatile = true;
          static = false };
    ]
  in
  (* bean method prototypes used by the generated code *)
  let bean_proto_items =
    if uses_autosar then
      Include_local "Mcal.h"
      :: (if mode = Blockgen.Pil then pil_buffer_items else [])
    else if mode = Blockgen.Hw then
      [
        Raw_item
          (String.concat "\n"
             ("/* bean method interface (implemented by the generated HAL) */"
             :: List.concat_map
                  (fun b ->
                    List.map
                      (fun (_, proto) -> "extern " ^ proto ^ ";")
                      (Bean.methods b))
                  (Bean_project.beans project)));
      ]
    else pil_buffer_items
  in
  let model_c =
    {
      unit_name = name ^ ".c";
      items =
        (Include_local (name ^ ".h")
         ::
         (* the PE variant's method interface lives in PE_Types.h; the
            AUTOSAR variant brings its own Std_Types through Mcal.h *)
         (if uses_autosar then [] else [ Include_local "PE_Types.h" ]))
        @ bean_proto_items
        @ [
            Global
              { gty = Named (b_struct ^ "_t"); gname = b_struct; ginit = None;
                volatile = false; static = false };
            Global
              { gty = Named (dw_struct ^ "_t"); gname = dw_struct; ginit = None;
                volatile = false; static = false };
          ]
        @ maybe_global
            (if ext_in_fields <> [] then
               [ Global { gty = Named (u_struct ^ "_t"); gname = u_struct;
                          ginit = None; volatile = true; static = false } ]
             else [])
        @ maybe_global
            (if ext_out_fields <> [] then
               [ Global { gty = Named (y_struct ^ "_t"); gname = y_struct;
                          ginit = None; volatile = true; static = false } ]
             else [])
        @ [
            Global { gty = U32; gname = name ^ "_tick"; ginit = Some (Int_lit 0);
                     volatile = false; static = true };
          ]
        @ (if !needs_time then
             [ Global { gty = Double_t; gname = "model_time";
                        ginit = Some (flt 0.0); volatile = false; static = true } ]
           else [])
        @ fix_helpers
        @ Blockgen.used_cast_helpers
            (!init_stmts @ !const_stmts @ step_body
            @ List.concat_map
                (fun (_, order) ->
                  List.concat_map
                    (fun b ->
                      (gen_of b).Blockgen.step @ (gen_of b).Blockgen.update)
                    (Array.to_list order))
                comp.Compile.group_order)
        @ [
            Func_def
              (func ~comment:"model initialisation: states and constant blocks"
                 Void (name ^ "_initialize") []
                 (!init_stmts @ !const_stmts
                 @ [ Assign (Var (name ^ "_tick"), Int_lit 0) ]
                 @ if !needs_time then [ Assign (Var "model_time", flt 0.0) ] else []));
            Func_def
              (func
                 ~comment:
                   "one base-rate step; executed non-preemptively in the timer \
                    interrupt"
                 Void (name ^ "_step") [] step_body);
          ]
        @ group_defs;
    }
  in
  (* route the unit through the MIR pipeline: lift -> (verify +
     optimise when [opt]) -> lower. Without [opt] this is the exact
     identity on the unit, so golden traces and findings are stable. *)
  let model_c = Mir_unit.process ~opt ~header:model_h.items model_c in
  (* event wiring: bean events -> ISR bodies *)
  let event_handlers =
    List.concat_map
      (fun b ->
        let spec = Model.spec_of m b in
        Array.to_list spec.Block.event_outs
        |> List.mapi (fun i ev -> (b, i, ev))
        |> List.filter_map (fun (b, i, ev) ->
               match Model.event_target m (b, i) with
               | Some g ->
                   let bean = Param.string spec.Block.params "bean" in
                   Some
                     (Func_def
                        (func
                           ~comment:
                             (Printf.sprintf
                                "bean event ISR: %s triggers function-call group %s"
                                ev (Model.group_name m g))
                           Void
                           (event_handler_name ~kind:spec.Block.kind ~bean ~event:ev)
                           []
                           [ Expr (call (group_fn g) []) ]))
               | None -> None))
      all_blocks
  in
  let timer_bean_kinded =
    List.find_map
      (fun b ->
        let spec = Model.spec_of m b in
        if
          (spec.Block.kind = "PE_TimerInt" || spec.Block.kind = "AR_TimerInt")
          && Model.event_target m (b, 0) = None
        then Some (spec.Block.kind, Param.string spec.Block.params "bean")
        else None)
      all_blocks
  in
  let timer_bean = Option.map snd timer_bean_kinded in
  let timer_isr =
    match timer_bean_kinded with
    | Some (kind, bean) ->
        [
          Func_def
            (func
               ~comment:
                 "periodic model execution: the timer interrupt runs the whole \
                  step non-preemptively"
               Void
               (event_handler_name ~kind ~bean ~event:"OnInterrupt")
               []
               [ Expr (call (name ^ "_step") []) ]);
        ]
    | None ->
        [
          Item_comment
            "no TimerInt bean in the model: the integrator harness must call \
             <model>_step() itself";
        ]
  in
  let bean_inits =
    if uses_autosar then
      Expr (call "Mcal_Init" [])
      :: List.concat_map
           (fun b ->
             match b.Bean.config with
             | Bean.Timer_int _ ->
                 [ Expr (call "Gpt_StartTimer"
                           [ Var (Autosar_code.symbolic_id b); Int_lit 0 ]) ]
             | _ -> [])
           (Bean_project.beans project)
    else
      List.concat_map
        (fun b ->
          let n = b.Bean.bname in
          match b.Bean.config with
          | Bean.Timer_int _ -> [ Expr (call (n ^ "_Enable") []) ]
          | Bean.Pwm _ | Bean.Dac _ -> [ Expr (call (n ^ "_Enable") []) ]
          | Bean.Serial _ -> [ Expr (call (n ^ "_Init") []) ]
          | Bean.Bit_io { direction = Bean.Out_pin; _ } ->
              [ Expr (call (n ^ "_Init") []) ]
          | Bean.Watch_dog _ -> [ Expr (call (n ^ "_Enable") []) ]
          | _ -> [])
        (Bean_project.beans project)
  in
  let main_c =
    {
      unit_name = "main.c";
      items =
        (Include_local (name ^ ".h")
         :: (if uses_autosar then [ Include_local "Mcal.h" ]
             else [ Include_local "PE_Types.h" ]))
        @ [
          Item_comment
            (Printf.sprintf
               "PEERT %s target for %s -- entry point and interrupt wiring"
               (match mode with Blockgen.Hw -> "deployment" | Blockgen.Pil -> "PIL")
               mcu.Mcu_db.name);
        ]
        @ timer_isr @ event_handlers
        @ [
            Func_def
              (func ~comment:"hand-written background task hook" ~static:true Void
                 "background_task" []
                 [ Comment "idle; the application runs entirely in interrupts" ]);
            Func_def
              (func ~comment:"application entry" (Named "int") "main" []
                 ([ Comment "low-level bean initialisation" ] @ bean_inits
                 @ [
                     Expr (call (name ^ "_initialize") []);
                     Comment "interrupts drive everything from here on";
                     While (Int_lit 1, [ Expr (call "background_task" []) ]);
                     Return (Some (Int_lit 0));
                   ]));
          ];
    }
  in
  let hal =
    if uses_autosar then Autosar_code.hal_units project
    else Bean_project.hal_units project
  in
  let cc, cflags =
    match mcu.Mcu_db.family with
    | "56F83xx" -> ("mwcc56800e", "-O4 -Mdsp56800e")
    | "HCS12" -> ("mwccs12", "-O2 -Ms12")
    | _ -> ("m68k-elf-gcc", "-O2 -mcpu=5213")
  in
  let hal_sources = List.filter (fun u -> Filename.check_suffix u.unit_name ".c") hal in
  let makefile =
    String.concat "\n"
      ([
         Printf.sprintf "# Generated makefile -- PEERT target for %s" mcu.Mcu_db.name;
         Printf.sprintf "CC = %s" cc;
         Printf.sprintf "CFLAGS = %s" cflags;
         Printf.sprintf "OBJS = %s.o main.o %s" name
           (String.concat " "
              (List.map
                 (fun u -> Filename.remove_extension u.unit_name ^ ".o")
                 hal_sources));
         "";
         Printf.sprintf "%s.elf: $(OBJS)" name;
         "\t$(CC) $(CFLAGS) -o $@ $(OBJS)";
         "";
         "%.o: %.c";
         "\t$(CC) $(CFLAGS) -c $<";
         "";
         "flash: " ^ name ^ ".elf";
         "\tpeert_download $<";
         "";
       ])
  in
  (* report + schedule *)
  let dtype_of_block b =
    let tys = comp.Compile.out_types.(Model.blk_index b) in
    if Array.length tys > 0 then tys.(0) else Dtype.Double
  in
  let cycles_of b =
    Cost_model.cycles_of_block mcu (Model.spec_of m b) (dtype_of_block b)
  in
  let periodic_blocks = Array.to_list comp.Compile.order in
  let periodic_cycles = List.map (fun b -> (b, cycles_of b)) periodic_blocks in
  let total_step_cycles =
    List.fold_left (fun acc (_, c) -> acc + c) 0 periodic_cycles
  in
  let group_cycle_map =
    List.map
      (fun (g, order) ->
        (g, Array.fold_left (fun acc b -> acc + cycles_of b) 0 order))
      comp.Compile.group_order
  in
  let stack_bytes =
    64
    + List.fold_left
        (fun acc b -> Stdlib.max acc (Cost_model.stack_bytes_of_block (Model.spec_of m b)))
        0 all_blocks
  in
  let state_bytes =
    List.fold_left (fun acc (ty, _) -> acc + cty_bytes ty) 0 !dw_fields
  in
  let signal_bytes =
    List.fold_left (fun acc (ty, _) -> acc + cty_bytes ty) 0 !b_fields
  in
  let app_loc =
    C_print.loc (C_print.print_unit model_c)
    + C_print.loc (C_print.print_unit model_h)
    + C_print.loc (C_print.print_unit main_c)
  in
  let hal_loc =
    List.fold_left (fun acc u -> acc + C_print.loc (C_print.print_unit u)) 0 hal
  in
  let est_flash = ((app_loc + hal_loc) * 8) + 512 in
  let est_ram = state_bytes + signal_bytes + stack_bytes + 128 in
  let warnings = ref [] in
  if est_ram > mcu.Mcu_db.ram_bytes then
    warnings :=
      Printf.sprintf "estimated RAM %d B exceeds the %d B of %s" est_ram
        mcu.Mcu_db.ram_bytes mcu.Mcu_db.name
      :: !warnings;
  if est_flash > mcu.Mcu_db.flash_bytes then
    warnings :=
      Printf.sprintf "estimated flash %d B exceeds the %d B of %s" est_flash
        mcu.Mcu_db.flash_bytes mcu.Mcu_db.name
      :: !warnings;
  let report =
    {
      n_blocks = List.length all_blocks;
      app_loc;
      hal_loc;
      state_bytes;
      signal_bytes;
      est_flash_bytes = est_flash;
      est_ram_bytes = est_ram;
      step_cycles = total_step_cycles;
      step_time = float_of_int total_step_cycles /. mcu.Mcu_db.f_cpu_hz;
      group_cycles =
        List.map
          (fun (g, c) -> (Model.group_name m g, c))
          group_cycle_map;
      stack_bytes;
      warnings = !warnings;
    }
  in
  let schedule =
    {
      base_period = base;
      periodic_cycles;
      group_cycle_map;
      sensor_slots;
      actuator_slots;
      timer_bean;
      total_step_cycles;
      isr_stack_bytes = stack_bytes;
    }
  in
  Obs.add c_generations 1;
  Obs.add c_blocks_generated report.n_blocks;
  Obs.add c_lines_emitted (app_loc + hal_loc);
  { model_h; model_c; main_c; hal; makefile; report; schedule }

let write_to_dir a ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write_unit u =
    let path = Filename.concat dir u.unit_name in
    let oc = open_out path in
    output_string oc (C_print.print_unit u);
    close_out oc;
    path
  in
  let paths = List.map write_unit (a.model_h :: a.model_c :: a.main_c :: a.hal) in
  let mk = Filename.concat dir "Makefile" in
  let oc = open_out mk in
  output_string oc a.makefile;
  close_out oc;
  paths @ [ mk ]

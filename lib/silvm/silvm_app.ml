(* Load a PEERT-generated application and drive it.

   The PIL variant of the generated code is the natural SIL subject:
   its peripheral reads and writes are redirected to the
   [pil_sensor_buf]/[pil_actuator_buf] exchange buffers (§6), which
   become the stimulus/observation ports of the virtual machine -- the
   same role the RS-232 link plays in a real PIL run, without the
   target hardware.

   Two execution backends share this driver: the reference engine
   ({!Mir_eval}, executing the lifted MIR of the model units) and the
   closure compiler ({!Silvm_compile}). The compiled engine is the
   default -- it is bit-exact against the reference on the whole
   covered subset (test_silvm_compile.ml holds it to
   every-output-every-step equality) and an order of magnitude faster,
   which is what campaigns and fuzz loops feel. *)

type engine = [ `Interp | `Compiled ]

type backend =
  | Interp of Mir_eval.t
  | Compiled of { code : Silvm_compile.code; st : Silvm_compile.st }

type t = {
  backend : backend;
  name : string;
  comp : Compile.t;
  arts : Target.artifacts;
  step_fn : unit -> unit;  (** [<name>_step], resolved at [create] *)
  events : (int * (unit -> unit)) list;
      (** rate divisor, group function to fire after the step (bean
          event ISRs; fired at the event block's rate, mirroring the
          immediate-and-atomic group execution of the MIL engine),
          resolved at [create] *)
  mutable steps : int;
  clock : clock;
}

(* the application clock, in an all-float record so that advancing it
   stores the float unboxed *)
and clock = { mutable time : float }

type trace =
  (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array2.t

let sanitized_field b p m =
  Printf.sprintf "%s_o%d" (Blockgen.sanitize (Model.block_name m b)) p

let divisor comp b =
  match comp.Compile.sample.(Model.blk_index b) with
  | Sample_time.R_discrete { period; _ } ->
      Some (int_of_float (Float.round (period /. comp.Compile.base_dt)))
  | _ -> None

let has_func backend fn =
  match backend with
  | Interp m -> Mir_eval.has_func m fn
  | Compiled { code; _ } -> Silvm_compile.has_func code fn

(* a nullary model function as a callable, looked up once *)
let entry backend fn =
  match backend with
  | Interp m -> Mir_eval.entry m fn
  | Compiled { code; st } ->
      let f = Silvm_compile.entry code fn in
      fun () -> f st

let u16 = { Mir.bits = 16; signed = false }

(* engine-level live metrics *)
let c_sil_steps = Obs.counter "silvm.steps"

let create ?(mode = Blockgen.Pil) ?(opt = false) ?(engine = `Compiled) ~name
    ~project comp =
  let arts = Target.generate ~mode ~opt ~name ~project comp in
  let h = arts.Target.model_h and c = arts.Target.model_c in
  let backend =
    match engine with
    | `Interp ->
        let l = Mir_unit.lift ~header:h.C_ast.items c in
        Interp
          (Mir_eval.create l.Mir_unit.env (h.C_ast.items @ c.C_ast.items)
             l.Mir_unit.funcs)
    | `Compiled ->
        (* the compiled code is immutable and content-hashed: repeated
           submissions of the same generated units (campaign shards,
           fuzz re-runs) share one compilation *)
        let code = Silvm_compile.compile_cached [ h; c ] in
        Compiled { code; st = Silvm_compile.instantiate code }
  in
  let m = comp.Compile.model in
  (* bean events wired to function-call groups: the generated ISR body
     is a call to the group function *)
  let events =
    List.concat_map
      (fun b ->
        let spec = Model.spec_of m b in
        List.init (Array.length spec.Block.event_outs) (fun i -> i)
        |> List.filter_map (fun i ->
               match Model.event_target m (b, i) with
               | Some g ->
                   let fn =
                     Printf.sprintf "%s_%s" name
                       (Blockgen.sanitize (Model.group_name m g))
                   in
                   if has_func backend fn then
                     Option.map
                       (fun d -> (d, entry backend fn))
                       (divisor comp b)
                   else None
               | None -> None))
      (Model.blocks m)
  in
  let step_fn = entry backend (name ^ "_step") in
  let app =
    {
      backend;
      name;
      comp;
      arts;
      step_fn;
      events;
      steps = 0;
      clock = { time = 0.0 };
    }
  in
  app

let initialize app =
  app.steps <- 0;
  app.clock.time <- 0.0;
  entry app.backend (app.name ^ "_initialize") ()

let rec fire steps = function
  | [] -> ()
  | (d, fn) :: rest ->
      if steps mod d = 0 then fn ();
      fire steps rest

(* one base-rate step: the periodic part, then the ISR groups of every
   bean event that fired in this period. Cancel.poll is the supervision
   fuel point (cheap: one domain-local read when no token is
   installed). *)
let step app =
  Cancel.poll ();
  if Flight.enabled () then
    Flight.step_mark_r (Flight.recorder ()) ~step:app.steps ~time:app.clock.time
      app.name;
  app.step_fn ();
  fire app.steps app.events;
  app.steps <- app.steps + 1;
  app.clock.time <- app.clock.time +. app.comp.Compile.base_dt;
  Obs.add c_sil_steps 1

let xchg buf slot = Mir.Pindex (Mir.Pvar buf, Mir.Kint (slot, Mir.Dec))

let set_sensor app slot v =
  match app.backend with
  | Interp m ->
      Mir_eval.write m (xchg "pil_sensor_buf" slot)
        (Mir_eval.vi u16 (Int64.of_int v))
  | Compiled { st; _ } -> Silvm_compile.set_sensor st slot v

let actuator app slot =
  match app.backend with
  | Interp m ->
      Int64.to_int (Mir_eval.to_int64 (Mir_eval.read m (xchg "pil_actuator_buf" slot)))
  | Compiled { st; _ } -> Silvm_compile.actuator st slot

let read_actuators app acts =
  match app.backend with
  | Interp _ ->
      for slot = 0 to Array.length acts - 1 do
        acts.(slot) <- actuator app slot
      done
  | Compiled { st; _ } ->
      let buf = Silvm_compile.actuator_buf st in
      for slot = 0 to Array.length acts - 1 do
        acts.(slot) <- Bigarray.Array1.get buf slot
      done

type probe =
  | Compiled_probe of Silvm_compile.typed * Silvm_compile.st
  | Reference_probe of Mir_eval.t * Mir.place

(* the block-I/O structure field carrying a block output signal,
   resolved once: signals are polled every step of a diff run *)
let probe app (b, p) =
  let s = app.name ^ "_B"
  and field = sanitized_field b p app.comp.Compile.model in
  match app.backend with
  | Interp m -> Reference_probe (m, Mir.Pfield (Mir.Pvar s, field))
  | Compiled { code; st } ->
      Compiled_probe
        (Silvm_compile.reader code (C_ast.Field (C_ast.Var s, field)), st)

let probe_value = function
  | Compiled_probe (Silvm_compile.TI (t, get), st) ->
      Mir_eval.Vi (t, Int64.of_int (get st))
  | Compiled_probe (Silvm_compile.TF (fty, get), st) -> Mir_eval.Vf (fty, get st)
  | Reference_probe (m, place) -> Mir_eval.read m place

let signal app bp = probe_value (probe app bp)

let schedule app = app.arts.Target.schedule

let stmts_executed app =
  match app.backend with
  | Interp m -> Mir_eval.stmts_executed m
  | Compiled _ -> 0

(* ---------------- batched execution ---------------- *)

let n_actuators app =
  match app.backend with
  | Compiled { code; _ } -> Silvm_compile.actuator_count code
  | Interp _ ->
      List.length app.arts.Target.schedule.Target.actuator_slots

let run_n_steps ?stimulus ?feedback app n =
  let n_act = n_actuators app in
  let t_batch = if Obs.enabled () then Obs.now_ns () else 0.0 in
  let trace =
    Bigarray.Array2.create Bigarray.int16_unsigned Bigarray.c_layout n
      (max 1 n_act)
  in
  Bigarray.Array2.fill trace 0;
  let row = Array.make (max 1 n_act) 0 in
  for k = 0 to n - 1 do
    (match stimulus with
    | None -> ()
    | Some f ->
        let sensors = f k in
        Array.iteri (fun slot v -> set_sensor app slot v) sensors);
    step app;
    (match app.backend with
    | Compiled { st; _ } when n_act > 0 ->
        (* vectorized snapshot: blit the exchange buffer into row k *)
        Bigarray.Array1.blit
          (Silvm_compile.actuator_buf st)
          (Bigarray.Array2.slice_left trace k)
    | _ ->
        for slot = 0 to n_act - 1 do
          Bigarray.Array2.set trace k slot (actuator app slot)
        done);
    match feedback with
    | None -> ()
    | Some f ->
        for slot = 0 to n_act - 1 do
          row.(slot) <- Bigarray.Array2.get trace k slot
        done;
        f k row
  done;
  if Obs.enabled () then begin
    (* engine throughput, visible live in heartbeats / Prometheus *)
    let dt = (Obs.now_ns () -. t_batch) *. 1e-9 in
    Obs.record_named "silvm.batch_steps" (float_of_int n);
    if dt > 0.0 then
      Obs.set_gauge "silvm.steps_per_s" (float_of_int n /. dt)
  end;
  trace

(* first (step, slot) where two runs disagree; whole-row comparison is
   the vectorized common case (equal traces touch no per-port logic) *)
let compare_traces (a : trace) (b : trace) =
  let steps = min (Bigarray.Array2.dim1 a) (Bigarray.Array2.dim1 b) in
  let slots = min (Bigarray.Array2.dim2 a) (Bigarray.Array2.dim2 b) in
  let diff = ref None in
  (try
     for k = 0 to steps - 1 do
       for s = 0 to slots - 1 do
         if Bigarray.Array2.unsafe_get a k s <> Bigarray.Array2.unsafe_get b k s
         then (
           diff := Some (k, s);
           raise Exit)
       done
     done
   with Exit -> ());
  if Bigarray.Array2.dim1 a <> Bigarray.Array2.dim1 b && !diff = None then
    Some (steps, 0)
  else !diff

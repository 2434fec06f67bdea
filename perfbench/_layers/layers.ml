(* Traced layer driver of the benchmark.

   layers.exe INPUTS REF_DIR TMP_DIR OUT_JSON

   Replays a workload's seeded inputs (INPUTS: the workload name, then
   one op per line, written by perfbench/traced.py) in-process through
   the same public functions the `ecsd` sub-commands call, and wraps
   each layer call in a span recorded here, in the benchmark's own
   code. Each op runs with spans off and on; the spans stay in memory
   and are written once, at the end, with the layer probes: fixed
   inputs timed or counted per layer.
   Self times, coverage and the tracing overhead are computed from
   OUT_JSON by traced.py. *)

(* ---- span recorder ---- *)

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }
type buf = { mutable spans : span list; mutable stack : int list }

let now = Unix.gettimeofday
let tracing = Atomic.make false
let next_id = Atomic.make 1
let bufs : buf list ref = ref []
let bufs_lock = Mutex.create ()

(* one buffer per domain: the serve replay records from a pool worker *)
let buf_key =
  Domain.DLS.new_key (fun () ->
      let b = { spans = []; stack = [] } in
      Mutex.protect bufs_lock (fun () -> bufs := b :: !bufs);
      b)

let current () =
  match (Domain.DLS.get buf_key).stack with p :: _ -> p | [] -> 0

let span ?parent name f =
  if not (Atomic.get tracing) then f ()
  else begin
    let b = Domain.DLS.get buf_key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match parent with Some p -> p | None -> current () in
    b.stack <- id :: b.stack;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      b.stack <- List.tl b.stack;
      b.spans <- { id; parent; name; t0; t1 } :: b.spans
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let all_spans () =
  Mutex.protect bufs_lock (fun () -> List.concat_map (fun b -> b.spans) !bufs)

(* ---- inputs and checks ---- *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let read_file path = In_channel.with_open_bin path In_channel.input_all

let failed = ref 0
let check ok = if not ok then incr failed

let config ?(period = 1e-3) ?(fixed = false) mcu =
  {
    Servo_system.default_config with
    Servo_system.mcu;
    control_period = period;
    variant = (if fixed then Servo_system.Fixed_pid else Servo_system.Float_pid);
  }

let mcu_of name =
  match Mcu_db.find name with
  | Some m -> m
  | None -> failwith ("unknown MCU " ^ name)

let diff_ok ~steps (r : Silvm_diff.report) =
  r.Silvm_diff.divergence = None && r.Silvm_diff.steps_run = steps

(* cache hits and misses seen by the replay, summed over the process
   boundaries it mirrors *)
let silvm_hits = ref 0
let silvm_misses = ref 0
let cc_hits = ref 0
let cc_misses = ref 0

let take_cache_stats () =
  let h, m = Silvm_compile.cache_stats () in
  let ch, cm, _ = Compile_cache.stats () in
  silvm_hits := !silvm_hits + h;
  silvm_misses := !silvm_misses + m;
  cc_hits := !cc_hits + ch;
  cc_misses := !cc_misses + cm;
  Silvm_compile.cache_clear ();
  Compile_cache.clear ()

let zero_cache_counts () =
  take_cache_stats ();
  silvm_hits := 0;
  silvm_misses := 0;
  cc_hits := 0;
  cc_misses := 0

(* Each `ecsd` command of a CLI op is a fresh process: caches, the flight
   recorder and the metrics registry start empty. *)
let fresh_process ~flight =
  take_cache_stats ();
  Flight.reset ();
  Flight.set_enabled flight;
  Obs.reset ();
  Obs.set_enabled false

let servo_diff ~steps ~opt cfg =
  let built = span "model.build" (fun () -> Servo_system.build ~config:cfg ()) in
  let comp =
    span "model.compile" (fun () -> Compile.compile built.Servo_system.controller)
  in
  let plant = Servo_system.pil_plant built in
  let driver = Servo_system.pil_driver built in
  span "diff.run" (fun () ->
      Silvm_diff.run ~steps ~opt ~plant:(Silvm_diff.Plant (plant, driver))
        ~name:"servo" ~project:built.Servo_system.project comp)

(* ---- replays: one op per input line ---- *)

let design_op tmp line =
  let mcu, period, fixed =
    match String.split_on_char ' ' line with
    | [ m; p; v ] -> (mcu_of m, float_of_string p, v = "fixed")
    | _ -> failwith ("bad design line " ^ line)
  in
  let cfg = config ~period ~fixed mcu in
  (* ecsd check servo *)
  fresh_process ~flight:false;
  let built = span "model.build" (fun () -> Servo_system.build ~config:cfg ()) in
  let rep =
    span "analysis.check" (fun () ->
        Check.run ~project:built.Servo_system.project
          built.Servo_system.controller)
  in
  check (Check.errors rep = if fixed then 1 else 0);
  (* ecsd codegen --opt -o DIR *)
  fresh_process ~flight:false;
  let built = span "model.build" (fun () -> Servo_system.build ~config:cfg ()) in
  let project = built.Servo_system.project in
  let comp =
    span "model.compile" (fun () -> Compile.compile built.Servo_system.controller)
  in
  let arts =
    span "peert.generate" (fun () ->
        Target.generate ~opt:true ~name:"servo" ~project comp)
  in
  let files =
    span "peert.write" (fun () ->
        Target.write_to_dir arts ~dir:(Filename.concat tmp "cg"))
  in
  check (List.length files = 11);
  (* ecsd pil --periods 100 *)
  fresh_process ~flight:false;
  let built = span "model.build" (fun () -> Servo_system.build ~config:cfg ()) in
  let comp =
    span "model.compile" (fun () -> Compile.compile built.Servo_system.controller)
  in
  let arts =
    span "peert.generate" (fun () ->
        Pil_target.generate ~name:"servo" ~project:built.Servo_system.project comp)
  in
  let controller = span "engine.create" (fun () -> Sim.create comp) in
  let r =
    span "pil.run" (fun () ->
        Pil_cosim.run ~mcu ~schedule:arts.Target.schedule ~controller
          ~plant:(Servo_system.pil_plant built)
          ~driver:(Servo_system.pil_driver built) ~periods:100 ())
  in
  check (r.Pil_cosim.profile.Pil_cosim.overruns = 0);
  (* ecsd diff servo --steps 200 *)
  fresh_process ~flight:true;
  Flight.begin_track ~id:1 ~name:"servo";
  check (diff_ok ~steps:200 (servo_diff ~steps:200 ~opt:false cfg))

let diff_long_op line =
  let steps = int_of_string line in
  fresh_process ~flight:true;
  Flight.begin_track ~id:1 ~name:"servo";
  check (diff_ok ~steps (servo_diff ~steps ~opt:true (config Mcu_db.mc56f8367)))

let scenario_of name =
  match Fault_scenario.find name with
  | Ok s -> s
  | Error msg -> failwith msg

let faultsim_op ref_dir tmp name =
  let scenario = scenario_of name in
  fresh_process ~flight:true;
  let subject =
    span "model.build" (fun () ->
        fst
          (Servo_system.faultsim_subject ~config:(config Mcu_db.mc56f8367)
             ~scenario ()))
  in
  let r =
    span "fault.campaign" (fun () ->
        Fault_campaign.run ~t_end:2.0 ~seeds:8 ~scenario subject)
  in
  let path = Filename.concat tmp "replay-fault.json" in
  span "report.fault_json" (fun () ->
      Bench_json.write ~path (Fault_campaign.to_json ~model:"servo" r));
  check (read_file path = read_file (Filename.concat ref_dir (name ^ ".json")))

(* serve: one pool worker; the main domain submits a line and waits for
   its result, as the closed-loop client does through stdin/stdout *)
type session = {
  pool : Exec_pool.t;
  lock : Mutex.t;
  cond : Condition.t;
  mutable done_ : bool;
}

let serve_job line =
  let cfg = config Mcu_db.mc56f8367 in
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | [ "stats" ] ->
      Some
        (fun () ->
          ignore (span "obs.snapshot" (fun () -> Obs.snapshot ()));
          true)
  | [ "diff"; "servo"; steps ] when int_of_string_opt steps <> None ->
      let steps = int_of_string steps in
      Some
        (fun () ->
          let built =
            span "model.build" (fun () -> Servo_system.build ~config:cfg ())
          in
          let comp =
            span "model.compile" (fun () ->
                Compile_cache.compile built.Servo_system.controller)
          in
          let plant = Servo_system.pil_plant built in
          let driver = Servo_system.pil_driver built in
          diff_ok ~steps
            (span "diff.run" (fun () ->
                 Silvm_diff.run ~steps ~plant:(Silvm_diff.Plant (plant, driver))
                   ~name:"servo" ~project:built.Servo_system.project comp)))
  | [ "diff"; "isr-demo"; steps ] when int_of_string_opt steps <> None ->
      let steps = int_of_string steps in
      Some
        (fun () ->
          let m, project =
            span "model.build" (fun () -> Check.hazard_demo ~mcu:cfg.Servo_system.mcu ())
          in
          let comp = span "model.compile" (fun () -> Compile_cache.compile m) in
          let stimulus k = [| k * 37 mod 4096 |] in
          diff_ok ~steps
            (span "diff.run" (fun () ->
                 Silvm_diff.run ~steps ~stimulus ~name:"isr_demo" ~project comp)))
  | _ -> None

let serve_op s id line =
  let job = serve_job line in
  span "exec.roundtrip" (fun () ->
      let parent = current () in
      s.done_ <- false;
      Exec_pool.submit s.pool (fun () ->
          Flight.begin_track ~id ~name:line;
          (* serve rejects a malformed line before supervising it *)
          Option.iter
            (fun job ->
              let o =
                span ~parent "supervise" (fun () ->
                    Supervise.supervise ~policy:Supervise.default_policy
                      ~label:line job)
              in
              check (match o.Supervise.result with Ok ok -> ok | Error _ -> false))
            job;
          Obs.publish ();
          Mutex.protect s.lock (fun () ->
              s.done_ <- true;
              Condition.signal s.cond));
      Mutex.protect s.lock (fun () ->
          while not s.done_ do
            Condition.wait s.cond s.lock
          done))

(* The op runner of a workload and its finaliser. A serve replay keeps
   one session, as one `ecsd serve` process does. *)
let runner workload ref_dir tmp =
  match workload with
  | "design-iteration" -> ((fun _ line -> design_op tmp line), ignore)
  | "diff-long" -> ((fun _ line -> diff_long_op line), ignore)
  | "faultsim-campaign" -> ((fun _ line -> faultsim_op ref_dir tmp line), ignore)
  | "serve-small" ->
      fresh_process ~flight:true;
      Obs.set_enabled true;
      let s =
        {
          pool = Exec_pool.create ~workers:1 ();
          lock = Mutex.create ();
          cond = Condition.create ();
          done_ = false;
        }
      in
      ((fun id line -> serve_op s id line), fun () -> Exec_pool.shutdown s.pool)
  | w -> failwith ("unknown workload " ^ w)

(* ---- layer probes: fixed inputs, each timed as the median of five
   batches so one slow batch does not move it ---- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let batches = 5

(* seconds per call of [f], [reps] calls per batch; [setup] runs before
   each batch, untimed, and hands [f] its state *)
let per_call ~setup ~reps f =
  median
    (List.init batches (fun _ ->
         let st = setup () in
         let t0 = now () in
         for _ = 1 to reps do
           f st
         done;
         (now () -. t0) /. float_of_int reps))

let timed ~reps f = per_call ~setup:(fun () -> ()) ~reps f

(* cost of [a] relative to [b]: the median of per-pair ratios over
   adjacent runs in alternating order, so drift in host speed cancels *)
let ratio ~a ~b =
  let time f =
    let t0 = now () in
    f ();
    now () -. t0
  in
  median
    (List.init (2 * batches) (fun i ->
         if i mod 2 = 0 then
           let ta = time a in
           ta /. time b
         else
           let tb = time b in
           time a /. tb))

let count_opaque (l : Mir_unit.lifted) =
  let n = ref 0 in
  let expr = function Mir.Eopaque _ -> incr n | _ -> () in
  let stmt = function Mir.Sopaque _ -> incr n | _ -> () in
  List.iter
    (fun (_, body) -> List.iter (Mir.iter_stmt ~expr ~stmt) body)
    l.Mir_unit.funcs;
  !n

let probes tmp =
  Flight.set_enabled false;
  Obs.set_enabled false;
  Obs.reset ();
  let cfg = config Mcu_db.mc56f8367 in
  let built = Servo_system.build ~config:cfg () in
  let project = built.Servo_system.project in
  let ctl = built.Servo_system.controller in
  let comp = Compile.compile ctl in
  let ms x = x *. 1e3 and us x = x *. 1e6 in
  let m = ref [] in
  let add name v = m := (name, v) :: !m in
  add "model.build_ms"
    (ms (timed ~reps:20 (fun () -> ignore (Servo_system.build ~config:cfg ()))));
  add "model.compile_ms" (ms (timed ~reps:50 (fun () -> ignore (Compile.compile ctl))));
  add "analysis.check_ms"
    (ms (timed ~reps:5 (fun () -> ignore (Check.run ~project ctl))));
  let gen opt () = Target.generate ~opt ~name:"servo" ~project comp in
  add "peert.generate_ms" (ms (timed ~reps:20 (fun () -> ignore (gen true ()))));
  let r = (gen true ()).Target.report in
  add "peert.c_lines" (float_of_int (r.Target.app_loc + r.Target.hal_loc));
  let plain = gen false () in
  let header = plain.Target.model_h.C_ast.items in
  add "mir.process_ms"
    (ms
       (timed ~reps:20 (fun () ->
            ignore (Mir_unit.process ~opt:true ~header plain.Target.model_c))));
  (* everything Blockgen and Bean_code emit for servo float and Q15 and
     for isr-demo, as ROADMAP item 3(a) counts it *)
  let opaque (arts : Target.artifacts) =
    List.fold_left
      (fun acc u ->
        acc + count_opaque (Mir_unit.lift ~header:arts.Target.model_h.C_ast.items u))
      0
      (arts.Target.model_c :: arts.Target.main_c :: arts.Target.hal)
  in
  let fixed = Servo_system.build ~config:(config ~fixed:true Mcu_db.mc56f8367) () in
  let isr, isr_project = Check.hazard_demo ~mcu:Mcu_db.mc56f8367 () in
  add "mir.opaque_nodes"
    (float_of_int
       (opaque plain
       + opaque
           (Target.generate ~name:"servo" ~project:fixed.Servo_system.project
              (Compile.compile fixed.Servo_system.controller))
       + opaque
           (Target.generate ~name:"isr_demo" ~project:isr_project
              (Compile.compile isr))));
  let pil_arts = Pil_target.generate ~opt:true ~name:"servo" ~project comp in
  let units = [ pil_arts.Target.model_h; pil_arts.Target.model_c ] in
  add "silvm.compile_ms"
    (ms (timed ~reps:20 (fun () -> ignore (Silvm_compile.compile units))));
  Silvm_compile.cache_clear ();
  ignore (Silvm_compile.compile_cached units);
  add "silvm.cache_lookup_ms"
    (ms (timed ~reps:50 (fun () -> ignore (Silvm_compile.compile_cached units))));
  Silvm_compile.cache_clear ();
  (* PIL needs a period the 115200-baud link can carry *)
  let pcfg = config ~period:0.002 Mcu_db.mc56f8367 in
  let pbuilt = Servo_system.build ~config:pcfg () in
  let pcomp = Compile.compile pbuilt.Servo_system.controller in
  let parts =
    Pil_target.generate ~name:"servo" ~project:pbuilt.Servo_system.project pcomp
  in
  let periods = 100 in
  add "pil.period_us"
    (us
       (per_call ~reps:1
          ~setup:(fun () -> Sim.create pcomp)
          (fun controller ->
            ignore
              (Pil_cosim.run ~mcu:Mcu_db.mc56f8367 ~schedule:parts.Target.schedule
                 ~controller ~plant:(Servo_system.pil_plant pbuilt)
                 ~driver:(Servo_system.pil_driver pbuilt) ~periods ())))
    /. float_of_int periods);
  (* the lock-step's parts, each from a fresh start (a continued
     simulation gets cheaper after a few hundred simulated seconds) *)
  let steps = 5000 in
  let per_step t = t /. float_of_int steps in
  let loop step st =
    for _ = 1 to steps do
      step st
    done
  in
  let engine_step =
    per_step (per_call ~reps:1 ~setup:(fun () -> Sim.create comp) (loop Sim.step))
  in
  add "engine.step_us" (us engine_step);
  let app engine () =
    let a = Silvm_app.create ~opt:true ~engine ~name:"servo" ~project comp in
    Silvm_app.initialize a;
    a
  in
  let silvm_step =
    per_step (per_call ~reps:1 ~setup:(app `Compiled) (loop Silvm_app.step))
  in
  add "silvm.step_us" (us silvm_step);
  let ia = app `Interp () in
  for _ = 1 to 200 do
    Silvm_app.step ia
  done;
  add "silvm.stmts_per_step" (float_of_int (Silvm_app.stmts_executed ia) /. 200.0);
  let drv = Servo_system.pil_driver built in
  let n_act = List.length plain.Target.schedule.Target.actuator_slots in
  let dt = comp.Compile.base_dt in
  let acts = Array.make n_act 0 in
  let plant_step =
    per_step
      (per_call ~reps:1
         ~setup:(fun () -> Servo_system.pil_plant built)
         (fun p ->
           for k = 1 to steps do
             ignore (drv.Pil_cosim.read_sensors p ~time:(float_of_int k *. dt));
             drv.Pil_cosim.apply_actuators p acts;
             drv.Pil_cosim.advance p ~dt
           done))
  in
  add "plant.step_us" (us plant_step);
  let diff n () =
    ignore
      (Silvm_diff.run ~steps:n ~opt:true
         ~plant:(Silvm_diff.Plant (Servo_system.pil_plant built, drv))
         ~name:"servo" ~project comp)
  in
  (* per lock-step: the run's cost past its one-step set-up *)
  let full = timed ~reps:1 (diff steps) and one = timed ~reps:1 (diff 1) in
  let lockstep = (full -. one) /. float_of_int (steps - 1) in
  add "diff.harness_us" (us (lockstep -. engine_step -. silvm_step -. plant_step));
  let armed f () =
    Flight.set_enabled true;
    Flight.begin_track ~id:1 ~name:"servo";
    f ();
    Flight.set_enabled false
  in
  add "flight.diff_overhead_ratio" (ratio ~a:(armed (diff steps)) ~b:(diff steps));
  let scenario = scenario_of "encoder-dropout" in
  let subject () = fst (Servo_system.faultsim_subject ~config:cfg ~scenario ()) in
  let csteps = 2000 in
  add "engine.closed_loop_step_us"
    (us
       (per_call ~reps:1 ~setup:subject (fun s ->
            for _ = 1 to csteps do
              Sim.step s.Fault_campaign.sim
            done)
       /. float_of_int csteps));
  let subj = subject () in
  (* armed throughput over unarmed: the inverse of the time ratio *)
  let thr ?scenario () =
    ignore (Fault_campaign.throughput ?scenario ~steps:csteps subj)
  in
  add "fault.armed_ratio" (1.0 /. ratio ~a:(thr ~scenario) ~b:(thr ?scenario:None));
  let seed1 () = ignore (Fault_campaign.run ~seeds:1 ~scenario subj) in
  add "fault.seed_ms" (ms (timed ~reps:1 seed1));
  add "flight.campaign_overhead_ratio" (ratio ~a:(armed seed1) ~b:seed1);
  let res = Fault_campaign.run ~seeds:8 ~scenario subj in
  let path = Filename.concat tmp "probe-fault.json" in
  add "report.fault_json_ms"
    (ms
       (timed ~reps:50 (fun () ->
            Bench_json.write ~path (Fault_campaign.to_json ~model:"servo" res))));
  let pool = Exec_pool.create ~workers:1 () in
  let flag = Atomic.make false in
  add "exec.task_roundtrip_us"
    (us
       (timed ~reps:2000 (fun () ->
            Atomic.set flag false;
            Exec_pool.submit pool (fun () -> Atomic.set flag true);
            while not (Atomic.get flag) do
              Domain.cpu_relax ()
            done)));
  Exec_pool.shutdown pool;
  add "supervise.envelope_us"
    (us
       (timed ~reps:20000 (fun () ->
            ignore
              (Supervise.supervise ~policy:Supervise.default_policy ~label:"noop"
                 (fun () -> ())))));
  List.rev !m

(* ---- output ---- *)

let reps = 4

let () =
  match Sys.argv with
  | [| _; inputs; ref_dir; tmp; out |] ->
      let workload, ops =
        match read_lines inputs with
        | w :: ops -> (w, ops)
        | [] -> failwith "empty inputs"
      in
      (* Every op runs twice in a row, once with spans and once without,
         in alternating order: the host's speed drifts over seconds, and
         adjacent runs see the same speed, so the summed walls give the
         tracing overhead. *)
      zero_cache_counts ();
      let run, finish = runner workload ref_dir tmp in
      let wall_off = ref 0.0 and wall_on = ref 0.0 and runs = ref 0 in
      for rep = 1 to reps do
        List.iteri
          (fun i line ->
            List.iter
              (fun on ->
                Atomic.set tracing on;
                let t0 = now () in
                span "op" (fun () -> run !runs line);
                let dt = now () -. t0 in
                Atomic.set tracing false;
                incr runs;
                if on then wall_on := !wall_on +. dt
                else wall_off := !wall_off +. dt)
              (if (i + rep) mod 2 = 0 then [ true; false ] else [ false; true ]))
          ops
      done;
      finish ();
      take_cache_stats ();
      let spans = all_spans () in
      let hit_ratio h m = if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m) in
      let cache =
        [
          ("exec.compile_cache_hit_ratio", hit_ratio !cc_hits !cc_misses);
          ("silvm.cache_hit_ratio", hit_ratio !silvm_hits !silvm_misses);
        ]
      in
      let replay_failed = !failed in
      let metrics = probes tmp @ cache in
      let oc = open_out out in
      let fl x = Printf.sprintf "%.17g" x in
      let list f xs = String.concat "," (List.map f xs) in
      Printf.fprintf oc
        "{\"workload\":%S,\"runs\":%d,\"failed\":%d,\"wall_off\":%s,\"wall_on\":%s,\n\
         \"metrics\":{%s},\n\
         \"spans\":[%s]}\n"
        workload !runs replay_failed (fl !wall_off) (fl !wall_on)
        (list (fun (k, v) -> Printf.sprintf "%S:%s" k (fl v)) metrics)
        (list
           (fun s ->
             Printf.sprintf "[%d,%d,%S,%s,%s]" s.id s.parent s.name (fl s.t0)
               (fl s.t1))
           spans);
      close_out oc
  | _ ->
      prerr_endline "usage: layers.exe INPUTS REF_DIR TMP_DIR OUT_JSON";
      exit 2

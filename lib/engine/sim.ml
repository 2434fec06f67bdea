(* Growable probe storage: two parallel float arrays, doubling growth.
   Replaces the original [(float * float) list ref] accumulation — no
   per-sample boxing/consing on the hot path, and [trace] no longer
   needs a List.rev. *)
type probe_buf = {
  mutable pb_t : float array;
  mutable pb_v : float array;
  mutable pb_len : int;
  pb_name : string;  (* block name, so the flight recorder can label
                        probed-signal events without a lookup per step *)
}

let probe_buf_create name =
  { pb_t = Array.make 64 0.0; pb_v = Array.make 64 0.0; pb_len = 0; pb_name = name }

let probe_buf_push pb t v =
  let cap = Array.length pb.pb_t in
  if pb.pb_len = cap then begin
    let nt = Array.make (2 * cap) 0.0 and nv = Array.make (2 * cap) 0.0 in
    Array.blit pb.pb_t 0 nt 0 cap;
    Array.blit pb.pb_v 0 nv 0 cap;
    pb.pb_t <- nt;
    pb.pb_v <- nv
  end;
  pb.pb_t.(pb.pb_len) <- t;
  pb.pb_v.(pb.pb_len) <- v;
  pb.pb_len <- pb.pb_len + 1

(* Continuous-state integration, planned once at [create]: the owners of
   continuous states with their offsets in the packed state [x], one
   reusable slice per owner for [set_cstate], and the RK4 workspace. *)
type integ = {
  cowners : int array;  (* owners of continuous states, in order *)
  offs : int array;  (* each owner's offset in [x] *)
  slices : float array array;  (* each owner's state, handed to set_cstate *)
  x : float array;  (* packed state, advanced in place *)
  ws : Ode.rk4_ws;
}

type hook = time:float -> Value.t -> Value.t

type t = {
  comp : Compile.t;
  behs : Block.beh array;
  signals : Value.t array array;
  overrides : Value.t option array array;
  src_sig : Value.t array array array;
      (* per block, per input: the driving block's [signals] row *)
  src_port : int array array;  (* ... and the driving port in it *)
  inputs : Value.t array array;
      (* per block, the engine-owned input array refilled before each
         behaviour call *)
  order : int array;  (* [comp.order] as indices *)
  rates : Sample_time.resolved array;  (* the distinct rates of [order] *)
  order_rate : int array;  (* per [order] entry: its block's rate in [rates] *)
  rate_hit : bool array;  (* per rate: whether it hits this step *)
  cont_order : int array;
      (* the continuous-rate blocks of [order]: the minor pass *)
  mutable now : float;
  mutable nstep : int;
  probes : (int * int, probe_buf) Hashtbl.t;
  mutable events_this_step : int;
  integ : integ;
  deriv : float -> float array -> float array -> unit;
      (* the ODE right-hand side over [integ.x], built once *)
  solver_substeps : int;
  group_exec : int array array;
      (* execution order per function-call group, indexed by
         [Model.group_index] *)
  group_counters : Obs.counter array;  (* same indexing *)
  hooks : hook option array array;
      (* per block, per output port: the installed fault hook; [||] for
         a block none of whose ports is hooked *)
}

(* process-wide engine metrics *)
let c_steps = Obs.counter "sim.steps"
let c_events = Obs.counter "sim.events"
let h_substep = Obs.hist "sim.ode.substep_s"

let bi = Model.blk_index

(* The returned array is [t.inputs.(i)]: valid until the next gather of
   block [i]. *)
let gather t i =
  let ins = t.inputs.(i) and ss = t.src_sig.(i) and sp = t.src_port.(i) in
  for k = 0 to Array.length ins - 1 do
    ins.(k) <- ss.(k).(sp.(k))
  done;
  ins

let block_name t i =
  let m = t.comp.Compile.model in
  Model.block_name m (List.find (fun b -> bi b = i) (Model.blocks m))

(* the arity check reads the signal row, sized from the block's spec *)
let write_outputs t i outs =
  let sg = t.signals.(i) in
  let n = Array.length sg in
  if Array.length outs <> n then
    failwith
      (Printf.sprintf "block %s returned %d outputs, expected %d"
         (block_name t i) (Array.length outs) n);
  let ov = t.overrides.(i) and hk = t.hooks.(i) in
  if Array.length hk = 0 then
    for p = 0 to n - 1 do
      sg.(p) <- (match ov.(p) with Some v -> v | None -> outs.(p))
    done
  else
    for p = 0 to n - 1 do
      let v = match ov.(p) with Some v -> v | None -> outs.(p) in
      sg.(p) <- (match hk.(p) with Some h -> h ~time:t.now v | None -> v)
    done

let exec_group t gi =
  let order =
    if gi < Array.length t.group_exec then t.group_exec.(gi) else [||]
  in
  if gi < Array.length t.group_counters then Obs.add t.group_counters.(gi) 1;
  for k = 0 to Array.length order - 1 do
    let i = order.(k) in
    write_outputs t i
      (t.behs.(i).Block.out ~minor:false ~time:t.now (gather t i))
  done;
  for k = 0 to Array.length order - 1 do
    let i = order.(k) in
    t.behs.(i).Block.update ~time:t.now (gather t i)
  done

(* [targets.(k)]: the group wired to the firing block's event output
   [k], resolved at [create]; -1 when none is *)
let fire_event t targets k =
  t.events_this_step <- t.events_this_step + 1;
  Obs.add c_events 1;
  if k >= 0 && k < Array.length targets && targets.(k) >= 0 then
    exec_group t targets.(k)

let minor_pass t time =
  let co = t.cont_order in
  for k = 0 to Array.length co - 1 do
    let i = co.(k) in
    write_outputs t i (t.behs.(i).Block.out ~minor:true ~time (gather t i))
  done

let unpack t x =
  let g = t.integ in
  for j = 0 to Array.length g.cowners - 1 do
    let s = g.slices.(j) in
    Array.blit x g.offs.(j) s 0 (Array.length s);
    t.behs.(g.cowners.(j)).Block.set_cstate s
  done

(* dx/dt at [(time, x)]: re-evaluate the continuous subgraph (minor
   pass) at the stage state, discrete outputs being held *)
let deriv_into t time x dx =
  let g = t.integ in
  unpack t x;
  minor_pass t time;
  for j = 0 to Array.length g.cowners - 1 do
    let i = g.cowners.(j) in
    let d = t.behs.(i).Block.deriv ~time (gather t i) in
    Array.blit d 0 dx g.offs.(j) (Array.length g.slices.(j))
  done

let create ?(solver_substeps = 1) comp =
  if solver_substeps < 1 then invalid_arg "Sim.create: solver_substeps";
  let m = comp.Compile.model in
  let n = Model.n_blocks m in
  let signals = Array.make n [||] in
  let overrides = Array.make n [||] in
  List.iter
    (fun b ->
      let spec = Model.spec_of m b in
      signals.(bi b) <-
        Array.init spec.Block.n_out (fun p ->
            Value.zero comp.Compile.out_types.(bi b).(p));
      overrides.(bi b) <- Array.make spec.Block.n_out None)
    (Model.blocks m);
  let t_ref = ref None in
  let behs = Array.make n Block.no_beh_state in
  List.iter
    (fun b ->
      let spec = Model.spec_of m b in
      let block_dt =
        match comp.Compile.sample.(bi b) with
        | Sample_time.R_discrete { period; _ } -> period
        | Sample_time.R_continuous -> 0.0
        | Sample_time.R_triggered | Sample_time.R_const -> comp.Compile.base_dt
      in
      let targets =
        Array.init (Array.length spec.Block.event_outs) (fun k ->
            match Model.event_target m (b, k) with
            | Some g -> Model.group_index g
            | None -> -1)
      in
      let ctx =
        {
          Block.base_dt = comp.Compile.base_dt;
          block_dt;
          fire =
            (fun k ->
              match !t_ref with
              | Some t -> fire_event t targets k
              | None -> ());
          in_dtypes = comp.Compile.in_types.(bi b);
          out_dtypes = comp.Compile.out_types.(bi b);
        }
      in
      behs.(bi b) <- spec.Block.make ctx)
    (Model.blocks m);
  let srcs = Compile.signal_sources comp in
  let order = Array.map bi comp.Compile.order in
  (* the distinct rates of [order], and each entry's index among them *)
  let rates =
    List.sort_uniq compare
      (List.map (fun i -> comp.Compile.sample.(i)) (Array.to_list order))
  in
  let order_rate =
    Array.map
      (fun i ->
        Option.get (List.find_index (( = ) comp.Compile.sample.(i)) rates))
      order
  in
  let cont_order =
    Array.of_list
      (List.filter
         (fun i -> comp.Compile.sample.(i) = Sample_time.R_continuous)
         (Array.to_list order))
  in
  let integ =
    let cowners =
      Array.of_list
        (List.filter (fun i -> behs.(i).Block.ncstates > 0) (Array.to_list order))
    in
    let sizes = Array.map (fun i -> behs.(i).Block.ncstates) cowners in
    let offs = Array.make (Array.length sizes) 0 in
    for j = 1 to Array.length sizes - 1 do
      offs.(j) <- offs.(j - 1) + sizes.(j - 1)
    done;
    let total = Array.fold_left ( + ) 0 sizes in
    {
      cowners;
      offs;
      slices = Array.map (fun k -> Array.make k 0.0) sizes;
      x = Array.make total 0.0;
      ws = Ode.rk4_workspace total;
    }
  in
  let n_groups =
    List.fold_left
      (fun acc g -> max acc (Model.group_index g + 1))
      0 (Model.groups m)
  in
  let group_exec = Array.make n_groups [||] in
  List.iter
    (fun (g, order) -> group_exec.(Model.group_index g) <- Array.map bi order)
    comp.Compile.group_order;
  let group_counters =
    Array.init n_groups (fun _ -> Obs.counter "sim.group.unused")
  in
  List.iter
    (fun g ->
      group_counters.(Model.group_index g) <-
        Obs.counter ("sim.group." ^ Model.group_name m g))
    (Model.groups m);
  let rec t =
    {
      comp;
      behs;
      signals;
      overrides;
      src_sig = Array.map (Array.map (fun (sb, _) -> signals.(bi sb))) srcs;
      src_port = Array.map (Array.map snd) srcs;
      inputs = Array.map (Array.map (fun (sb, sp) -> signals.(bi sb).(sp))) srcs;
      order;
      rates = Array.of_list rates;
      order_rate;
      rate_hit = Array.make (List.length rates) false;
      cont_order;
      now = 0.0;
      nstep = 0;
      probes = Hashtbl.create 8;
      events_this_step = 0;
      integ;
      deriv = (fun time x dx -> deriv_into t time x dx);
      solver_substeps;
      group_exec;
      group_counters;
      hooks = Array.make n [||];
    }
  in
  t_ref := Some t;
  t

let reset t =
  Array.iter (fun beh -> beh.Block.reset ()) t.behs;
  List.iter
    (fun b ->
      let spec = Model.spec_of t.comp.Compile.model b in
      for p = 0 to spec.Block.n_out - 1 do
        t.signals.(bi b).(p) <- Value.zero t.comp.Compile.out_types.(bi b).(p)
      done)
    (Model.blocks t.comp.Compile.model);
  Hashtbl.iter (fun _ pb -> pb.pb_len <- 0) t.probes;
  t.now <- 0.0;
  t.nstep <- 0

type snapshot = {
  owner : t;
  sn_signals : Value.t array array;
  sn_now : float;
  sn_nstep : int;
  sn_events : int;
  sn_x : float array;
  sn_behs : (unit -> unit) array;  (* each behaviour's restorer *)
  sn_probes : ((int * int) * float array * float array) list;
      (* each probe's samples so far, times and values *)
}

(* a behaviour that resets state it cannot save would restore wrong *)
let check_saveable t =
  let d = Block.no_beh_state in
  Array.iteri
    (fun i beh ->
      if beh.Block.reset != d.Block.reset && beh.Block.save == d.Block.save
      then
        invalid_arg
          (Printf.sprintf
             "Sim.save: block %s overrides reset but not save, so its \
              state cannot be captured"
             (block_name t i)))
    t.behs

let save t =
  check_saveable t;
  {
    owner = t;
    sn_signals = Array.map Array.copy t.signals;
    sn_now = t.now;
    sn_nstep = t.nstep;
    sn_events = t.events_this_step;
    sn_x = Array.copy t.integ.x;
    sn_behs = Array.map (fun beh -> beh.Block.save ()) t.behs;
    sn_probes =
      Hashtbl.fold
        (fun k pb acc ->
          (k, Array.sub pb.pb_t 0 pb.pb_len, Array.sub pb.pb_v 0 pb.pb_len)
          :: acc)
        t.probes [];
  }

let restore t sn =
  if sn.owner != t then invalid_arg "Sim.restore: snapshot of another simulation";
  Array.iter (fun r -> r ()) sn.sn_behs;
  Array.iteri
    (fun i row -> Array.blit row 0 t.signals.(i) 0 (Array.length row))
    sn.sn_signals;
  Array.blit sn.sn_x 0 t.integ.x 0 (Array.length sn.sn_x);
  Hashtbl.iter
    (fun k pb ->
      match List.find_opt (fun (k', _, _) -> k' = k) sn.sn_probes with
      | None -> pb.pb_len <- 0
      | Some (_, ts, vs) ->
          let n = Array.length ts in
          if Array.length pb.pb_t < n then begin
            pb.pb_t <- Array.make n 0.0;
            pb.pb_v <- Array.make n 0.0
          end;
          Array.blit ts 0 pb.pb_t 0 n;
          Array.blit vs 0 pb.pb_v 0 n;
          pb.pb_len <- n)
    t.probes;
  t.now <- sn.sn_now;
  t.nstep <- sn.sn_nstep;
  t.events_this_step <- sn.sn_events

let time t = t.now
let base_dt t = t.comp.Compile.base_dt
let compiled t = t.comp

let probe t (b, p) =
  let key = (bi b, p) in
  if not (Hashtbl.mem t.probes key) then
    Hashtbl.replace t.probes key
      (probe_buf_create (Model.block_name t.comp.Compile.model b))

let probe_named t name p = probe t (Model.find t.comp.Compile.model name, p)

(* Each rate's sample hit, evaluated once per step for all its blocks *)
let sample_hits t =
  let base_dt = t.comp.Compile.base_dt in
  for r = 0 to Array.length t.rates - 1 do
    t.rate_hit.(r) <-
      (match t.rates.(r) with
      | Sample_time.R_const -> t.nstep = 0
      | rate -> Sample_time.hit rate ~time:t.now ~base_dt)
  done

(* Continuous-state integration over one base step, in place on the
   planned state vector. *)
let integrate t =
  let g = t.integ in
  if Array.length g.cowners > 0 then begin
    let x = g.x in
    for j = 0 to Array.length g.cowners - 1 do
      let s = t.behs.(g.cowners.(j)).Block.get_cstate () in
      Array.blit s 0 x g.offs.(j) (Array.length s)
    done;
    (* sub-stepping keeps stiff continuous dynamics (e.g. the motor's
       electrical pole) stable when the discrete base rate is slow *)
    let n = t.solver_substeps in
    let h = t.comp.Compile.base_dt /. float_of_int n in
    if Obs.enabled () then
      for i = 0 to n - 1 do
        let t0 = Obs.now_ns () in
        Ode.rk4_into g.ws t.deriv (t.now +. (float_of_int i *. h)) x h;
        Obs.record h_substep ((Obs.now_ns () -. t0) *. 1e-9)
      done
    else
      for i = 0 to n - 1 do
        Ode.rk4_into g.ws t.deriv (t.now +. (float_of_int i *. h)) x h
      done;
    unpack t x;
    (* leave the continuous signals consistent with the final state, not
       with the solver's last stage evaluation *)
    minor_pass t (t.now +. t.comp.Compile.base_dt)
  end

let record_probes t fr =
  match fr with
  | Some r ->
      Hashtbl.iter
        (fun (b, p) pb ->
          let v = Value.to_float t.signals.(b).(p) in
          probe_buf_push pb t.now v;
          Flight.signal_r r ~step:t.nstep ~time:t.now ~port:p ~value:v
            pb.pb_name)
        t.probes
  | None ->
      Hashtbl.iter
        (fun (b, p) pb ->
          probe_buf_push pb t.now (Value.to_float t.signals.(b).(p)))
        t.probes

let step t =
  (* supervision fuel point: a deadline or kill on the ambient token
     abandons the run between steps, where all state is reset-able *)
  Cancel.poll ();
  Flight.span_begin "sim.step";
  (* one ring fetch per step, shared with the probe burst below *)
  let fr = if Flight.enabled () then Some (Flight.recorder ()) else None in
  (match fr with
  | Some r ->
      Flight.step_mark_r r ~step:t.nstep ~time:t.now
        (Model.name t.comp.Compile.model)
  | None -> ());
  t.events_this_step <- 0;
  sample_hits t;
  let order = t.order and hits = t.rate_hit and rate = t.order_rate in
  for k = 0 to Array.length order - 1 do
    let i = order.(k) in
    if hits.(rate.(k)) then
      write_outputs t i
        (t.behs.(i).Block.out ~minor:false ~time:t.now (gather t i))
  done;
  for k = 0 to Array.length order - 1 do
    let i = order.(k) in
    if hits.(rate.(k)) then t.behs.(i).Block.update ~time:t.now (gather t i)
  done;
  record_probes t fr;
  integrate t;
  t.now <- t.now +. t.comp.Compile.base_dt;
  t.nstep <- t.nstep + 1;
  Obs.add c_steps 1;
  Flight.bump t.events_this_step;
  Flight.span_end ()

let run t ?(steps = max_int) ~until () =
  let n = ref 0 in
  while t.now < until -. 1e-12 && !n < steps do
    step t;
    incr n
  done

let value t (b, p) = t.signals.(bi b).(p)
let value_named t name p = value t (Model.find t.comp.Compile.model name, p)

let trace t (b, p) =
  match Hashtbl.find_opt t.probes (bi b, p) with
  | Some pb -> List.init pb.pb_len (fun i -> (pb.pb_t.(i), pb.pb_v.(i)))
  | None -> raise Not_found

let trace_named t name p = trace t (Model.find t.comp.Compile.model name, p)
let fire_group t g = exec_group t (Model.group_index g)

let override_output t (b, p) v =
  t.overrides.(bi b).(p) <- v;
  match v with Some v -> t.signals.(bi b).(p) <- v | None -> ()

let set_fault_hook t hooks =
  let n = Array.length t.signals in
  let fresh = Array.make n [||] in
  List.iter
    (fun ((b, p), h) ->
      let i = bi b in
      if i < 0 || i >= n || p < 0 || p >= Array.length t.signals.(i) then
        invalid_arg
          (Printf.sprintf "Sim.set_fault_hook: model %s has no output port %d:%d"
             (Model.name t.comp.Compile.model) i p);
      if Array.length fresh.(i) = 0 then
        fresh.(i) <- Array.make (Array.length t.signals.(i)) None;
      match fresh.(i).(p) with
      | Some _ ->
          invalid_arg
            (Printf.sprintf "Sim.set_fault_hook: port %s:%d hooked twice"
               (Model.block_name t.comp.Compile.model b) p)
      | None -> fresh.(i).(p) <- Some h)
    hooks;
  Array.blit fresh 0 t.hooks 0 n

let step_events t = t.events_this_step

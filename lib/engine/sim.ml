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

(* A block the engine evaluates through floats, planned at [create]:
   one with a float kernel, or a continuous-rate one without (the
   adapter, which runs its boxed [out]). [y] holds the block's outputs
   as floats: what its Value row reads as floats, or newer during a
   solver stage, when only blocks on the generic path write their
   rows. *)
type fblock = {
  fb : int;  (* block index *)
  kern : Block.kernel option;  (* [None]: the adapter *)
  off : int;  (* state owners: offset in the state vector *)
  u : float array;  (* kernel inputs *)
  y : float array;
  boxes : Value.t array;  (* scratch to box [y] into the row *)
  live_k : int array;  (* kernel inputs driven at continuous rate ... *)
  live_y : float array array;  (* ... read from their driver's [y] *)
  live_p : int array;
  held_k : int array;  (* kernel inputs held over a step, read from rows *)
  feeds_adapter : bool;  (* an adapter reads its row at every stage *)
}

(* Continuous-state integration, planned once at [create]: the packed
   state vector, advanced in place, and the RK4 workspace. *)
type integ = {
  fidx : int array;  (* per block: its index in [fbs], -1 when none *)
  fbs : fblock array;
  cont : fblock array;  (* the continuous-rate blocks, in order *)
  owners : fblock array;  (* the state owners, in order *)
  x : float array;
  ws : Ode.rk4_ws;
}

(* The step as closures over each block's own arrays, built from the
   installed hooks and overrides (see [plan]). *)
type plan = {
  outs : (unit -> unit) array;
      (* per block: its outputs at a major step or in a function-call
         group *)
  upds : (unit -> unit) array;  (* per block: its [update] *)
  major : (unit -> unit) array;  (* [outs] of [order] *)
  update : (unit -> unit) array;  (* [upds] of [order] at [upd] *)
  deriv : float array -> float array -> unit;
      (* the RK4 stage: the continuous subgraph at the stage state, then
         every owner's derivatives *)
  final : (unit -> unit) array;
      (* per continuous block: its outputs after the last stage, into
         its row *)
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
  upd : int array;
      (* the positions in [order] of the blocks whose [update] does
         something: a stateless block's is [Block.no_beh_state]'s *)
  rate_hit : bool array;  (* per rate: whether it hits this step *)
  mutable now : float;
  mutable nstep : int;
  probes : (int * int, probe_buf) Hashtbl.t;
  mutable events_this_step : int;
  integ : integ;
  mutable plan : plan;
  solver_substeps : int;
  group_exec : int array array;
      (* execution order per function-call group, indexed by
         [Model.group_index] *)
  group_upd : int array array;  (* same, the blocks with an [update] *)
  group_counters : Obs.counter array;  (* same indexing *)
  hooks : hook option array array;
      (* per block, per output port: the installed fault hook; [||] for
         a block none of whose ports is hooked *)
}

(* process-wide engine metrics *)
let c_steps = Obs.counter "sim.steps"
let c_events = Obs.counter "sim.events"

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

let arity_error t i outs =
  failwith
    (Printf.sprintf "block %s returned %d outputs, expected %d"
       (block_name t i) (Array.length outs) (Array.length t.signals.(i)))

(* the arity check reads the signal row, sized from the block's spec *)
let write_outputs t i outs =
  let sg = t.signals.(i) in
  let n = Array.length sg in
  if Array.length outs <> n then arity_error t i outs;
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

(* [y] from the row, as a reader of the row sees it *)
let readback t fb =
  let sg = t.signals.(fb.fb) and y = fb.y in
  for p = 0 to Array.length y - 1 do
    y.(p) <- Value.to_float sg.(p)
  done

(* box [y] into the row, through overrides and fault hooks *)
let publish t fb =
  let y = fb.y and bx = fb.boxes in
  for p = 0 to Array.length y - 1 do
    bx.(p) <- Value.F y.(p)
  done;
  write_outputs t fb.fb bx;
  readback t fb

let read_held t fb =
  let u = fb.u and hk = fb.held_k in
  let ss = t.src_sig.(fb.fb) and sp = t.src_port.(fb.fb) in
  for j = 0 to Array.length hk - 1 do
    let k = hk.(j) in
    u.(k) <- Value.to_float ss.(k).(sp.(k))
  done

let[@inline] read_live fb =
  let u = fb.u and lk = fb.live_k and ly = fb.live_y and lp = fb.live_p in
  for j = 0 to Array.length lk - 1 do
    u.(lk.(j)) <- ly.(j).(lp.(j))
  done

(* one evaluation of a float-planned block at the states in [x], its row
   written through overrides and hooks and read back *)
let eval t fb ~minor time x =
  match fb.kern with
  | Some k ->
      read_live fb;
      k.Block.outputs x fb.off fb.u fb.y;
      publish t fb
  | None ->
      let i = fb.fb in
      write_outputs t i (t.behs.(i).Block.out ~minor ~time (gather t i));
      readback t fb

(* block [i]'s outputs at a major step or in a function-call group, on
   the generic path: every port through its override and hook *)
let major_out t i =
  let f = t.integ.fidx.(i) in
  if f < 0 then
    write_outputs t i (t.behs.(i).Block.out ~minor:false ~time:t.now (gather t i))
  else begin
    let fb = t.integ.fbs.(f) in
    read_held t fb;
    eval t fb ~minor:false t.now t.integ.x
  end

(* [y] boxed into the row of a block without hooks or overrides, where
   [publish] would read back the same floats *)
let box_row sg y =
  for p = 0 to Array.length y - 1 do
    sg.(p) <- Value.F y.(p)
  done

(* The plan. A block whose ports carry no hook and no override, and
   whose row no adapter reads, runs from arrays captured here: its
   inputs copied from its drivers' rows or [y]s, its kernel or
   behaviour called, its outputs written as they come. Any other block
   (and every adapter) gets a closure that calls the generic path, so
   there is one engine. [set_fault_hook] rebuilds the plan, and so does
   [override_output] when a port switches between free and forced; a
   new value on a forced port never does. *)
let plan t =
  let g = t.integ in
  let x = g.x and tc = Ode.time_cell g.ws in
  let generic i =
    Array.length t.hooks.(i) > 0
    || Array.exists Option.is_some t.overrides.(i)
    || (let f = g.fidx.(i) in
        f >= 0 && (g.fbs.(f).kern = None || g.fbs.(f).feeds_adapter))
  in
  let kernel fb = Option.get fb.kern in
  let out i =
    if generic i then fun () -> major_out t i
    else
      let f = g.fidx.(i) and sg = t.signals.(i) in
      if f >= 0 then begin
        let fb = g.fbs.(f) in
        let k = kernel fb in
        fun () ->
          read_held t fb;
          read_live fb;
          k.Block.outputs x fb.off fb.u fb.y;
          box_row sg fb.y
      end
      else
        let beh = t.behs.(i) and ins = t.inputs.(i) in
        let ss = t.src_sig.(i) and sp = t.src_port.(i) in
        let n = Array.length sg in
        fun () ->
          for k = 0 to Array.length ins - 1 do
            ins.(k) <- ss.(k).(sp.(k))
          done;
          let outs = beh.Block.out ~minor:false ~time:t.now ins in
          if Array.length outs <> n then arity_error t i outs;
          for p = 0 to n - 1 do
            sg.(p) <- outs.(p)
          done
  in
  let upd i =
    let beh = t.behs.(i) and ins = t.inputs.(i) in
    let ss = t.src_sig.(i) and sp = t.src_port.(i) in
    fun () ->
      for k = 0 to Array.length ins - 1 do
        ins.(k) <- ss.(k).(sp.(k))
      done;
      beh.Block.update ~time:t.now ins
  in
  let n = Array.length t.signals in
  let outs = Array.init n out and upds = Array.init n upd in
  (* A stage evaluation of a continuous block at the stage state. A
     kernel block's live inputs come from its drivers' [y]s, captured
     here: one input (the common case) is one copy, without a loop or a
     bounds check ([k0] is an input of the block, [sp] a port of its
     driver, both checked by [Compile]). *)
  let stage_out fb =
    if generic fb.fb then fun x -> eval t fb ~minor:true tc.(0) x
    else
      let k = kernel fb and off = fb.off and u = fb.u and y = fb.y in
      match (fb.live_k, fb.live_y, fb.live_p) with
      | [| k0 |], [| sy |], [| sp |] ->
          fun x ->
            Array.unsafe_set u k0 (Array.unsafe_get sy sp);
            k.Block.outputs x off u y
      | _ ->
          fun x ->
            read_live fb;
            k.Block.outputs x off u y
  in
  let stage_deriv fb =
    let k = kernel fb and off = fb.off and u = fb.u in
    match (fb.live_k, fb.live_y, fb.live_p) with
    | [| k0 |], [| sy |], [| sp |] ->
        fun x dx ->
          Array.unsafe_set u k0 (Array.unsafe_get sy sp);
          k.Block.deriv tc x off u dx
    | _ ->
        fun x dx ->
          read_live fb;
          k.Block.deriv tc x off u dx
  in
  let cs = Array.map stage_out g.cont and ds = Array.map stage_deriv g.owners in
  let final fb =
    let i = fb.fb in
    if generic i then fun () ->
      eval t fb ~minor:true (t.now +. t.comp.Compile.base_dt) x
    else
      let k = kernel fb and sg = t.signals.(i) in
      fun () ->
        read_live fb;
        k.Block.outputs x fb.off fb.u fb.y;
        box_row sg fb.y
  in
  {
    outs;
    upds;
    major = Array.map (fun i -> outs.(i)) t.order;
    update = Array.map (fun k -> upds.(t.order.(k))) t.upd;
    deriv =
      (fun x dx ->
        for j = 0 to Array.length cs - 1 do
          cs.(j) x
        done;
        for j = 0 to Array.length ds - 1 do
          ds.(j) x dx
        done);
    final = Array.map final g.cont;
  }

let exec_group t gi =
  if gi < Array.length t.group_exec then begin
    let order = t.group_exec.(gi) and upd = t.group_upd.(gi) in
    let { outs; upds; _ } = t.plan in
    Obs.add t.group_counters.(gi) 1;
    for k = 0 to Array.length order - 1 do
      outs.(order.(k)) ()
    done;
    for k = 0 to Array.length upd - 1 do
      upds.(upd.(k)) ()
    done
  end

(* [targets.(k)]: the group wired to the firing block's event output
   [k], resolved at [create]; -1 when none is *)
let fire_event t targets k =
  t.events_this_step <- t.events_this_step + 1;
  Obs.add c_events 1;
  if k >= 0 && k < Array.length targets && targets.(k) >= 0 then
    exec_group t targets.(k)

(* the owners' initial conditions into the state vector, and every
   [y] from its row *)
let init_states t =
  let g = t.integ in
  Array.iter
    (fun fb ->
      let x0 = (Option.get fb.kern).Block.x0 in
      Array.blit x0 0 g.x fb.off (Array.length x0))
    g.owners;
  Array.iter (readback t) g.fbs

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
  let has_update i = behs.(i).Block.update != Block.no_beh_state.Block.update in
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
    let is_cont = Array.make n false in
    Array.iter (fun i -> is_cont.(i) <- true) cont_order;
    let planned =
      List.filter
        (fun i -> is_cont.(i) || behs.(i).Block.kernel <> None)
        (Array.to_list order)
    in
    let fidx = Array.make n (-1) in
    List.iteri (fun f i -> fidx.(i) <- f) planned;
    let nx i =
      match behs.(i).Block.kernel with
      | Some k -> Array.length k.Block.x0
      | None -> 0
    in
    let offs = Array.make n 0 and total = ref 0 in
    List.iter
      (fun i ->
        offs.(i) <- !total;
        total := !total + nx i)
      planned;
    let ys = Array.make n [||] in
    List.iter (fun i -> ys.(i) <- Array.make (Array.length signals.(i)) 0.0) planned;
    (* an adapter reads the rows of its drivers at every stage *)
    let feeds_adapter = Array.make n false in
    Array.iter
      (fun i ->
        if behs.(i).Block.kernel = None then
          Array.iter (fun (sb, _) -> feeds_adapter.(bi sb) <- true) srcs.(i))
      cont_order;
    let fbs =
      Array.of_list
        (List.map
           (fun i ->
             let src = srcs.(i) in
             let ks = List.init (Array.length src) Fun.id in
             let live, held =
               match behs.(i).Block.kernel with
               | None -> ([], [])
               | Some _ ->
                   List.partition (fun k -> is_cont.(bi (fst src.(k)))) ks
             in
             {
               fb = i;
               kern = behs.(i).Block.kernel;
               off = offs.(i);
               u = Array.make (Array.length src) 0.0;
               y = ys.(i);
               boxes = Array.make (Array.length signals.(i)) (Value.F 0.0);
               live_k = Array.of_list live;
               live_y = Array.of_list (List.map (fun k -> ys.(bi (fst src.(k)))) live);
               live_p = Array.of_list (List.map (fun k -> snd src.(k)) live);
               held_k = Array.of_list held;
               feeds_adapter = feeds_adapter.(i);
             })
           planned)
    in
    let owners = List.filter (fun fb -> nx fb.fb > 0) (Array.to_list fbs) in
    {
      fidx;
      fbs;
      cont = Array.map (fun i -> fbs.(fidx.(i))) cont_order;
      owners = Array.of_list owners;
      x = Array.make !total 0.0;
      ws = Ode.rk4_workspace !total;
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
  let group_upd =
    Array.map
      (fun o -> Array.of_list (List.filter has_update (Array.to_list o)))
      group_exec
  in
  let group_counters =
    Array.init n_groups (fun _ -> Obs.counter "sim.group.unused")
  in
  List.iter
    (fun g ->
      group_counters.(Model.group_index g) <-
        Obs.counter ("sim.group." ^ Model.group_name m g))
    (Model.groups m);
  let t =
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
      upd =
        Array.of_list
          (List.filter
             (fun k -> has_update order.(k))
             (List.init (Array.length order) Fun.id));
      rate_hit = Array.make (List.length rates) false;
      now = 0.0;
      nstep = 0;
      probes = Hashtbl.create 8;
      events_this_step = 0;
      integ;
      plan = { outs = [||]; upds = [||]; major = [||]; update = [||];
               deriv = (fun _ _ -> ()); final = [||] };
      solver_substeps;
      group_exec;
      group_upd;
      group_counters;
      hooks = Array.make n [||];
    }
  in
  t_ref := Some t;
  t.plan <- plan t;
  init_states t;
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
  init_states t;
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
  Array.iter (readback t) t.integ.fbs;
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
  if Array.length g.owners > 0 then begin
    (* discrete outputs are held over the step *)
    let cs = g.cont and os = g.owners in
    for j = 0 to Array.length cs - 1 do
      read_held t cs.(j)
    done;
    for j = 0 to Array.length os - 1 do
      read_held t os.(j)
    done;
    (* sub-stepping keeps stiff continuous dynamics (e.g. the motor's
       electrical pole) stable when the discrete base rate is slow *)
    let n = t.solver_substeps and { deriv; final; _ } = t.plan in
    let h = t.comp.Compile.base_dt /. float_of_int n in
    for i = 0 to n - 1 do
      Ode.rk4_into g.ws deriv (t.now +. (float_of_int i *. h)) g.x h
    done;
    (* leave the continuous signals consistent with the final state, not
       with the solver's last stage evaluation *)
    for j = 0 to Array.length final - 1 do
      final.(j) ()
    done
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
  (* one ring fetch per step, shared with the probe burst below *)
  let fr = if Flight.enabled () then Some (Flight.recorder ()) else None in
  (match fr with
  | Some r ->
      Flight.step_mark_r r ~step:t.nstep ~time:t.now
        (Model.name t.comp.Compile.model)
  | None -> ());
  t.events_this_step <- 0;
  sample_hits t;
  let { major; update; _ } = t.plan in
  let hits = t.rate_hit and rate = t.order_rate in
  for k = 0 to Array.length major - 1 do
    if hits.(rate.(k)) then major.(k) ()
  done;
  let upd = t.upd in
  for j = 0 to Array.length upd - 1 do
    if hits.(rate.(upd.(j))) then update.(j) ()
  done;
  record_probes t fr;
  integrate t;
  t.now <- t.now +. t.comp.Compile.base_dt;
  t.nstep <- t.nstep + 1;
  Obs.add c_steps 1

let run t ?(steps = max_int) ~until () =
  Flight.span "sim.run" @@ fun () ->
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

let override_output t (b, p) v =
  let i = bi b in
  let switched = Option.is_some t.overrides.(i).(p) <> Option.is_some v in
  t.overrides.(i).(p) <- v;
  (match v with Some v -> t.signals.(i).(p) <- v | None -> ());
  let f = t.integ.fidx.(i) in
  if f >= 0 then readback t t.integ.fbs.(f);
  if switched then t.plan <- plan t

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
  Array.blit fresh 0 t.hooks 0 n;
  t.plan <- plan t

let step_events t = t.events_this_step

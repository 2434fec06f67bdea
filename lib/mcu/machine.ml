type irq_id = int

type job = {
  jname : string;
  cycles : int;
  action : unit -> unit;
  stack_bytes : int;
}

type irq = {
  iname : string;
  prio : int;
  handler : unit -> job;
  mutable enabled : bool;
  mutable pending : bool;
  mutable pending_since : int;
  mutable overruns : int;
}

type running = {
  rjob : job;
  entry : int;  (* the job's row in the log *)
  rprio : int;
  mutable remaining : int;
  mutable resumed_at : int;
}

type cpu_state = Idle | Busy of running * running list

type t = {
  mcu : Mcu_db.t;
  evq : Evq.t;
  mutable irqs : irq array;
  mutable n_irqs : int;
  mutable cpu : cpu_state;
  preemptive : bool;
  base_stack : int;
  mutable now : int;
  mutable busy_cycles : int;
  mutable log : int array;  (* [stride] ints per dispatch, oldest first *)
  mutable n_jobs : int;
}

(* a log row: the vector, its raise, the job's start and finish (-1
   while it runs), its cycle budget and the stack depth at its start *)
let stride = 6
let f_vec = 0
let f_raised = 1
let f_started = 2
let f_finished = 3
let f_budget = 4
let f_depth = 5

let create ?(preemptive = false) ?(base_stack = 64) mcu =
  {
    mcu;
    evq = Evq.create ();
    irqs = [||];
    n_irqs = 0;
    cpu = Idle;
    preemptive;
    base_stack;
    now = 0;
    busy_cycles = 0;
    log = [||];
    n_jobs = 0;
  }

let traits t = t.mcu
let now_cycles t = t.now
let now t = float_of_int t.now /. t.mcu.Mcu_db.f_cpu_hz
let cycles_of_time t s = int_of_float (Float.round (s *. t.mcu.Mcu_db.f_cpu_hz))

let schedule_at t ~cycle action =
  if cycle < t.now then invalid_arg "Machine.schedule_at: past cycle";
  Evq.push t.evq ~cycle action

let schedule t ~after action =
  if after < 0 then invalid_arg "Machine.schedule: negative delay";
  Evq.push t.evq ~cycle:(t.now + after) action

let register_irq t ~name ~prio ~handler =
  let v =
    {
      iname = name;
      prio;
      handler;
      enabled = true;
      pending = false;
      pending_since = 0;
      overruns = 0;
    }
  in
  t.irqs <- Array.append t.irqs [| v |];
  let id = t.n_irqs in
  t.n_irqs <- id + 1;
  id

let set_irq_enabled t id en = t.irqs.(id).enabled <- en
let irq_name t id = t.irqs.(id).iname

let raise_irq t id =
  let v = t.irqs.(id) in
  if v.pending then v.overruns <- v.overruns + 1
  else begin
    v.pending <- true;
    v.pending_since <- t.now
  end

let highest_pending t =
  let best = ref None in
  Array.iteri
    (fun i v ->
      if v.pending && v.enabled then
        match !best with
        | None -> best := Some i
        | Some j -> if v.prio < t.irqs.(j).prio then best := Some i)
    t.irqs;
  !best

let stack_depth t =
  match t.cpu with
  | Idle -> t.base_stack
  | Busy (r, stack) ->
      List.fold_left
        (fun acc rr -> acc + rr.rjob.stack_bytes)
        (t.base_stack + r.rjob.stack_bytes)
        stack

let start_irq t id =
  let v = t.irqs.(id) in
  v.pending <- false;
  let job = v.handler () in
  let total =
    t.mcu.Mcu_db.irq_latency_cycles + job.cycles + t.mcu.Mcu_db.irq_exit_cycles
  in
  let entry = t.n_jobs in
  let r =
    { rjob = job; entry; rprio = v.prio; remaining = total; resumed_at = t.now }
  in
  (match t.cpu with
  | Idle -> t.cpu <- Busy (r, [])
  | Busy (cur, stack) ->
      (* preemption: suspend the current job *)
      cur.remaining <- cur.remaining - (t.now - cur.resumed_at);
      t.cpu <- Busy (r, cur :: stack));
  if (entry + 1) * stride > Array.length t.log then begin
    (* the first 1024 rows at once: a PIL run of 100 periods takes about
       1000, and each outgrown array stays resident until a major GC *)
    let rows = Stdlib.max 1024 (2 * t.n_jobs) in
    let log = Array.make (rows * stride) 0 in
    Array.blit t.log 0 log 0 (entry * stride);
    t.log <- log
  end;
  let o = entry * stride in
  t.log.(o + f_vec) <- id;
  t.log.(o + f_raised) <- v.pending_since;
  t.log.(o + f_started) <- t.now;
  t.log.(o + f_finished) <- -1;
  t.log.(o + f_budget) <- job.cycles;
  t.log.(o + f_depth) <- stack_depth t;
  t.n_jobs <- entry + 1

let rec try_dispatch t =
  match highest_pending t with
  | None -> ()
  | Some id -> (
      match t.cpu with
      | Idle ->
          start_irq t id;
          (* a zero-cycle job would complete immediately; handled by the
             main loop's completion check *)
          ()
      | Busy (cur, _) ->
          if t.preemptive && t.irqs.(id).prio < cur.rprio then begin
            start_irq t id;
            try_dispatch t
          end)

let complete_job t r =
  t.log.((r.entry * stride) + f_finished) <- t.now;
  r.rjob.action ()

let advance_to t ~cycle:target =
  if target < t.now then invalid_arg "Machine.advance_to: target in the past";
  (* interrupts enabled (or raised) outside of an advance are taken up
     front, before the clock moves *)
  try_dispatch t;
  let progress upto =
    (* account CPU busy time while moving the clock *)
    (match t.cpu with
    | Busy (r, _) ->
        t.busy_cycles <- t.busy_cycles + (upto - r.resumed_at);
        r.remaining <- r.remaining - (upto - r.resumed_at);
        r.resumed_at <- upto
    | Idle -> ());
    t.now <- upto
  in
  let rec loop () =
    let completion =
      match t.cpu with
      | Busy (r, _) -> Some (r.resumed_at + r.remaining)
      | Idle -> None
    in
    let next_ev = Evq.peek_cycle t.evq in
    let next_ev = match next_ev with Some c when c <= target -> Some c | _ -> None in
    let completion =
      match completion with Some c when c <= target -> Some c | _ -> None
    in
    match (completion, next_ev) with
    | None, None -> progress target
    | Some c, Some e when c <= e -> finish_at c
    | Some c, None -> finish_at c
    | _, Some e ->
        progress e;
        (* fire all events at this cycle *)
        let rec drain () =
          match Evq.peek_cycle t.evq with
          | Some c when c = e -> (
              match Evq.pop t.evq with
              | Some (_, action) ->
                  action ();
                  drain ()
              | None -> ())
          | _ -> ()
        in
        drain ();
        try_dispatch t;
        loop ()
  and finish_at c =
    progress c;
    match t.cpu with
    | Busy (r, stack) ->
        (match stack with
        | [] -> t.cpu <- Idle
        | top :: rest ->
            top.resumed_at <- t.now;
            t.cpu <- Busy (top, rest));
        complete_job t r;
        try_dispatch t;
        loop ()
    | Idle -> assert false
  in
  loop ()

let advance t ~cycles = advance_to t ~cycle:(t.now + cycles)
let run_until_time t s = advance_to t ~cycle:(cycles_of_time t s)
let busy t = match t.cpu with Busy _ -> true | Idle -> false

let busy_cycles t = t.busy_cycles

type entry = {
  vector : irq_id;
  raised : int;
  started : int;
  finished : int;
  budget : int;
  depth : int;
}

let log t =
  Array.init t.n_jobs (fun i ->
      let f k = t.log.((i * stride) + k) in
      {
        vector = f f_vec;
        raised = f f_raised;
        started = f f_started;
        finished = f f_finished;
        budget = f f_budget;
        depth = f f_depth;
      })

type profile = {
  release : Stats.summary;
  release_jitter : float;
  start_jitter : float;
  utilization : float;
  max_stack_bytes : int;
  overruns : int;
}

let profile ?budget t id ~period =
  let seconds c = float_of_int c /. t.mcu.Mcu_db.f_cpu_hz in
  let releases = ref [] and offsets = ref [] and stack = ref t.base_stack in
  for i = 0 to t.n_jobs - 1 do
    let f k = t.log.((i * stride) + k) in
    stack := Stdlib.max !stack (f f_depth);
    let selected =
      match budget with Some b -> f f_budget = b | None -> true
    in
    if f f_vec = id && selected then begin
      releases := seconds (f f_started - f f_raised) :: !releases;
      offsets := seconds (f f_started mod period) :: !offsets
    end
  done;
  {
    release = Stats.summary_or_zero !releases;
    release_jitter = Stats.jitter !releases;
    start_jitter = Stats.jitter !offsets;
    utilization =
      (if t.now = 0 then 0.0
       else float_of_int t.busy_cycles /. float_of_int t.now);
    max_stack_bytes = !stack;
    overruns = t.irqs.(id).overruns;
  }

(* a running record is mutable: the capture and every restore take
   their own copy *)
let copy_cpu = function
  | Idle -> Idle
  | Busy (r, stack) ->
      let cp r = { r with remaining = r.remaining } in
      Busy (cp r, List.map cp stack)

let save t =
  let evq = Evq.save t.evq in
  let n_irqs = t.n_irqs in
  let irqs = Array.map (fun v -> { v with enabled = v.enabled }) t.irqs in
  let cpu = copy_cpu t.cpu in
  let now = t.now and busy_cycles = t.busy_cycles and n_jobs = t.n_jobs in
  fun () ->
    evq ();
    if t.n_irqs > n_irqs then t.irqs <- Array.sub t.irqs 0 n_irqs;
    t.n_irqs <- n_irqs;
    Array.iteri
      (fun i s ->
        let v = t.irqs.(i) in
        v.enabled <- s.enabled;
        v.pending <- s.pending;
        v.pending_since <- s.pending_since;
        v.overruns <- s.overruns)
      irqs;
    t.cpu <- copy_cpu cpu;
    (* the jobs running at the capture run again: unfinish their rows *)
    (match cpu with
    | Busy (r, stack) ->
        List.iter
          (fun r -> t.log.((r.entry * stride) + f_finished) <- -1)
          (r :: stack)
    | Idle -> ());
    t.n_jobs <- n_jobs;
    t.now <- now;
    t.busy_cycles <- busy_cycles

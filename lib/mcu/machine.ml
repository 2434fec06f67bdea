type irq_id = int
type event = int

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
  (* the vector's job while it is on the CPU, running or preempted: a
     vector cannot preempt itself, so it has at most one *)
  mutable job : job;
  mutable entry : int;  (* the job's row in the log *)
  mutable remaining : int;
  mutable resumed_at : int;
}

type t = {
  mcu : Mcu_db.t;
  evq : Evq.t;
  mutable events : (int -> unit) array;  (* event handlers, by [event] *)
  mutable n_events : int;
  mutable irqs : irq array;
  mutable n_irqs : int;
  (* the vectors on the CPU, the running one last: the jobs it preempted
     lie below it *)
  mutable stack : irq_id array;
  mutable depth : int;
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
    events = [||];
    n_events = 0;
    irqs = [||];
    n_irqs = 0;
    stack = [||];
    depth = 0;
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

let on_event t f =
  let ev = t.n_events in
  if ev = Array.length t.events then begin
    let events = Array.make (Stdlib.max 8 (2 * ev)) ignore in
    Array.blit t.events 0 events 0 ev;
    t.events <- events
  end;
  t.events.(ev) <- f;
  t.n_events <- ev + 1;
  ev

let schedule_at t ~cycle ev arg =
  if cycle < t.now then invalid_arg "Machine.schedule_at: past cycle";
  Evq.push t.evq ~cycle ~handler:ev arg

let schedule t ~after ev arg =
  if after < 0 then invalid_arg "Machine.schedule: negative delay";
  Evq.push t.evq ~cycle:(t.now + after) ~handler:ev arg

let no_job = { jname = ""; cycles = 0; action = ignore; stack_bytes = 0 }

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
      job = no_job;
      entry = 0;
      remaining = 0;
      resumed_at = 0;
    }
  in
  t.irqs <- Array.append t.irqs [| v |];
  let id = t.n_irqs in
  t.n_irqs <- id + 1;
  if Array.length t.stack < t.n_irqs then t.stack <- Array.append t.stack [| 0 |];
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

(* the enabled pending vector of the lowest [prio], the first registered
   among equals; -1 when none is pending *)
let highest_pending t =
  let best = ref (-1) in
  for i = 0 to t.n_irqs - 1 do
    let v = t.irqs.(i) in
    if v.pending && v.enabled && (!best < 0 || v.prio < t.irqs.(!best).prio)
    then best := i
  done;
  !best

(* the running vector; only while [t.depth > 0] *)
let running t = t.irqs.(t.stack.(t.depth - 1))

let stack_depth t =
  let d = ref t.base_stack in
  for k = 0 to t.depth - 1 do
    d := !d + t.irqs.(t.stack.(k)).job.stack_bytes
  done;
  !d

let start_irq t id =
  let v = t.irqs.(id) in
  v.pending <- false;
  let job = v.handler () in
  let total =
    t.mcu.Mcu_db.irq_latency_cycles + job.cycles + t.mcu.Mcu_db.irq_exit_cycles
  in
  let entry = t.n_jobs in
  if t.depth > 0 then begin
    (* preemption: suspend the current job *)
    let cur = running t in
    cur.remaining <- cur.remaining - (t.now - cur.resumed_at)
  end;
  v.job <- job;
  v.entry <- entry;
  v.remaining <- total;
  v.resumed_at <- t.now;
  t.stack.(t.depth) <- id;
  t.depth <- t.depth + 1;
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
  let id = highest_pending t in
  if id >= 0 then
    if t.depth = 0 then
      (* a zero-cycle job would complete immediately; handled by the
         main loop's completion check *)
      start_irq t id
    else if t.preemptive && t.irqs.(id).prio < (running t).prio then begin
      start_irq t id;
      try_dispatch t
    end

(* move the clock, accounting the running job's progress *)
let progress t upto =
  if t.depth > 0 then begin
    let r = running t in
    t.busy_cycles <- t.busy_cycles + (upto - r.resumed_at);
    r.remaining <- r.remaining - (upto - r.resumed_at);
    r.resumed_at <- upto
  end;
  t.now <- upto

(* retire the running job at cycle [c] and resume the one below it *)
let finish_at t c =
  progress t c;
  let r = running t in
  t.depth <- t.depth - 1;
  if t.depth > 0 then (running t).resumed_at <- t.now;
  t.log.((r.entry * stride) + f_finished) <- t.now;
  r.job.action ();
  try_dispatch t

(* fire every event due at cycle [e] *)
let fire_at t e =
  progress t e;
  while (not (Evq.is_empty t.evq)) && Evq.peek_cycle t.evq = e do
    let ev = Evq.top_handler t.evq and arg = Evq.top_arg t.evq in
    Evq.pop t.evq;
    t.events.(ev) arg
  done;
  try_dispatch t

let advance_to t ~cycle:target =
  if target < t.now then invalid_arg "Machine.advance_to: target in the past";
  (* interrupts enabled (or raised) outside of an advance are taken up
     front, before the clock moves *)
  try_dispatch t;
  let continue = ref true in
  while !continue do
    let c =
      if t.depth > 0 then
        let r = running t in
        r.resumed_at + r.remaining
      else max_int
    in
    let has_c = t.depth > 0 && c <= target in
    let e = Evq.peek_cycle t.evq in
    let has_e = (not (Evq.is_empty t.evq)) && e <= target in
    if has_c && ((not has_e) || c <= e) then finish_at t c
    else if has_e then fire_at t e
    else begin
      progress t target;
      continue := false
    end
  done

let advance t ~cycles = advance_to t ~cycle:(t.now + cycles)
let run_until_time t s = advance_to t ~cycle:(cycles_of_time t s)
let busy t = t.depth > 0

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
    let o = i * stride in
    stack := Stdlib.max !stack t.log.(o + f_depth);
    let selected =
      match budget with Some b -> t.log.(o + f_budget) = b | None -> true
    in
    if t.log.(o + f_vec) = id && selected then begin
      let started = t.log.(o + f_started) in
      releases := seconds (started - t.log.(o + f_raised)) :: !releases;
      offsets := seconds (started mod period) :: !offsets
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

let save t =
  let evq = Evq.save t.evq in
  let n_irqs = t.n_irqs in
  let irqs = Array.map (fun v -> { v with enabled = v.enabled }) t.irqs in
  let stack = Array.sub t.stack 0 t.depth in
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
        v.overruns <- s.overruns;
        v.job <- s.job;
        v.entry <- s.entry;
        v.remaining <- s.remaining;
        v.resumed_at <- s.resumed_at)
      irqs;
    Array.blit stack 0 t.stack 0 (Array.length stack);
    t.depth <- Array.length stack;
    (* the jobs on the CPU at the capture run again: unfinish their rows *)
    Array.iter
      (fun id -> t.log.((irqs.(id).entry * stride) + f_finished) <- -1)
      stack;
    t.n_jobs <- n_jobs;
    t.now <- now;
    t.busy_cycles <- busy_cycles

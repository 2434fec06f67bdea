(* Domain parallelism: one parallel map for the campaigns, one
   long-lived worker queue for serve.

   A campaign item (one seed run, one model's check) takes milliseconds,
   and a run has at most a few dozen of them, so [map] needs no
   scheduler: the domains take indices from one atomic counter until it
   runs out, and each result lands in its own slot. *)

(* OCaml 5.1 runs at most [Max_domains] domains at once (caml/domain.h:
   128 on 64-bit hosts, 16 on 32-bit ones), the calling domain
   included *)
let max_jobs = (if Sys.word_size = 64 then 128 else 16) - 1

let check_jobs jobs =
  if jobs > max_jobs then
    raise
      (Supervise.Bad_request
         (Printf.sprintf
            "--jobs %d: at most %d (the OCaml runtime runs at most %d \
             domains, this one included)"
            jobs max_jobs (max_jobs + 1)))

(* keep the lowest-index failure: deterministic whichever domain's
   exception lost the race *)
let record_failure failed i e bt =
  let rec go () =
    let cur = Atomic.get failed in
    let better = match cur with None -> true | Some (j, _, _) -> i < j in
    if better && not (Atomic.compare_and_set failed cur (Some (i, e, bt)))
    then go ()
  in
  go ()

let map ~jobs n f =
  if n < 0 then invalid_arg "Exec_pool.map";
  check_jobs jobs;
  if n = 0 then [||]
  else if jobs <= 1 || n = 1 then Array.init n (f ())
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failed = Atomic.make None in
    let work () =
      (* this domain's [f ()], built on its first item *)
      let g = lazy (f ()) in
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (match Lazy.force g i with
          | v -> results.(i) <- Some v
          | exception e ->
              record_failure failed i e (Printexc.get_raw_backtrace ()));
          loop ()
        end
      in
      loop ()
    in
    (* a spawned domain publishes its sink before the join releases the
       caller, whose snapshot then holds its counts; a spawn refused by
       the runtime (nested maps past its domain cap) leaves the items to
       the domains already running *)
    let rec spawn k =
      if k = 0 then []
      else
        match Domain.spawn (fun () -> work (); Obs.publish ()) with
        | d -> d :: spawn (k - 1)
        | exception Failure _ -> []
    in
    let domains = spawn (min jobs n - 1) in
    work ();
    List.iter Domain.join domains;
    (match Atomic.get failed with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map Option.get results
  end

(* ---- serve's queue ---- *)

type t = {
  queue : (unit -> unit) Queue.t;  (* guarded by [lock] *)
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable live : bool;
  mutable domains : unit Domain.t array;
}

let c_tasks = Obs.counter "exec.tasks"
let c_task_errors = Obs.counter "exec.task_errors"
let h_task = Obs.hist "exec.task_s"

(* a task must not kill its worker: anything escaping it is counted and
   printed to stderr, and the worker keeps serving *)
let run_task task =
  Obs.add c_tasks 1;
  let t0 = Obs.now_ns () in
  (try task ()
   with e ->
     Obs.add c_task_errors 1;
     prerr_endline
       ("exec_pool: uncaught exception in task: " ^ Printexc.to_string e));
  if Obs.enabled () then Obs.record h_task ((Obs.now_ns () -. t0) *. 1e-9);
  Obs.publish ()

let rec worker pool () =
  Mutex.lock pool.lock;
  while pool.live && Queue.is_empty pool.queue do
    Condition.wait pool.nonempty pool.lock
  done;
  (* after [shutdown], the queued tasks still run *)
  let task = Queue.take_opt pool.queue in
  Mutex.unlock pool.lock;
  match task with
  | Some task ->
      run_task task;
      worker pool ()
  | None -> ()

let create ?workers () =
  let workers =
    match workers with
    | Some n when n >= 1 -> n
    | Some _ -> invalid_arg "Exec_pool.create: workers must be >= 1"
    | None -> min max_jobs (Domain.recommended_domain_count ())
  in
  check_jobs workers;
  let pool =
    {
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      live = true;
      domains = [||];
    }
  in
  pool.domains <- Array.init workers (fun _ -> Domain.spawn (worker pool));
  pool

let submit pool task =
  Mutex.protect pool.lock (fun () ->
      Queue.push task pool.queue;
      Condition.signal pool.nonempty)

let shutdown pool =
  if pool.live then begin
    Mutex.protect pool.lock (fun () ->
        pool.live <- false;
        Condition.broadcast pool.nonempty);
    Array.iter Domain.join pool.domains
  end

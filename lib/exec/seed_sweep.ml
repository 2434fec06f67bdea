(* One seed sweep for every campaign (see the interface). Jobs
   independence rests on three things done here once: per-seed runs
   start from the seed alone (a fresh flight track, a body that resets
   its subject), every domain owns its subject, and [Exec_pool.map]
   lands results by index, so the outcomes are the same array whatever
   [--jobs] is. *)

let bad_request fmt =
  Printf.ksprintf (fun msg -> raise (Supervise.Bad_request msg)) fmt

let horizon_steps ~period t_end =
  if not (Float.is_finite t_end) then
    bad_request "t_end must be finite, got %g" t_end;
  (* rounding a ratio past [max_int] to int would overflow *)
  let ratio = (t_end /. period) +. 0.5 in
  if ratio >= float_of_int max_int then
    bad_request "t_end %g s is %.3g steps of %g s, more than the %d-step limit"
      t_end ratio period max_int;
  let steps = int_of_float ratio in
  if steps < 1 then
    bad_request "t_end must span at least one %g s step, got %g" period t_end;
  steps

let check_seeds seeds =
  if seeds < 1 then bad_request "seed count must be >= 1, got %d" seeds

type ('p, 'r) t = {
  plan : 'p;
  outcomes : (int * 'r Supervise.outcome) array;
  wall_s : float;
}

let run ?(jobs = 1) ?policy ?(on_run = fun _ _ -> ()) ?(track_base = 0) ~seeds
    ~track ~label ~subject ~plan body =
  check_seeds seeds;
  Exec_pool.check_jobs jobs;
  (* the warm-up: this domain's subject, before any other domain starts *)
  let warm = subject () in
  let plan = plan warm in
  let caller = Domain.self () in
  let on_run_lock = Mutex.create () in
  let one s i =
    let seed = i + 1 in
    let go () =
      Flight.begin_track ~id:(track_base + seed) ~name:track;
      body plan s seed
    in
    let o =
      match policy with
      | None -> { Supervise.result = Ok (go ()) }
      | Some policy ->
          Supervise.supervise ~policy
            ~label:(Printf.sprintf "%s:seed%d" label seed)
            go
    in
    (match o.Supervise.result with
    | Ok r -> Mutex.protect on_run_lock (fun () -> on_run seed r)
    | Error _ -> ());
    (seed, o)
  in
  let t0 = Obs.now_ns () in
  let outcomes =
    Exec_pool.map ~jobs seeds (fun () ->
        one (if Domain.self () = caller then warm else subject ()))
  in
  { plan; outcomes; wall_s = (Obs.now_ns () -. t0) *. 1e-9 }

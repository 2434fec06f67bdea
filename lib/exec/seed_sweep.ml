(* One seed sweep for every campaign (see the interface). Jobs
   independence rests on three things done here once: per-seed runs
   start from the seed alone (a fresh flight track, a body that resets
   its subject), every domain owns its subject, and [Exec_pool.map]
   lands results by index, so the outcomes are the same array whatever
   [--jobs] is. *)

let bad_request fmt =
  Printf.ksprintf (fun msg -> raise (Supervise.Bad_request msg)) fmt

type ('p, 'r) t = {
  plan : 'p;
  outcomes : (int * 'r Supervise.outcome) array;
  wall_s : float;
}

let run ?(jobs = 1) ?policy ?(on_run = fun _ _ -> ()) ?(track_base = 0) ~seeds
    ~track ~label ~subject ~plan body =
  if seeds < 1 then bad_request "seed count must be >= 1, got %d" seeds;
  Exec_pool.check_jobs jobs;
  (* the warm-up: this domain's subject, before any other domain starts *)
  let warm = subject () in
  let plan = plan warm in
  let caller = Domain.self () in
  let one s i =
    let seed = i + 1 in
    let go () =
      (* inside the envelope: a retried attempt restarts the track *)
      Flight.begin_track ~id:(track_base + seed) ~name:track;
      body plan s seed
    in
    let o =
      match policy with
      | None -> { Supervise.result = Ok (go ()); attempts = 1 }
      | Some policy ->
          Supervise.supervise ~policy
            ~label:(Printf.sprintf "%s:seed%d" label seed)
            go
    in
    (match o.Supervise.result with Ok r -> on_run seed r | Error _ -> ());
    (seed, o)
  in
  let t0 = Obs.now_ns () in
  let outcomes =
    Exec_pool.map ~jobs seeds (fun () ->
        one (if Domain.self () = caller then warm else subject ()))
  in
  { plan; outcomes; wall_s = (Obs.now_ns () -. t0) *. 1e-9 }

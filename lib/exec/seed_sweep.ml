(* One seed sweep for every campaign (see the interface). Jobs
   independence rests on three things done here once: per-seed runs
   start from the seed alone (a fresh flight track, a body that resets
   its subject), every domain owns its subject, and [Exec_pool.run_map]
   lands results by index, so the outcomes are the same array whatever
   [--jobs] is. *)

let bad_request fmt =
  Printf.ksprintf (fun msg -> raise (Supervise.Bad_request msg)) fmt

type ('p, 'r) t = {
  plan : 'p;
  outcomes : (int * 'r Supervise.outcome) array;
  wall_s : float;
}

let run ?pool ?policy ?(on_run = fun _ _ -> ()) ~seeds ~track ~label ~subject
    ~plan body =
  if seeds < 1 then bad_request "seed count must be >= 1, got %d" seeds;
  let local =
    match pool with
    | None ->
        let s = subject () in
        fun () -> s
    | Some _ ->
        let key = Domain.DLS.new_key subject in
        fun () -> Domain.DLS.get key
  in
  (* the warm-up: this domain's subject, before any worker builds one *)
  let plan = plan (local ()) in
  let one i =
    let seed = i + 1 in
    let s = local () in
    let go () =
      (* inside the envelope: a retried attempt restarts the track *)
      Flight.begin_track ~id:seed ~name:track;
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
    match pool with
    | None -> Array.init seeds one
    | Some pool -> Exec_pool.run_map pool seeds one
  in
  { plan; outcomes; wall_s = (Obs.now_ns () -. t0) *. 1e-9 }

let with_jobs jobs f =
  if jobs <= 1 then f None
  else Exec_pool.with_pool ~workers:jobs (fun pool -> f (Some pool))

(** The one seed sweep of every campaign: run a per-seed body for seeds
    1..N, on this domain or sharded by {!Exec_pool.map}, and return the
    outcomes in seed order.

    [ecsd faultsim] ({!Fault_campaign}), serve's [faultsim] job and
    [ecsd diff --seeds] all go through {!run}, which wires once what a
    campaign needs to be jobs-independent: a subject per domain (built
    on this domain first, so configuration errors surface before any
    worker starts), a flight track per seed, the optional {!Supervise} envelope, and results
    merged by seed whatever domain computed them. *)

val bad_request : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Supervise.Bad_request} with a formatted message: the one
    way a run size out of range is reported, so the CLI turns it into an
    [error:] line with exit 2 and [serve] into a [bad_request] record. *)

val horizon_steps : period:float -> float -> int
(** [horizon_steps ~period t_end] is the number of whole [period] steps
    a run of [t_end] seconds takes, rounded to nearest: the one check of
    a simulation horizon. @raise Supervise.Bad_request when [t_end] is
    not finite, rounds to no step, or to more than [max_int] steps. *)

val check_seeds : int -> unit
(** The one check of a seed count, done by {!run} before anything runs.
    @raise Supervise.Bad_request when it is below 1. *)

type ('p, 'r) t = {
  plan : 'p;  (** what [plan] derived from this domain's subject *)
  outcomes : (int * 'r Supervise.outcome) array;
      (** [(seed, outcome)] for seeds 1..N, in seed order *)
  wall_s : float;  (** monotonic wall time of the seeds, warm-up excluded *)
}

val run :
  ?jobs:int ->
  ?policy:Supervise.policy ->
  ?on_run:(int -> 'r -> unit) ->
  ?track_base:int ->
  seeds:int ->
  track:string ->
  label:string ->
  subject:(unit -> 's) ->
  plan:('s -> 'p) ->
  ('p -> 's -> int -> 'r) ->
  ('p, 'r) t
(** [run ~seeds ~track ~label ~subject ~plan body] builds this domain's
    subject, computes [plan] from it (validating run sizes there raises
    before any seed runs), then evaluates [body plan subject seed] for
    seeds 1..[seeds]. Each seed's run starts its own flight track
    [(track_base + seed, track)] ([track_base] defaults to 0: the
    track id is the seed).

    - With [jobs] (default 1) above 1 the seeds are sharded by
      {!Exec_pool.map} over up to [jobs] domains. This domain's seeds
      run on the subject [plan] saw; every other domain that takes a
      seed builds its own through [subject], on its first seed, so the
      subject's mutable state stays domain-local. A body's result must
      therefore depend only on the seed, not on what ran before on the
      subject (a body may reuse work an earlier seed left on it, as
      [Fault_campaign] does, if the result stays the same).
    - Without [policy] a raising body aborts the sweep (the lowest
      failing seed's exception). With [policy] each seed
      runs under {!Supervise.supervise} with label [label ^ ":seed" ^ N]
      and a failure becomes that seed's [Error] outcome.
    - [on_run seed r] fires after each successful seed, on the domain
      that ran it, one call at a time: calls never overlap, whatever
      [jobs] is.

    @raise Supervise.Bad_request when [seeds < 1] or
    [jobs > Exec_pool.max_jobs], before [subject] is called. *)

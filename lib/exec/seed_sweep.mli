(** The one seed sweep of every campaign: run a per-seed body for seeds
    1..N, sequentially or sharded over an {!Exec_pool}, and return the
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

type ('p, 'r) t = {
  plan : 'p;  (** what [plan] derived from this domain's subject *)
  outcomes : (int * 'r Supervise.outcome) array;
      (** [(seed, outcome)] for seeds 1..N, in seed order *)
  wall_s : float;  (** monotonic wall time of the seeds, warm-up excluded *)
}

val run :
  ?pool:Exec_pool.t ->
  ?policy:Supervise.policy ->
  ?on_run:(int -> 'r -> unit) ->
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
    [(seed, track)].

    - Without [pool] the seeds run in order on this domain, all on the
      one subject. With [pool] they are sharded by {!Exec_pool.run_map}
      and every domain builds its own subject through [subject], so the
      subject's mutable state stays domain-local; a body's result must
      therefore depend only on the seed, not on what ran before on the
      subject (a body may reuse work an earlier seed left on it, as
      [Fault_campaign] does, if the result stays the same).
    - Without [policy] a raising body aborts the sweep (the lowest
      failing seed's exception, under a pool). With [policy] each seed
      runs under {!Supervise.supervise} with label [label ^ ":seed" ^ N]
      and a failure becomes that seed's [Error] outcome.
    - [on_run seed r] fires after each successful seed, on the domain
      that ran it: under a pool it must synchronize its own state.

    @raise Supervise.Bad_request when [seeds < 1]. *)

val with_jobs : int -> (Exec_pool.t option -> 'a) -> 'a
(** [with_jobs n f] is [f None] when [n <= 1] (run on this domain), or
    [f (Some pool)] over a pool of [n] workers that is shut down
    afterwards — the meaning of every campaign's [--jobs]. *)

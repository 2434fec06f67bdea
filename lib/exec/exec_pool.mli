(** Domain parallelism: {!map} for campaigns, a worker queue for serve.

    - {!map} — evaluate [n] independent items across up to [jobs]
      domains and return the results in index order ([ecsd faultsim],
      [ecsd diff --seeds], [ecsd check]). Results land in their slots
      whichever domain computed them, so the output is the same whatever
      [jobs] is.
    - {!create}/{!submit} — a fixed set of worker domains serving one
      mutex-guarded queue of fire-and-forget tasks ([ecsd serve]'s entry
      point; ordering is the caller's business).

    Spawned domains publish their observability sinks ({!Obs.publish})
    before {!map} returns and after every queued task, so campaign
    counters and histograms survive them. Flight's host-ring registry
    keeps one ring per domain that recorded a span, so every {!map}
    that records spans leaves one ring per domain it spawned: fine for
    the one map a CLI command runs, which is why serve, a long-lived
    process, keeps its workers instead. *)

val max_jobs : int
(** The most domains a [jobs] count may ask for: the OCaml runtime's
    domain limit ([Max_domains] in [caml/domain.h], 128 on 64-bit
    hosts) less the calling domain. *)

val check_jobs : int -> unit
(** @raise Supervise.Bad_request when [jobs > max_jobs]. {!map} and
    {!create} check before they spawn anything. *)

val map : jobs:int -> int -> (unit -> int -> 'a) -> 'a array
(** [map ~jobs n f] is [[| g 0; ...; g (n-1) |]] where each domain
    taking items has its own [g = f ()], built on that domain before its
    first item (a domain that takes none builds none): the place for
    per-domain mutable state such as a simulation subject.

    With [jobs <= 1] or [n <= 1] everything runs on this domain.
    Otherwise [min jobs n - 1] domains are spawned; they and this domain
    take indices from one shared counter, and all are joined before
    [map] returns.

    Every item runs; if any raised, the exception of the {e lowest}
    failing index is re-raised afterwards — the same under any
    schedule.

    @raise Supervise.Bad_request when [jobs > max_jobs].
    @raise Invalid_argument when [n < 0]. *)

type t
(** Serve's worker pool. *)

val create : ?workers:int -> unit -> t
(** Spawn [workers] domains (default
    [Domain.recommended_domain_count ()], capped at {!max_jobs}).
    @raise Supervise.Bad_request when [workers > max_jobs]. *)

val submit : t -> (unit -> unit) -> unit
(** Queue one task. An exception escaping it is counted
    ([exec.task_errors]) and printed to stderr, and the worker keeps
    serving. *)

val shutdown : t -> unit
(** Let the workers finish every queued task, then join their domains.
    Idempotent; no task may be submitted after it. *)

(** Observability: metrics, their export, and the switch for timed spans.

    The paper's PIL stage exists to *measure* the generated application
    (execution times, response latency, jitter, memory). This module
    gives the environment itself the same treatment: process-wide
    counters / gauges / log-scale latency histograms, and snapshot/export
    APIs consumed by {!Bench_json}, the [ecsd --metrics] flag
    and the bench harness. Nestable timed spans are [Flight.span] events
    kept per domain; {!enabled} switches them along with the metrics.

    Everything is disabled by default and strictly zero-cost when
    disabled: each entry point checks {!enabled} once and the disabled
    path performs no allocation, no clock read and no hash lookup, so
    instrumented hot loops (the MIL engine's [Sim.step]) keep their
    golden-trace semantics and their speed.

    {b Multicore:} collection state is domain-local. Each domain records
    into a private sink with no synchronisation on the hot path; worker
    domains fold their sink into a process-wide aggregate with
    {!publish} (the campaign pool does this once per job), and all read
    APIs report the calling domain's sink merged with that aggregate.
    {!Export.merge} — the merge underneath — is associative and, on
    counters and histogram buckets, commutative, so campaign totals do
    not depend on which domain ran which job. *)

(** {2 Master switch} *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Turning collection off does not clear recorded data; {!reset} does
    ([Flight.reset] for spans). *)

val now_ns : unit -> float
(** Monotonic clock, nanoseconds (arbitrary origin). *)

(** {2 Counters and gauges} *)

type counter

val counter : string -> counter
(** Find-or-create a process-wide named counter. Creation is the slow
    path; keep the handle and use {!add} in hot code. *)

val add : counter -> int -> unit
(** O(1), no allocation; no-op when disabled. *)

val counter_value : counter -> int

val incr_counter : ?by:int -> string -> unit
(** Lookup convenience for cold paths. *)

val set_gauge : string -> float -> unit

(** {2 Histograms}

    Log-scale (base-2 exponent with 16 sub-buckets, HDR-style): O(1)
    record, bounded memory, quantile relative error <= 1/32 + one
    sub-bucket width (~6 %). Values are whatever unit the call site
    uses; the convention in this codebase is seconds. *)

type hist

type hist_summary = {
  hs_count : int;
  hs_min : float;  (** exact *)
  hs_max : float;  (** exact *)
  hs_mean : float;  (** exact *)
  hs_p50 : float;
  hs_p95 : float;
  hs_p99 : float;
}

val hist : string -> hist
(** Find-or-create a process-wide named histogram. *)

val record : hist -> float -> unit
(** O(1), no allocation; no-op when disabled. *)

val record_named : string -> float -> unit
val hist_summary : hist -> hist_summary
val hist_quantile : hist -> float -> float
(** [hist_quantile h q], [0 <= q <= 1]; 0 when empty. *)

(** {2 Snapshot} *)

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;
  hists : (string * hist_summary) list;
}

val snapshot : unit -> snapshot
(** The calling domain's sink merged with the published aggregate; all
    registered counter/histogram names appear (zeros included), sorted. *)

val reset : unit -> unit
(** Zero the calling domain's sink and the published aggregate.
    Registered names survive (handles stay valid). Other domains' local
    sinks are untouched — workers clear theirs when they {!publish}. *)

(** {2 Cross-domain aggregation} *)

val publish : unit -> unit
(** Fold the calling domain's sink into the process-wide published
    aggregate and clear the local sink. Worker domains call this when a
    campaign job completes (and before exiting), so the spawning domain
    sees their counts. Takes one mutex — keep it off per-step paths. *)

(** Immutable sink snapshots with a deterministic merge: the unit of
    data the campaign pool moves between domains, exposed for tests and
    tooling. [merge] is associative; counter sums and histogram bucket
    sums are also commutative, so any merge tree over the same exports
    yields the same totals. Gauges merge with [Float.max]. *)
module Export : sig
  type t

  val empty : t
  val of_local : unit -> t
  (** Snapshot the calling domain's sink (published data excluded). *)

  val merge : t -> t -> t

  val counters : t -> (string * int) list
  (** Sorted by name; zero-valued counters omitted. *)

  val gauges : t -> (string * float) list
  val hists : t -> (string * hist_summary) list
end

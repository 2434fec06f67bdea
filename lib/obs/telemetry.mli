(** Live-metrics export: Prometheus text exposition, and `ecsd serve`'s
    heartbeat lines and [stats] records, all built from the {!Obs}
    registry snapshot.

    (Named [Telemetry] because lib/control, also [(wrapped false)],
    already owns the module name [Metrics].) *)

val wall : float -> float
(** Identity, or [0.0] when [ECSD_WALL_ZERO] is set — keeps wall-derived
    fields byte-comparable across runs. *)

val prometheus : unit -> string
(** The current snapshot as Prometheus text: counters, gauges, and
    histograms as summaries (q0.5/q0.95/q0.99, [_sum], [_count]), each
    prefixed [ecsd_]. *)

val write_prometheus : path:string -> unit

val heartbeat_line : jobs_done:int -> inflight:int -> wall_s:float -> string
(** One heartbeat record as a compact JSON line (no trailing newline):
    job throughput plus the [serve.job_s] latency summary.
    Wall-derived fields respect [ECSD_WALL_ZERO]. *)

val stats : jobs_done:int -> wall_s:float -> (string * Bench_json.t) list
(** The fields of serve's [stats] record: the non-zero counters, the
    gauges and each non-empty histogram's count, p50, p95 and max. The
    quantiles of a histogram of seconds (named [*_s]) are wall times and
    respect [ECSD_WALL_ZERO]. *)

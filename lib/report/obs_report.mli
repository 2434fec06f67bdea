(** Human-readable rendering of observability data: the ASCII flame
    summary of host spans and a metrics table for {!Obs} snapshots — the
    terminal counterpart of the Chrome-trace JSON export. *)

val flame_summary : ?dropped:int -> Flight.event list -> string
(** Aggregate the [Span] events ({!Flight.spans}) by their path of
    names from the outermost span: calls, total/mean/max time and share
    of the outermost total, each span indented under its parent (the
    next span one level up to complete after it on the same domain),
    then one line for the [dropped] spans
    ({!Flight.spans_dropped}) when there are any. Other kinds are
    ignored. The [--metrics] and [--profile] span view. *)

val metrics_table : Obs.snapshot -> string
(** Counters, gauges and histogram summaries (latency columns rendered
    in engineering units). *)

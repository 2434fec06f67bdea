(** Human-readable rendering of observability data: the ASCII flame
    summary of host spans and a metrics table for {!Obs} snapshots — the
    terminal counterpart of the Chrome-trace JSON export. *)

val flame_summary : Flight.event list -> string
(** Aggregate the [Span] events ({!Flight.spans}) by (nesting depth,
    name): calls, total/mean/max time and share of the outermost total,
    indented by depth. Other kinds are ignored. *)

val metrics_table : Obs.snapshot -> string
(** Counters, gauges and histogram summaries (latency columns rendered
    in engineering units). *)

val profile_table : Obs.snapshot -> string
(** The [profile.*] histograms (per-pass / per-phase self-timing hooks)
    as a calls/total/mean/max table — the [--profile] rendering. *)

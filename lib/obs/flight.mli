(** Flight recorder: the environment's one trace ring — per-domain,
    fixed-capacity rings of binary trace events, and their export.

    Always-on-grade instrumentation for campaigns: recording an event is a
    handful of unboxed array stores on the owning domain (no lock, no
    allocation), and a disabled recorder costs one ref read.

    Events belong to a logical {e track} — the campaign seed or serve job
    id — not to the domain that executed them. A run calls {!begin_track}
    before stepping; on failure it calls {!capture}, which snapshots the
    last [capacity] events {e of that recording of the track} from the
    executing domain's ring. Because each track's events and its capture
    point are functions of the run alone, the resulting forensics bundles
    are byte-identical whatever [--jobs] is. Engine-level events (compile
    cache, closure compilation) are scheduling-dependent and live on the
    pseudo-track {!engine_track}, which is never captured into bundles.
    Bundles carry only virtual time (step index, simulated seconds);
    host spans (below) live on a second ring and never enter one. *)

type kind = Step | Signal | Fault | Engine | Mark | Span

val kind_name : kind -> string

type event = {
  ev_kind : kind;
  ev_track : int;
  ev_seq : int;  (** per-track sequence number, 0-based *)
  ev_step : int;  (** simulation step index, [-1] if not applicable *)
  ev_time : float;  (** simulated seconds (host seconds for a [Span]) *)
  ev_value : float;
  ev_arg : int;  (** kind-specific: port index, fired flag *)
  ev_label : string;
}

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Enable recording process-wide. Flip before spawning worker domains. *)

val set_capacity : int -> unit
(** Ring slots per domain (default 4096). Takes effect for rings created
    after the call; also replaces the calling domain's ring. Set it before
    any worker domain records. *)

val capacity : unit -> int

val engine_track : int
(** Pseudo-track ([-1]) for compile/cache events; excluded from bundles. *)

val begin_track : id:int -> name:string -> unit
(** Start (or resume) logical track [id] on the calling domain and reset
    its per-track sequence counter. *)

(** Hot-path recorders; no-ops when disabled. *)

val step_mark : step:int -> time:float -> string -> unit
val signal : step:int -> time:float -> port:int -> value:float -> string -> unit
val fault : ?step:int -> time:float -> fired:bool -> string -> unit
val engine : string -> unit
val mark : ?step:int -> ?time:float -> ?value:float -> string -> unit

(** {2 Batched hot path}

    A [recorder] is the calling domain's ring, fetched once (one DLS
    lookup) and then used for a burst of events — e.g. one simulation
    step's marker plus every probed output. The [_r] recorders skip the
    {!enabled} check: only use them after [enabled ()] returned true,
    never share a recorder across domains, and never hold one beyond
    the current burst. *)

type recorder

val recorder : unit -> recorder
val step_mark_r : recorder -> step:int -> time:float -> string -> unit

val signal_r :
  recorder -> step:int -> time:float -> port:int -> value:float -> string -> unit

(** {2 Forensics capture} *)

type bundle = {
  b_track : int;
  b_name : string;
  b_reason : string;
  b_dropped : int;  (** events of this track evicted before capture *)
  b_events : event list;  (** ascending [ev_seq] *)
}

val capture : reason:string -> unit
(** Snapshot the current track's current recording ([since 0]: an earlier
    recording of the same id on this domain is never mixed in) into the
    global capture store. First capture per track wins. *)

val captures : unit -> bundle list
(** All captured bundles, sorted by track id. *)

val clear_captures : unit -> unit

val reset : unit -> unit
(** Clear captures, replace the calling domain's ring and empty every
    host ring. Call it while no other domain records. *)

(** {2 Re-recording a stretch of a track}

    A campaign whose seeds share a bit-identical stretch of run records
    it once and re-records it under each later seed's track, so every
    bundle reads as if each seed had recorded it itself. *)

type segment
(** The current track's events from some sequence number on. *)

val track_seq : unit -> int
(** The calling domain's next sequence number on its current track
    ([0] when disabled): where a {!since} stretch starts. *)

val since : int -> segment
(** [since seq]: the events the current track recorded from [seq] on —
    how many, and those still on the calling domain's ring (at most
    {!capacity}). Empty when disabled. *)

val replay : segment -> unit
(** Record a {!since} segment again under the calling domain's current
    track, its sequence numbers continuing the track's (evicted events
    included), so a later {!capture} is the one recording the same
    events afresh would give. No-op when disabled. *)

(** {2 Host spans}

    The tool timing itself, switched by {!Obs.enabled} (not {!enabled}).
    Spans nest on a 64-deep stack per domain (no allocation per span); a
    closed span is one [Span] event — label = name, time = start, value
    = duration (host seconds), step = depth, arg = {!bump} count — in the
    domain's host ring of the newest 8192, created on its first span. *)

val span_begin : string -> unit
val span_end : unit -> unit

val span : string -> (unit -> 'a) -> 'a
(** [span name f] = begin; f (); end — exception-safe closure form for
    cold paths (use begin/end pairs in hot loops). *)

val bump : int -> unit
(** Add to the innermost open span's count (e.g. events fired during this
    step). No-op outside any span. *)

val spans : unit -> event list
(** Every domain's host spans, by domain id, each oldest first (in
    completion order). Read them after the recording domains joined. *)

(** {2 Export} *)

val captures_jsonl : unit -> string
(** One JSONL document for all bundles: a header line per bundle followed
    by its events. Byte-identical however tracks were scheduled. *)

val captures_chrome : unit -> string
(** Chrome-trace (chrome://tracing, Perfetto) array of the bundles: one
    lane per track, instant events at simulated-microsecond timestamps. *)

val spans_chrome : unit -> string
(** The same writer over {!spans}: one lane per domain, "X" events in µs
    after the earliest span, which the metadata's [wall_start] dates. *)

val write_captures : prefix:string -> (string * string) option
(** Write [<prefix>.jsonl] and [<prefix>_trace.json] if any bundles were
    captured; [None] when there is nothing to write. *)

val write_spans : path:string -> unit
(** Write {!spans_chrome} to [path]. *)

(** [ecsd serve]: a campaign queue. Job lines come in on a file
    descriptor, run supervised on a pool of worker domains, and one JSON
    record per line goes out, in submission order.

    A line names a job — [faultsim SCENARIO [SEEDS [T_END]]],
    [diff MODEL [STEPS [SCENARIO [SEED [ENGINE]]]]] or [stats]. Every
    failure is a structured record, never an exception: ["class"] is one
    of [bad_request | timeout | crashed | shed], and ["exit"] is 0
    success, 1 criterion failure (divergence or unrecovered run), 2 bad
    request, 3 timeout, 4 crash, 6 shed (5 is retired, not reused). *)

type fields = (string * Bench_json.t) list

val job :
  ?killed:bool Atomic.t ->
  id:int ->
  policy:Supervise.policy ->
  config:Servo_system.config ->
  stats:(unit -> fields) ->
  string ->
  fields
(** [job ~id ~policy ~config ~stats line] is the record of [line] but
    its ["id"]: on flight track [id], under {!Supervise.supervise} with
    [policy] and label [line], shed if [killed] is set. Malformed lines
    and out-of-range sizes are [bad_request] records; [stats] runs [stats]. A
    [faultsim] job's seeds record under tracks apart from every other
    job's, so each unrecovered seed leaves a bundle. *)

val split : string -> string list * string
(** [split data] is the newline-terminated lines of [data], trimmed,
    without blank lines and [#] comments, and the unterminated tail.
    [split (tail ^ chunk)] chunk by chunk, then [split (tail ^ "\n")],
    gives the lines of the whole stream. *)

type emitter
(** Records of jobs with ids 0, 1, ... that complete in any order,
    output in id order; safe to share between domains. *)

val emitter : heartbeat:int -> (string -> unit) -> emitter
(** [emitter ~heartbeat out] outputs through [out], under its lock, and
    with [heartbeat] > 0 a {!Telemetry.heartbeat_line} every [heartbeat]
    completions. *)

val admit : emitter -> int
(** Count one more job pending; returns the count before it. *)

val complete : emitter -> int -> string -> unit
(** [complete e id record] ends job [id]: [record] is output once every
    lower id's has been. *)

val loop :
  ?draining:bool Atomic.t ->
  ?killed:bool Atomic.t ->
  config:Servo_system.config ->
  jobs:int ->
  heartbeat:int ->
  policy:Supervise.policy ->
  queue:int ->
  out:(string -> unit) ->
  Unix.file_descr ->
  unit
(** [loop ~config ~jobs ~heartbeat ~policy ~queue ~out input] runs each
    line read from [input] as a {!job} on [jobs] worker domains (below
    1: one per recommended domain) and outputs the records through an
    {!emitter}. With [queue] > 0, a line read while [queue] jobs are
    pending comes back as a [shed] record instead. At end of input, or
    once [draining] is set (then reporting the jobs in flight on stderr
    and capturing the flight rings), it admits no more lines, waits for
    the admitted ones and shuts the pool down.
    @raise Supervise.Bad_request when [jobs] exceeds
    {!Exec_pool.max_jobs}, before any domain starts. *)

(** One [ecsd serve] request line, run to its result record.

    A line names a job — [faultsim SCENARIO [SEEDS [T_END]]],
    [diff MODEL [STEPS [SCENARIO [SEED [ENGINE]]]]] or [stats] — and
    {!run} returns the fields of its JSON result line (the caller adds
    the ["id"]). Every failure is a structured record, never an
    exception: ["class"] is one of [bad_request | timeout | crashed |
    transient | poisoned | shed], and ["exit"] is 0 success, 1
    criterion failure (divergence or unrecovered run), 2 bad request,
    3 timeout, 4 crash, 5 poisoned, 6 shed. *)

type fields = (string * Bench_json.t) list

val error_fields : job:string -> attempts:int -> Supervise.error -> fields
(** The record of a failed job. *)

val run :
  ?killed:bool Atomic.t ->
  policy:Supervise.policy ->
  config:Servo_system.config ->
  stats:(unit -> fields) ->
  string ->
  fields
(** [run ~policy ~config ~stats line] parses [line] and runs its job
    under {!Supervise.supervise} with [policy] (the label is the line,
    so chaos and jitter decisions depend on the request alone).
    Malformed lines and out-of-range sizes (seeds < 1, steps < 0, a
    non-finite or sub-period t_end) are [bad_request] records with exit
    2; [stats] runs the caller's introspection job. [killed] is the
    shutdown flag that sheds in-flight jobs. *)

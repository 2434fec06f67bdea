(** Named fault scenarios and the [.fault] file format.

    A scenario is a named list of scheduled faults — the unit a campaign
    sweeps over. Scenarios come from the built-in catalogue (the servo
    study's standard abuse set) or from a [.fault] file, one fault per
    line:

    {v
    # comment
    <kind> at=<s> duration=<s> [slot=<n>] [value=<x>] [every=<s>]
    v}

    Kinds: [stuck], [dropout], [offset], [noise], [glitch], [saturation],
    [jam], [load], [overrun], [wdog-suppress]. [value] is the kind's
    magnitude (counts for sensor kinds, duty for actuator kinds, N.m for
    [load], CPU cycles for [overrun]); kinds without a magnitude ignore
    it. Every number must be
    finite; [slot] and the counts of [offset], [noise], [glitch] and
    [overrun] must be whole numbers in int range, and all but the
    [offset] count non-negative. *)

type t = { sname : string; faults : Fault.t list }

val builtins : t list
(** The standard abuse set for the servo case study (fault window at
    0.9 s, after the last set-point step). *)

val builtin : string -> t option

val of_string : name:string -> string -> (t, string) result
(** Parse the [.fault] line format. Never raises, on any byte string:
    every error begins ["line N: "], with N the offending line or, for
    a scenario that declares no fault, the line the input ends on. *)

val load : string -> (t, string) result
(** Read a [.fault] file; the scenario is named after the basename. A
    path that cannot be opened or read (a directory) is an [Error]
    naming it. *)

val find : string -> (t, string) result
(** Resolve a built-in scenario name, else a file path. The error lists
    the built-in names. *)

val onset : ?only:(Fault.kind -> bool) -> t -> float
(** Earliest onset of a fault whose kind satisfies [only] (default: any
    fault); [infinity] when there is none. *)

val clear_time : t -> horizon:float -> float
(** When every fault is gone for good (capped at [horizon]). *)

val active_names : t -> time:float -> string list
(** Names of the faults whose windows cover [time]. *)

val check_hooks :
  sensor_slots:int -> refuse:(Fault.t -> string option) -> t -> unit
(** Refuse a scenario with a fault its subject would never inject: a
    fault for which [refuse] gives the reason the subject does not apply
    it, or a sensor fault on a slot outside [0 .. sensor_slots - 1].
    Every engine that runs a scenario checks it here before any step.
    @raise Supervise.Bad_request naming the fault and the reason (or
    the slot count). *)

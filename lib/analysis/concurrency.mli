(** Concurrency analysis of the PEERT schedule: the CON rule family.

    The generated application runs the periodic part of the model
    inside the timer interrupt and each function-call group inside the
    ISR of its triggering event (§5). Every signal whose producer and
    consumer resolve to different execution contexts is state shared
    between interrupt handlers. Under the non-preemptive scheme the
    paper's generated code uses ({!Rta.non_preemptive}), run-to-
    completion makes the sharing safe (CON002, informational); if the
    ISRs are made preemptive the interleaving is unprotected (CON001,
    error). Signals wider than the MCU word cannot be read atomically
    regardless (CON003). *)

val findings :
  ?preemptive:bool -> ?word_bits:int -> Compile.t -> Diag.finding list
(** [preemptive] defaults to [false], the policy of the generated code
    (mirrors {!Rta.analyze}'s mode); [word_bits] defaults to 16, the
    paper's MC56F8367 word size — pass the project MCU's value. *)

val watchdog_findings :
  project:Bean_project.t -> Compile.t -> Diag.finding list
(** CON004: every [Watch_dog] bean of the project must be serviced from
    the periodic execution context. A block advertises its service call
    through a ["wdog_bean"] string parameter naming the bean (as the
    {!Supervisor} safe-state block does). *)

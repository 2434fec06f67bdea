(** Cycle-level virtual MCU.

    A discrete-event machine standing in for the development board of the
    paper's PIL setup (§6). It models what the PIL experiments measure —
    CPU occupancy, interrupt dispatch with priorities and entry/exit
    latency, optional preemption, and stack usage — while on-chip
    peripherals ({!Timer_periph}, {!Pwm_periph}, {!Sci_periph}, …)
    schedule events and raise interrupts against it. Work executes as
    {e jobs}: named cycle budgets with a completion action, the cost
    coming from the generated code's {!Cost_model}. *)

type t
type irq_id

type job = {
  jname : string;
  cycles : int;  (** execution cost, CPU cycles *)
  action : unit -> unit;  (** semantic effect, applied at completion *)
  stack_bytes : int;
}

val create : ?preemptive:bool -> ?base_stack:int -> Mcu_db.t -> t
(** [preemptive] (default false — the paper's generated code runs model
    steps non-preemptively in the timer ISR) allows higher-priority
    interrupts to suspend a running job. [base_stack] is the main-context
    stack usage in bytes (default 64). *)

val traits : t -> Mcu_db.t
val now_cycles : t -> int
val now : t -> float
(** Simulated wall time in seconds, [cycles / f_cpu]. *)

val cycles_of_time : t -> float -> int
(** Convert seconds to cycles (rounded). *)

(** {2 Event scheduling (peripheral side)}

    An event is a handler registered once and an int argument given at
    each scheduling: a peripheral registers its handlers when it is
    created and schedules plain ints (a byte, a timer epoch) afterwards,
    so the event queue holds no closures and scheduling or firing an
    event allocates nothing. *)

type event

val on_event : t -> (int -> unit) -> event
(** Register a handler (asynchronous hardware events: the handler runs
    regardless of CPU business). Registrations last for the machine's
    lifetime, restores included. *)

val schedule : t -> after:int -> event -> int -> unit
(** [schedule t ~after ev arg] runs [ev]'s handler with [arg] [after]
    cycles from now. Events due at the same cycle fire in the order
    they were scheduled. *)

val schedule_at : t -> cycle:int -> event -> int -> unit

(** {2 Interrupts} *)

val register_irq :
  t -> name:string -> prio:int -> handler:(unit -> job) -> irq_id
(** Register a vector. Lower [prio] preempts/beats higher. The handler
    picks the job at dispatch time, so its cost may depend on state; a
    handler that returns jobs it built once dispatches without
    allocating. *)

val set_irq_enabled : t -> irq_id -> bool -> unit
val raise_irq : t -> irq_id -> unit
(** Mark pending; dispatched when the CPU can take it. Raising an
    already-pending vector records an overrun. *)

val irq_name : t -> irq_id -> string

(** {2 Execution} *)

val advance_to : t -> cycle:int -> unit
(** Process events, dispatch interrupts and retire jobs up to the given
    absolute cycle. *)

val advance : t -> cycles:int -> unit
val run_until_time : t -> float -> unit
(** [advance_to] the cycle corresponding to a wall time. *)

val busy : t -> bool
(** Whether a job is currently executing. *)

(** {2 Measurements (the PIL profiling data of §6)}

    The machine logs every dispatch as one row: the vector, the cycle it
    was raised, the cycles its job started and finished, the job's cycle
    budget and the stack depth its start reached. The log grows with the
    run (six ints a job). Everything the PIL and HIL stages and the
    scheduling experiments report about target jobs is {!profile}, one
    fold over it. *)

type entry = {
  vector : irq_id;
  raised : int;  (** cycle the vector was raised *)
  started : int;  (** cycle the job was dispatched *)
  finished : int;
      (** completion cycle, entry and exit included; [-1] while it runs *)
  budget : int;  (** the job's [cycles] *)
  depth : int;  (** stack depth in bytes once the job started *)
}

val log : t -> entry array
(** Every dispatch so far, oldest first. *)

type profile = {
  release : Stats.summary;
      (** the vector's release delays, raise to start, in seconds; a job
          still running counts *)
  release_jitter : float;  (** their peak-to-peak, seconds *)
  start_jitter : float;
      (** peak-to-peak of the job starts' offsets within the period grid,
          seconds *)
  utilization : float;  (** busy fraction of the machine's elapsed cycles *)
  max_stack_bytes : int;  (** the machine's stack high-water mark *)
  overruns : int;  (** raises that found the vector still pending *)
}

val profile : ?budget:int -> t -> irq_id -> period:int -> profile
(** Fold the log over one vector's jobs, or over those of them whose
    budget is [budget]; [period] (cycles) is the grid the start offsets
    are taken in, from cycle 0. Utilisation and the stack high-water are
    the machine's. *)

val busy_cycles : t -> int

(** {2 Checkpoints} *)

val save : t -> unit -> unit
(** Capture the machine now and return its restorer, callable any
    number of times: each call puts back the clock, the pending events,
    every vector's state, the job log's length (a row of a job then
    running reads it as running again), and the running and preempted
    jobs, so the machine then continues bit for bit as it did after the
    capture. The capture is a copy of the event heap's arrays and of
    the vectors' state. Pending events name this machine's handlers, so
    a restore is only meaningful on this machine, next to the same
    peripherals (restore theirs too, e.g. {!Wdog_periph.save}). Vectors
    registered after the capture are dropped; event handlers are
    kept. *)

(** Supervised job execution for campaigns and [ecsd serve].

    {!supervise} runs one job under a {!Cancel} token (deadline polled
    at the engines' step-loop fuel points) and classifies every failure
    into a structured taxonomy instead of letting it escape. Every job
    is a deterministic simulation, so a failing job fails the same way
    on every attempt: there is one attempt, and supervised campaign
    reports are byte-identical whatever [--jobs] is.

    Named [Supervise] because the PEERT layer owns the top-level
    [Supervisor] module (the generated safe-state statechart). *)

type error =
  | Timeout of float  (** the deadline, seconds *)
  | Crashed of exn  (** the job raised ([Bad_request] included) *)
  | Shed  (** refused admission, or killed mid-flight by shutdown *)

exception Bad_request of string
(** Raise from a job to classify its failure as a malformed request,
    reported with [error_class] ["bad_request"]. *)

val error_class : error -> string
(** Stable class enum: ["timeout" | "crashed" | "bad_request" |
    "shed"]. *)

val error_message : error -> string
(** Deterministic human-readable detail (uses [Printexc.to_string] for
    [Crashed]). *)

type policy = { deadline_s : float option  (** [None] = no deadline *) }

val default_policy : policy
(** No deadline. *)

type 'a outcome = { result : ('a, error) result }

val supervise :
  ?policy:policy -> ?killed:bool Atomic.t -> label:string -> (unit -> 'a) -> 'a outcome
(** Run [f] supervised. [label] names the job in flight-recorder marks;
    [killed] shares an external kill flag (shutdown cancels in-flight
    jobs as [Shed]). Never raises: every failure lands in [result]. *)

val record_shed : unit -> unit
(** Count one load-shedding refusal (the [supervisor.shed] counter) —
    called by serve's admission path, which sheds before any job (and
    therefore any {!supervise} call) exists. *)

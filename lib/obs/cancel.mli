(** Cooperative cancellation tokens.

    The execution engines' step loops are the fuel points: each step
    calls {!poll}, which raises {!Cancelled} when the ambient token's
    deadline has passed or its kill flag was set from another domain.
    Supervisors ({!Supervise}) install a token around a job with
    {!with_token}; code that never installs one pays a single
    domain-local read per poll. *)

type reason =
  | Deadline  (** the token's relative deadline expired *)
  | Killed  (** the shared kill flag was set (shutdown, load shedding) *)

exception Cancelled of reason

type token

val make : ?deadline_s:float -> ?killed:bool Atomic.t -> unit -> token
(** A token expiring [deadline_s] seconds from now (non-positive or
    omitted: never), optionally sharing an external [killed] flag so
    one atomic store cancels a whole fleet of jobs. *)

val kill : token -> unit
(** Set the token's kill flag (its next poll raises [Cancelled Killed]).
    Safe from any domain. *)

val with_token : token -> (unit -> 'a) -> 'a
(** Install the token as the calling domain's ambient token for the
    duration of [f] (restored on exit, exceptions included). Nesting
    shadows the outer token. *)

val poll : unit -> unit
(** The fuel point: raise {!Cancelled} if the ambient token demands it.
    No ambient token — one read, no clock, no allocation. The clock is
    consulted only every 64 polls, so deadline detection lags by at
    most 64 steps of the polling loop. *)

val active : unit -> bool
(** Whether the calling domain currently has an ambient token. *)

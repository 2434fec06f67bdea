(** Hierarchical state machines (the StateFlow role in the tool chain).

    Charts capture the mode logic of control applications — the case
    study's "switch between the manual and the automatic control mode"
    (§7). States form a tree; a transition exits up to the least common
    ancestor and enters down to the target's initial leaf, running exit,
    transition and entry actions in UML order. Events are strings;
    eventless ("tick") transitions fire on every evaluation until
    quiescence. The context ['ctx] is the chart's blackboard (the signals
    and locals of a Stateflow chart). *)

type 'ctx t

type 'ctx state_def = {
  sname : string;
  parent : string option;
  initial : bool;  (** initial child of its parent (or of the root) *)
  history : bool;
      (** shallow history: re-entering this composite resumes the child
          that was active when it was last exited, instead of the initial
          one (the H pseudostate) *)
  on_entry : 'ctx -> unit;
  on_exit : 'ctx -> unit;
}

type 'ctx transition_def = {
  src : string;
  dst : string;
  trigger : string option;  (** [None] is an eventless transition *)
  guard : 'ctx -> bool;
  effect : 'ctx -> unit;
}

val state :
  ?parent:string -> ?initial:bool -> ?history:bool ->
  ?on_entry:('ctx -> unit) -> ?on_exit:('ctx -> unit) -> string ->
  'ctx state_def

val transition :
  ?trigger:string -> ?guard:('ctx -> bool) -> ?effect:('ctx -> unit) ->
  src:string -> dst:string -> unit -> 'ctx transition_def

val create : 'ctx state_def list -> 'ctx transition_def list -> 'ctx t
(** @raise Invalid_argument on duplicate state names, unknown parents or
    transition endpoints, a parent cycle, or a composite state without an
    initial child. *)

val start : 'ctx t -> 'ctx -> unit
(** Enter the initial configuration (runs entry actions). *)

val active_leaf : 'ctx t -> string
(** Name of the current leaf state. @raise Failure before [start]. *)

val is_in : 'ctx t -> string -> bool
(** Whether the named state is on the active path (leaf or ancestor).
    The path is cached when the leaf changes, so this is a walk over a
    few names. @raise Failure before [start] and after [reset]. *)

val dispatch : 'ctx t -> 'ctx -> string -> bool
(** Offer an event; the innermost enabled transition wins. Returns
    whether a transition fired. Eventless transitions are then run to
    quiescence. *)

val tick : 'ctx t -> 'ctx -> bool
(** Run eventless transitions only; true if anything fired. *)

val reset : 'ctx t -> unit
(** Forget the configuration (including history); [start] must be called
    again. *)

(** Block-diagram models.

    A model is a directed graph of block instances: data connections link
    an output port to input ports, event connections link an event output
    (a hardware interrupt in the peripheral block set, §5) to a
    function-call group of blocks that execute atomically when the event
    fires. Models compose hierarchically through {!inline}, which grafts a
    sub-model (with [Inport]/[Outport] boundary blocks) into a parent — the
    single-model approach of the paper, where the very same controller
    model is simulated inside the closed loop and handed alone to the code
    generator. *)

type blk
(** Block instance handle, valid within its model. *)

type group
(** Function-call group handle. *)

type t

exception Model_error of string
(** Raised on structural mistakes (duplicate wiring, bad port index,
    unknown block). *)

val create : string -> t
val name : t -> string

val add : t -> ?name:string -> Block.spec -> blk
(** Insert a block; [name] defaults to ["<kind><n>"]. Names must be unique
    within the model. *)

val connect : t -> src:blk * int -> dst:blk * int -> unit
(** Wire output port [src] to input port [dst]. Each input accepts exactly
    one driver. @raise Model_error on re-wiring or bad indices. *)

val fc_group : t -> string -> group
(** Declare a function-call group (the body of a triggered subsystem). *)

val assign_group : t -> blk -> group -> unit
(** Place a block into a function-call group; it then executes only when
    the group's event fires. *)

val connect_event : t -> src:blk * int -> group -> unit
(** Wire event output port [src] (index into the block's [event_outs]) to
    a group. Multiple events may target the same group; one event drives at
    most one group. *)

(** {2 Interrogation} *)

val blocks : t -> blk list
(** All blocks in insertion order. *)

val spec_of : t -> blk -> Block.spec
val block_name : t -> blk -> string
val find : t -> string -> blk
(** Find a block by name. @raise Not_found. *)

val group_of : t -> blk -> group option
val group_name : t -> group -> string
val groups : t -> group list
val group_blocks : t -> group -> blk list
val driver : t -> blk * int -> (blk * int) option
(** The output port feeding an input port, if wired. *)

val event_target : t -> blk * int -> group option
val n_blocks : t -> int
val blk_index : blk -> int
(** Stable dense index of a block (0 .. n_blocks-1), usable as an array
    key by the engine and code generator. *)

val group_index : group -> int

(** {2 Composition} *)

val inline :
  t ->
  prefix:string ->
  sub:t ->
  inputs:(blk * int) array ->
  (blk * int) array
(** [inline parent ~prefix ~sub ~inputs] copies every block of [sub] into
    [parent] with names prefixed by ["prefix/"], rewires internal
    connections, replaces the sub-model's [Inport k] blocks by the parent
    sources [inputs.(k)], and returns, for each [Outport k] of [sub], the
    parent-side port now carrying that signal. Function-call groups and
    event wiring are copied along. @raise Model_error when [inputs] does
    not cover every Inport index or an Outport index is missing. *)

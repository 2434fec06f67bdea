(** The PEERT code-generation target (§5).

    Turns a compiled controller model plus its Processor Expert project
    into a complete embedded application: [<model>.h] / [<model>.c] with
    the block-I/O, state, external-input and external-output structures
    and the [<model>_initialize] / [<model>_step] functions; the
    event-to-ISR wiring ("periodic parts of the model code are executed
    nonpreemptively in a timer interrupt; function-call subsystems …
    within interrupt service routines of triggering events"); [main.c];
    the generated HAL of every bean; and a makefile. The PIL variant is
    produced by {!Pil_target}. *)

type report = {
  n_blocks : int;
  app_loc : int;  (** generated application lines of code *)
  hal_loc : int;  (** generated HAL lines of code *)
  state_bytes : int;  (** discrete state (DWork) size *)
  signal_bytes : int;  (** block I/O structure size *)
  est_flash_bytes : int;
  est_ram_bytes : int;
  step_cycles : int;  (** worst-case base-rate step cost on the MCU *)
  step_time : float;  (** the same in seconds at the MCU clock *)
  group_cycles : (string * int) list;  (** per function-call group *)
  stack_bytes : int;
  warnings : string list;  (** e.g. RAM estimate exceeding the part *)
}

(** Execution schedule handed to the PIL executive: which blocks run in
    the periodic step and in each ISR group, with their cycle costs. *)
type schedule = {
  base_period : float;
  periodic_cycles : (Model.blk * int) list;
  group_cycle_map : (Model.group * int) list;
  sensor_slots : (Model.blk * int) list;
      (** peripheral input blocks and their PIL buffer slot *)
  actuator_slots : (Model.blk * int) list;
  timer_bean : string option;
      (** the TimerInt bean driving the periodic step, if modelled *)
  total_step_cycles : int;
  isr_stack_bytes : int;
}

val fix_helpers : C_ast.item list
(** Static definitions of the saturating fixed-point helpers
    ([pe_sat16], [pe_sat_add32], [pe_mul_shift]), emitted into the
    model unit when its code calls them; exposed so tests can load them
    into the SIL interpreter next to hand-built units. *)

val hal_protos : C_ast.cunit list -> string list -> C_ast.item list
(** Prototypes of the functions named in the list that the HAL units
    define, in HAL order: the declarations a unit calling them needs. *)

val is_actuator_kind : string -> bool
(** Peripheral output kinds: the PWM of either block set. *)

val sensor_slots : Model.t -> (Model.blk * int) list
(** The model's peripheral input blocks and their PIL buffer slots, in
    model order: the [sensor_slots] of the schedule {!generate} builds
    for it. *)

type artifacts = {
  model_h : C_ast.cunit;
  model_c : C_ast.cunit;
  main_c : C_ast.cunit;
  hal : C_ast.cunit list;
  makefile : string;
  report : report;
  schedule : schedule;
}

exception Codegen_error of string

val generate :
  ?mode:Blockgen.mode ->
  ?opt:bool ->
  name:string ->
  project:Bean_project.t ->
  Compile.t ->
  artifacts
(** The generated [<model>.c] is produced through the MIR pipeline
    (lift to {!Mir} -> verify -> lower). With [opt] (default [false])
    the IR-verified optimisation passes of {!Mir_opt} run in between;
    the output is bit-exact under SIL execution but syntactically
    smaller.

    @raise Codegen_error when the model contains blocks with no embedded
    realisation (generate from the controller subsystem only, as §5
    prescribes) or the bean project does not verify. *)

val write_to_dir : artifacts -> dir:string -> string list
(** Materialise all units (and the makefile) under [dir]; returns the
    file paths written. *)

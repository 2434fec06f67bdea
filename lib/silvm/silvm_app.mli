(** A PEERT-generated application loaded into the SIL virtual machine.

    The PIL variant of the generated code is the natural SIL subject:
    its peripheral reads and writes are redirected to the
    [pil_sensor_buf]/[pil_actuator_buf] exchange buffers (§6), which
    become the stimulus/observation ports of the virtual machine — the
    same role the RS-232 link plays in a real PIL run, without the
    target hardware.

    Two engines share this driver: [`Interp] is the reference engine,
    {!Mir_eval} executing the lifted MIR of the model units;
    [`Compiled] (the default) runs the closures of {!Silvm_compile},
    bit-exact against the reference and an order of magnitude
    faster. *)

type t

type engine = [ `Interp | `Compiled ]

type trace =
  (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array2.t
(** actuator words, [steps × slots] *)

val create :
  ?mode:Blockgen.mode ->
  ?opt:bool ->
  ?engine:engine ->
  name:string ->
  project:Bean_project.t ->
  Compile.t ->
  t
(** Generate the application for [comp] (default PIL variant), load the
    whole translation set into the chosen engine (default [`Compiled];
    identical compiled units share one compilation through the
    content-hash cache) and wire up the free-running-counter bean
    externals. [opt] enables the MIR optimization passes on the model
    unit (default off); behaviour must be bit-exact either way — that is
    what {!Silvm_diff.run} checks.
    @raise Target.Codegen_error when generation fails. *)

val initialize : t -> unit
(** Call [<name>_initialize ()]. *)

val step : t -> unit
(** Call [<name>_step ()], then fire every event-wired group function
    whose rate divisor divides the step count (mirroring the
    immediate-and-atomic group execution of the MIL engine), and
    advance the application clock by one base period. *)

val run_n_steps :
  ?stimulus:(int -> int array) ->
  ?feedback:(int -> int array -> unit) ->
  t ->
  int ->
  trace
(** [run_n_steps app n] executes [n] base-rate steps and returns the
    actuator trace, snapshotted after each step (on the compiled engine
    the exchange buffer is blitted row-wise, no per-port boxing).
    [stimulus k] provides the sensor words before step [k];
    [feedback k row] observes the actuator words after step [k] — e.g.
    to advance a plant model driving the next stimulus. *)

val compare_traces : trace -> trace -> (int * int) option
(** first [(step, slot)] where two actuator traces disagree (a length
    mismatch reports the first missing step), [None] when identical *)

val set_sensor : t -> int -> int -> unit
(** [set_sensor app slot v] stores the raw 16-bit value [v] into
    [pil_sensor_buf[slot]]. *)

val actuator : t -> int -> int
(** [actuator app slot] reads [pil_actuator_buf[slot]]. *)

(** A block-output field [<name>_B.<block>_o<p>] of the generated
    signals structure, resolved once so that reading it per step costs
    no name building or lookup: on the compiled engine a typed getter
    over the instance's cells, on the reference engine a prebuilt
    place. *)
type probe =
  | Compiled_probe of Silvm_compile.typed * Silvm_compile.st
  | Reference_probe of Mir_eval.t * Mir.place

val probe : t -> Model.blk * int -> probe
(** @raise Mir_eval.Runtime_error on the compiled engine when the
    field does not exist *)

val probe_value : probe -> Mir_eval.value
(** the probe's current value, boxed: [Vi (ity, n)] for an integer
    field, [Vf (Tf32|Tf64, x)] for a float one *)

val signal : t -> Model.blk * int -> Mir_eval.value
(** [signal app (b, p)] is [probe_value (probe app (b, p))]: a one-off
    read of the block-output field. *)

val schedule : t -> Target.schedule
val stmts_executed : t -> int
(** MIR statements the reference engine executed; [0] on the compiled
    engine *)

(** The MIL <-> SIL differential run of a named model, built once for
    [ecsd diff], its seed sweep ([--seeds]) and [serve]'s [diff] job.

    Two models are known: [servo] (the controller in closed loop with
    the DC-motor plant through its PIL driver) and [isr-demo] (the
    ADC event-triggered function-call group, driven by a deterministic
    sweep across the 12-bit ADC range). A fault scenario perturbs the
    sensor stream both sides consume, and gives the servo its
    safe-state supervisor so the diff covers the recovery paths. *)

type error = Unknown_model of string

type t
(** A prepared subject: the model built and compiled, plus the run
    settings. Mutable state is created per {!run}, so one subject
    serves any number of runs on its domain. *)

val make :
  config:Servo_system.config ->
  ?steps:int ->
  ?float_mode:Silvm_diff.float_mode ->
  ?opt:bool ->
  ?engine:Silvm_diff.engine ->
  ?scenario:Fault_scenario.t ->
  string ->
  (t, error) result
(** [make ~config model] builds and compiles [model] ({!Compile.compile}:
    for these models it is cheaper than a {!Compile_cache} digest).
    [steps] (default 1000), [float_mode] (default
    {!Silvm_diff.Exact}), [opt] and [engine] (default
    {!Silvm_diff.Compiled}) are as in {!Silvm_diff.run}.
    @raise Supervise.Bad_request when [steps < 0], or when [scenario]
    has a fault the generated code's sensor slots cannot take: a sensor
    fault on a slot the model lacks, or any fault of another kind
    (actuator, load, overrun, watchdog), which the lock-step does not
    apply ({!Fault_scenario.check_hooks}).
    @raise Invalid_argument when the servo's bean project does not
    verify. *)

val name : t -> string
(** The report name: ["servo"] or ["isr_demo"]. *)

val run : ?seed:int -> t -> Silvm_diff.report
(** One lock-step run; with a scenario, its injector is armed with
    [seed] (default 1).
    @raise Target.Codegen_error when code generation fails. *)

val injector : Fault_scenario.t -> seed:int -> Silvm_diff.injector
(** The scenario's seeded injector on the raw 16-bit sensor codes. *)

val engines : (string * Silvm_diff.engine) list
(** The SIL engines by the names the CLI, serve and reports use:
    [compiled], [interp], [both]. *)

val engine_name : Silvm_diff.engine -> string

val divergence_json : Silvm_diff.divergence option -> Bench_json.t
(** A divergence as the [DIFF_*.json] reports and [serve] carry it
    ([null] for none). *)

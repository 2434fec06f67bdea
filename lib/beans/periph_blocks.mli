(** The Processor Expert block set (§5).

    Each block corresponds to a bean in the PE project and carries both
    roles of the paper's single-model approach: during simulation the
    block "does not simply pass the data … through, but reflects the main
    HW properties" (a 12-bit ADC block really quantises to 12 bits); at
    code generation time the PEERT emitters translate the same block into
    bean method calls. Event-generating peripherals expose their
    interrupts as function-call event outputs.

    Every constructor validates its bean against the project's knowledge
    base immediately and raises [Invalid_argument] on an unresolved or
    erroneous bean — the live verification of the Bean Inspector. *)

type periph = Timer_int | Adc | Pwm | Bit_io_in | Quad_dec
(** The peripheral a block stands for, whichever block set built it. *)

type api = Pe | Autosar
(** The block set: the API the block's Hw code calls (bean methods or
    AUTOSAR MCAL drivers). The simulation behaviour, the PIL redirection
    and the echo of an actuator's realised value do not depend on it. *)

val classify : string -> (periph * api) option
(** The one reading of a block kind: the peripheral and block set of a
    block of this set or of {!Autosar_blocks}, [None] for every other
    kind. *)

val kind_of : periph * api -> string
(** The block kind of a (peripheral, block set) pair; raises [Not_found]
    for a pair no constructor builds (the AUTOSAR set has no ADC). *)

val model_api : Model.t -> api
(** The API a model's generated code calls: [Autosar] as soon as one of
    its blocks belongs to the AUTOSAR set. *)

val sensor_coding : string -> int -> Value.t
(** [sensor_coding kind] is the MIL output of a sensor block (ADC,
    quadrature decoder, input pin) for the raw word of its PIL buffer
    slot: the coding every rig (PIL, SIL lock-step, HIL) overrides the
    block with. Raises [Invalid_argument] if [kind] is no sensor. *)

val actuator_coding : string -> Value.t -> int
(** [actuator_coding kind] is the raw actuator word a rig ships for the
    MIL output of an actuator block (the PWM's realised ratio, scaled to
    ratio16). Raises [Invalid_argument] if [kind] is no actuator. *)

val timer_int : Bean.t -> Block.spec
(** Periodic interrupt bean block: no data ports, one event output
    ["OnInterrupt"] firing every (achieved) period — the trigger of the
    paper's periodic controller task. *)

val adc : Bean.t -> Block.spec
(** Input: analog voltage from the plant model (double, volts). Output:
    conversion code (uint16) at the bean's resolution. Event output 0 is
    ["OnEnd"], the end-of-conversion interrupt. Runs at the bean's sample
    period. *)

val adc_volts_gain : Bean.t -> float
(** Code-to-volts factor of the resolved ADC bean, for scaling blocks
    downstream. *)

val pwm : Bean.t -> Block.spec
(** Input: ratio16 duty command (0..65535). Output: realised duty ratio
    0..1, quantised to the carrier's counter resolution — feed it to the
    {!Plant_blocks.power_stage}. *)

val bit_io_in : Bean.t -> Block.spec
(** Input: the external world's boolean (plant side); output: debounced
    pin reading. *)

val quad_decoder : Bean.t -> Block.spec
(** Input: shaft angle (rad) from the motor model; output: x4-decoded
    position count (int32) exactly as the decoder register accumulates
    it. *)

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

val dac : Bean.t -> Block.spec
(** Input: output code (uint16); output: the analog voltage the pin
    produces (double, volts), quantised to the DAC's resolution — the
    analog-actuation counterpart of the PWM block. *)

val free_counter : Bean.t -> Block.spec
(** Free-running counter bean block: no inputs, outputs the elapsed tick
    count wrapped at 16 bits — the time-stamp source the PIL profiling
    reads ([FC1_GetCounterValue]). *)

(** The AUTOSAR variant of the peripheral block set (§8).

    "There are two variants of the block sets. In the first variant the
    blocks represent the PE beans while in the second variant the blocks
    represent AUTOSAR peripherals. The blocks of both variants are the
    same from the functional point of view, but they differ in HW settings
    and the API of generated code."

    Accordingly these constructors reuse the simulation behaviour of
    {!Periph_blocks} verbatim and differ only in the block kind, which
    {!Periph_blocks.classify} reads as the [Autosar] API: the Hw arm of
    each peripheral's one emitter then calls the MCAL driver
    ([Pwm_SetDutyCycle], [Dio_ReadChannel], [Gpt] notifications, [Icu]
    edge counting) instead of the bean method. *)

val timer_int : Bean.t -> Block.spec
(** Gpt channel: the periodic notification drives the scheduler. *)

val pwm : Bean.t -> Block.spec
(** Pwm channel driven through [Pwm_SetDutyCycle] (0x0000..0x8000 duty
    domain per the AUTOSAR PWM driver spec; the emitter rescales). *)

val dio_in : Bean.t -> Block.spec
val icu_position : Bean.t -> Block.spec
(** Quadrature position via the Icu driver's edge counter. *)

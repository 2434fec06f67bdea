(** HAL code generation for beans — Processor Expert's generated-code
    role.

    Every resolved bean emits one C unit implementing its methods against
    the MCU's peripheral registers, specialised to the settings the expert
    system computed (prescaler and modulo baked in, no runtime
    configuration paths) — "methods code is well tested, highly optimized
    and scaled to the selected MCU" (§4). Register maps are synthesised
    per family (base address + channel stride), which preserves the shape
    and size of the real HAL without copying vendor headers. *)

val base_of :
  Mcu_db.t ->
  [< `Adc | `Dac | `Gpio | `Pwm | `Qdec | `Sci | `Timer | `Wdog ] ->
  int
(** The synthesised register map: the base address of a peripheral
    class on the MCU's family (channels add their stride to it). The
    AUTOSAR HAL ({!Autosar_code}) uses the same map. *)

val reg : string -> C_ast.expr
(** [REG16(addr)], the 16-bit register access at a literal address. *)

val unit_of_bean : Mcu_db.t -> Bean.t -> C_ast.cunit
(** @raise Invalid_argument when the bean is unresolved. *)

val types_header : Mcu_db.t -> C_ast.cunit
(** The shared [PE_Types.h] equivalent: fixed-width typedefs and the
    register-access macros. *)

val isr_vector_table : Mcu_db.t -> Bean.t list -> C_ast.cunit
(** Vector table stub routing hardware vectors to the bean event
    handlers of the beans that define events. *)

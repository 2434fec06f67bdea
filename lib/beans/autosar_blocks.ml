(* Functionally identical to the PE block set: same behaviours, new kinds
   so the code generator picks the MCAL emitters. *)

let rekind kind spec = { spec with Block.kind }

let timer_int bean = rekind "AR_TimerInt" (Periph_blocks.timer_int bean)
let adc bean = rekind "AR_Adc" (Periph_blocks.adc bean)
let pwm bean = rekind "AR_Pwm" (Periph_blocks.pwm bean)
let dio_in bean = rekind "AR_Dio_In" (Periph_blocks.bit_io_in bean)
let icu_position bean = rekind "AR_Icu" (Periph_blocks.quad_decoder bean)

let is_autosar_kind kind =
  String.length kind >= 3 && String.sub kind 0 3 = "AR_"

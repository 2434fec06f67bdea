(* Functionally identical to the PE block set: same behaviours, the
   AUTOSAR kinds, so the code generator calls the MCAL API. *)

let rekind periph spec =
  { spec with Block.kind = Periph_blocks.kind_of (periph, Periph_blocks.Autosar) }

let timer_int bean = rekind Timer_int (Periph_blocks.timer_int bean)
let pwm bean = rekind Pwm (Periph_blocks.pwm bean)
let dio_in bean = rekind Bit_io_in (Periph_blocks.bit_io_in bean)
let icu_position bean = rekind Quad_dec (Periph_blocks.quad_decoder bean)

type op_mix = {
  adds : int;
  muls : int;
  divs : int;
  compares : int;
  memops : int;  (* loads/stores of signals and states *)
  calls : int;  (* function-call overheads (bean methods etc.) *)
  fn_evals : int;  (* elementary function evaluations (sin, exp, ...) *)
}

let zero_mix =
  { adds = 0; muls = 0; divs = 0; compares = 0; memops = 0; calls = 0; fn_evals = 0 }

(* a peripheral costs the same in both block sets: only the name of the
   HAL function its code calls differs *)
let mix_of_periph m = function
  | Periph_blocks.Timer_int -> m
  | Adc -> { m with calls = 2; memops = 3 }
  | Pwm -> { m with calls = 1; muls = 1; memops = 2 }
  | Quad_dec -> { m with calls = 1; memops = 2 }
  | Bit_io_in -> { m with memops = 2 }

let mix_of_block spec dtype =
  ignore dtype;
  let m = zero_mix in
  match Periph_blocks.classify spec.Block.kind with
  | Some (periph, _) -> mix_of_periph m periph
  | None -> (
      match spec.Block.kind with
      | "Constant" | "Inport" | "Outport" | "ZOH" | "Terminator" ->
          { m with memops = 2 }
      | "Gain" -> { m with muls = 1; memops = 2 }
      | "Sum" ->
          let n = String.length (Param.string spec.Block.params "signs") in
          { m with adds = n; memops = n + 1 }
      | "Product" ->
          let n = Param.int spec.Block.params "n" in
          { m with muls = n - 1; memops = n + 1 }
      | "Divide" -> { m with divs = 1; memops = 3 }
      | "Abs" | "Neg" | "Sign" -> { m with compares = 1; memops = 2 }
      | "Min" | "Max" -> { m with compares = 1; memops = 3 }
      | "Cast" -> { m with muls = 1; memops = 2 }
      | "Compare" -> { m with compares = 1; memops = 3 }
      | "Logic" -> { m with compares = 1; memops = 3 }
      | "MathFn" -> { m with fn_evals = 1; memops = 2 }
      | "UnitDelay" | "DelayN" -> { m with memops = 3 }
      | "DiscreteIntegrator" -> { m with adds = 1; muls = 1; compares = 2; memops = 4 }
      | "DiscreteDerivative" -> { m with adds = 1; muls = 2; memops = 4 }
      | "DiscreteTransferFcn" ->
          let ord = Array.length (Param.floats spec.Block.params "den") - 1 in
          { m with adds = 2 * ord; muls = (2 * ord) + 1; memops = (3 * ord) + 2 }
      | "Pid" | "FixPid" ->
          { m with adds = 6; muls = 4; compares = 4; memops = 10 }
      | "RateLimiter" -> { m with adds = 2; muls = 2; compares = 2; memops = 4 }
      | "MovingAverage" ->
          let n = Param.int spec.Block.params "n" in
          { m with adds = n; divs = 1; memops = n + 4 }
      | "EncoderSpeed" -> { m with adds = 1; muls = 1; divs = 1; memops = 4 }
      | "Saturation" -> { m with compares = 2; memops = 2 }
      | "Quantizer" -> { m with muls = 2; divs = 1; memops = 2 }
      | "DeadZone" -> { m with compares = 2; adds = 1; memops = 2 }
      | "Relay" | "Switch" -> { m with compares = 1; memops = 4 }
      | "CoulombFriction" -> { m with compares = 1; adds = 1; muls = 1; memops = 2 }
      | "Backlash" -> { m with compares = 2; adds = 2; memops = 3 }
      | "Step" | "Ramp" | "Pulse" | "SetpointSchedule" | "Clock" ->
          { m with compares = 1; memops = 2 }
      | "Sine" -> { m with fn_evals = 1; muls = 2; adds = 2; memops = 2 }
      | "UniformNoise" -> { m with muls = 3; adds = 2; memops = 3 }
      | "Merge2" -> { m with compares = 2; memops = 4 }
      | _ ->
          (* unknown/custom blocks get a conservative default *)
          { m with adds = 2; muls = 2; memops = 4 })

(* Per-operation cycle costs by arithmetic class and CPU traits. *)
let op_costs mcu dtype =
  let soft_float = not mcu.Mcu_db.has_fpu && Dtype.is_float dtype in
  let wide = Dtype.bits dtype > mcu.Mcu_db.word_bits in
  if soft_float then
    (* software floating point library calls *)
    let scale = if Dtype.equal dtype Dtype.Single then 0.6 else 1.0 in
    let c x = int_of_float (Float.round (float_of_int x *. scale)) in
    (c 85, c 120, c 320, c 35, 3, 8, c 900)
  else begin
    let mul = if mcu.Mcu_db.has_mac then 2 else 12 in
    let widen n = if wide then n * 3 else n in
    (widen 1, widen mul, widen 28, widen 1, (if wide then 4 else 2), 8, 600)
  end

let cycles_of_mix mcu dtype mix =
  let add_c, mul_c, div_c, cmp_c, mem_c, call_c, fn_c = op_costs mcu dtype in
  (mix.adds * add_c) + (mix.muls * mul_c) + (mix.divs * div_c)
  + (mix.compares * cmp_c) + (mix.memops * mem_c) + (mix.calls * call_c)
  + (mix.fn_evals * fn_c)

let block_dispatch_overhead = 3

let cycles_of_block mcu spec dtype =
  block_dispatch_overhead + cycles_of_mix mcu dtype (mix_of_block spec dtype)

let stack_bytes_of_block spec =
  match Periph_blocks.classify spec.Block.kind with
  | Some ((Adc | Pwm | Quad_dec), _) -> 12
  | Some ((Timer_int | Bit_io_in), _) -> 8
  | None -> (
      match spec.Block.kind with
      | "Pid" | "FixPid" | "DiscreteTransferFcn" -> 24
      | "MovingAverage" -> 16
      | "MathFn" | "Sine" -> 32
      | _ -> 8)

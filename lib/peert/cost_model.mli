(** Execution-time model of generated block code.

    The PIL simulation's purpose is to show "the execution times of the
    implemented controller code, interrupts response times, sampling
    jitters, memory and stack requirements" (§6). Since the virtual MCU
    does not interpret machine code, each block's generated step is
    charged a cycle budget derived from its operation mix and the CPU's
    traits: hardware MAC makes fixed-point multiplies single-digit
    cycles, a missing FPU makes every double operation a software-library
    call, and narrower cores pay for wide arithmetic. The absolute
    numbers are engineering estimates; the *relative* behaviour (float
    vs. fixed, 16- vs 32-bit) is what the experiments rely on. *)

val cycles_of_block : Mcu_db.t -> Block.spec -> Dtype.t -> int
(** Cycles of one step of a block whose arithmetic runs at the given
    data type: its operation mix charged at the CPU's costs, plus the
    per-block dispatch overhead. *)

val stack_bytes_of_block : Block.spec -> int
(** Worst-case stack the block's generated step needs (locals +
    call frames). *)

(** Fixed-point range analysis: abstract interpretation over intervals.

    Propagates a [[lo, hi]] interval for every output port through the
    block graph — sources, gains, sums, delays, saturations,
    peripheral blocks — iterating to a fixpoint with widening
    for feedback loops. Every interval is then clamped to the port's
    data-type range, which matches the engine's semantics exactly:
    [Value.of_float] saturates at the type bounds, so a simulated
    signal value always lies inside the computed (clamped) interval.

    The [FXP] rules compare the {e pre-clamp} ("raw") interval against
    the port type: a raw range that sticks out of a bounded type means
    the generated fixed-point code can saturate (FXP001/FXP003), and a
    fixed-point PID whose input range exceeds its Q-format
    normalisation overflows the paper's E2 experiment statically
    (FXP002). *)

type t

val analyze : Compile.t -> t
(** Run the interval fixpoint over a compiled model. *)

val interval : t -> Model.blk * int -> Itv.t option
(** Clamped interval of an output port; [None] when the port is
    unreachable (bottom). Sound for simulation: any value the engine
    produces on this port lies within. *)

val raw_interval : t -> Model.blk * int -> Itv.t option
(** The pre-clamp interval the block arithmetic can produce before
    [Value.of_float] saturation. *)

val findings : t -> Diag.finding list
(** The FXP rule family over the analysis result. *)

(** SplitMix64, the one pseudo-random generator of the environment.

    Every seeded stream (UniformNoise blocks, the fault injector, the
    serial-line noise model, the timing study) draws from it, independent of [Stdlib.Random], so
    a run with the same seed replays bit for bit on any OCaml version. *)

val next : int64 ref -> int64
(** Advance the state by the golden-ratio increment and return the
    mixed value. *)

val unit_float : int64 -> float
(** A uniform float in [\[0, 1)] from the top 53 bits. *)

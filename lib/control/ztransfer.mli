(** Discrete (z-domain) SISO transfer functions.

    Building block of both the controller library (the model's
    TransferFcn block) and of controller discretisation. A transfer
    function is kept in direct form II transposed, the structure the code
    generator also emits:

    {v H(z) = (b0 + b1 z^-1 + ... + bn z^-n) / (1 + a1 z^-1 + ... + an z^-n) v} *)

type t

val create : num:float array -> den:float array -> t
(** [create ~num ~den] with [den.(0)] the leading coefficient, which must
    be non-zero; coefficients are normalised so it becomes 1.
    @raise Invalid_argument on an empty or zero-leading denominator or
    [num] longer than [den] (non-causal). *)

val order : t -> int
val num : t -> float array
(** Normalised numerator, padded to [order + 1] coefficients. *)

val den : t -> float array
(** Normalised denominator, [1.0] first. *)

type state

val init : t -> state
val reset : state -> unit

val save : state -> unit -> unit
(** [save s] captures the delay line and returns a restorer for it. *)

val step : t -> state -> float -> float
(** Feed one input sample, produce one output sample. *)

val response : t -> float list -> float list
(** Zero-state response to an input sequence. *)

val dc_gain : t -> float
(** H(1); [infinity] on an integrating system. *)

val tustin : num_s:float array -> den_s:float array -> ts:float -> t
(** Bilinear (Tustin) discretisation of a continuous transfer function
    given by descending-power s-polynomials. Supported up to order 4. *)

val zoh_first_order : k:float -> tau:float -> ts:float -> t
(** Exact zero-order-hold discretisation of [k / (tau s + 1)]. *)

(** Wrapping a state chart (or any stateful decision logic) as a model
    block, the counterpart of a Stateflow chart block in Simulink.

    The factory runs once per simulation instance and returns the chart's
    step function; inputs and outputs cross the boundary as numeric
    signals, as chart inputs/outputs do in Simulink. *)

val block :
  kind:string ->
  n_in:int ->
  n_out:int ->
  ?period:float ->
  ?params:Param.t ->
  (unit ->
  (time:float -> float array -> float array)
  * (unit -> unit)
  * (unit -> unit -> unit)) ->
  Block.spec
(** [block ~kind ~n_in ~n_out factory]: [factory ()] must return
    [(step, reset, save)], where [save] follows {!Block.beh}'s [save]
    contract for the chart and its context. The step runs once per
    sample hit (never on solver minor steps); outputs are held between
    hits. [period] pins a discrete rate (otherwise inherited). *)

type t =
  | No_load
  | Constant of float
  | Viscous of float
  | Step of { at : float; torque : float }
  | Pulse of { start : float; stop : float; torque : float }
  | Periodic of { at : float; every : float; duration : float; torque : float }
  | Sum of t list

(* the torque of one profile that is not a [Sum] ([Sum]'s is [fold]'s) *)
let[@inline] leaf t ~time ~w =
  match t with
  | No_load | Sum _ -> 0.0
  | Constant tau -> tau
  | Viscous k -> k *. w
  | Step { at; torque = tau } -> if time >= at then tau else 0.0
  | Pulse { start; stop; torque = tau } ->
      if time >= start && time < stop then tau else 0.0
  | Periodic { at; every; duration; torque = tau } ->
      if time >= at && Float.rem (time -. at) every < duration then tau
      else 0.0

let rec fold t ~time ~w =
  match t with
  | Sum l -> List.fold_left (fun acc p -> acc +. fold p ~time ~w) 0.0 l
  | t -> leaf t ~time ~w

(* inline, so that a plant sub-step on a single profile passes its time
   and speed and gets its torque unboxed; a [Sum] takes the fold *)
let[@inline] torque t ~time ~w =
  match t with Sum _ -> fold t ~time ~w | t -> leaf t ~time ~w

type t =
  | No_load
  | Constant of float
  | Viscous of float
  | Step of { at : float; torque : float }
  | Pulse of { start : float; stop : float; torque : float }
  | Periodic of { at : float; every : float; duration : float; torque : float }
  | Sum of t list

let rec torque t ~time ~w =
  match t with
  | No_load -> 0.0
  | Constant tau -> tau
  | Viscous k -> k *. w
  | Step { at; torque = tau } -> if time >= at then tau else 0.0
  | Pulse { start; stop; torque = tau } ->
      if time >= start && time < stop then tau else 0.0
  | Periodic { at; every; duration; torque = tau } ->
      if time >= at && Float.rem (time -. at) every < duration then tau
      else 0.0
  | Sum l -> List.fold_left (fun acc p -> acc +. torque p ~time ~w) 0.0 l

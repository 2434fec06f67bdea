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

(* a [Sum]'s parts added left to right from 0.0, a nested [Sum] first
   to its own total ([nested]); a loop over the list, so a part that is
   not a [Sum] costs no closure and no boxed float *)
let[@inline] sum parts ~nested ~time ~w =
  let acc = ref 0.0 and rest = ref parts in
  while match !rest with [] -> false | _ :: _ -> true do
    match !rest with
    | [] -> ()
    | p :: tl ->
        rest := tl;
        acc :=
          !acc
          +. (match p with Sum _ -> nested p ~time ~w | p -> leaf p ~time ~w)
  done;
  !acc

let rec fold t ~time ~w =
  match t with Sum l -> sum l ~nested:fold ~time ~w | t -> leaf t ~time ~w

(* inline, so that a plant sub-step passes its time and speed and gets
   its torque unboxed; only a nested [Sum] takes the fold *)
let[@inline] torque t ~time ~w =
  match t with Sum l -> sum l ~nested:fold ~time ~w | t -> leaf t ~time ~w

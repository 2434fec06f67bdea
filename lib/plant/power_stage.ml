type t = {
  u_supply : float;
  dead_time_frac : float;
  r_on : float;
  bipolar : bool;
}

let ideal ~u_supply =
  { u_supply; dead_time_frac = 0.0; r_on = 0.0; bipolar = false }

let bipolar ~u_supply =
  { u_supply; dead_time_frac = 0.0; r_on = 0.0; bipolar = true }

let[@inline] clamp01 x = if x < 0.0 then 0.0 else if x > 1.0 then 1.0 else x

let[@inline] output_voltage t ~duty ~i =
  let d = clamp01 duty in
  let d_eff = Float.max 0.0 (d -. t.dead_time_frac) in
  let u_ideal =
    if t.bipolar then ((2.0 *. d_eff) -. 1.0) *. t.u_supply
    else d_eff *. t.u_supply
  in
  u_ideal -. (t.r_on *. i)

let duty_of_voltage t u =
  if t.bipolar then clamp01 (((u /. t.u_supply) +. 1.0) /. 2.0)
  else clamp01 (u /. t.u_supply)

type params = {
  ra : float;
  la : float;
  ke : float;
  kt : float;
  j : float;
  b : float;
  u_max : float;
}

(* A 24 V brushed servo motor: ~0.5 ms electrical and ~60 ms mechanical
   time constant, no-load speed about 460 rad/s at 24 V. *)
let default =
  {
    ra = 2.0;
    la = 1.0e-3;
    ke = 0.05;
    kt = 0.05;
    j = 1.5e-5;
    b = 1.0e-5;
    u_max = 24.0;
  }

type state = { i : float; w : float; theta : float }

let initial = { i = 0.0; w = 0.0; theta = 0.0 }

let x_i = 0
let x_w = 1
let x_theta = 2

let[@inline] deriv_into p ~u ~tau_load x off dx =
  let i = x.(off + x_i) and w = x.(off + x_w) in
  dx.(off + x_i) <- (u -. (p.ra *. i) -. (p.ke *. w)) /. p.la;
  dx.(off + x_w) <- ((p.kt *. i) -. (p.b *. w) -. tau_load) /. p.j;
  dx.(off + x_theta) <- w

(* The RK4 workspace and the right-hand side, built once. The inputs
   live in [drive] ([| u; tau_load |], held over a step) so that setting
   them allocates nothing. *)
type stepper = {
  ws : Ode.rk4_ws;
  drive : float array;
  rhs : float array -> float array -> unit;
}

let stepper p =
  let drive = Array.make 2 0.0 in
  let rhs x dx = deriv_into p ~u:drive.(0) ~tau_load:drive.(1) x 0 dx in
  { ws = Ode.rk4_workspace 3; drive; rhs }

(* inline, with [Ode.rk4_into] inline in it: the caller's [u],
   [tau_load] and [h] reach the workspace unboxed *)
let[@inline] advance st ~u ~tau_load ~h x =
  st.drive.(0) <- u;
  st.drive.(1) <- tau_load;
  Ode.rk4_into st.ws st.rhs 0.0 x h

let step p ~u ~tau_load ~h s =
  let x = [| s.i; s.w; s.theta |] in
  advance (stepper p) ~u ~tau_load ~h x;
  { i = x.(x_i); w = x.(x_w); theta = x.(x_theta) }

let steady_state_speed p ~u ~tau_load =
  ((p.kt *. u) -. (p.ra *. tau_load)) /. ((p.ra *. p.b) +. (p.ke *. p.kt))

let electrical_time_constant p = p.la /. p.ra
let mechanical_time_constant p = p.j *. p.ra /. ((p.ra *. p.b) +. (p.ke *. p.kt))

type deriv = float -> float array -> float array
type method_ = Euler | Heun | Rk4

let order = function Euler -> 1 | Heun -> 2 | Rk4 -> 4

let axpy a x y =
  (* y + a*x, elementwise, fresh array *)
  Array.init (Array.length y) (fun i -> y.(i) +. (a *. x.(i)))

type rk4_ws = {
  k1 : float array;
  k2 : float array;
  k3 : float array;
  k4 : float array;
  xs : float array;  (* stage state *)
}

let rk4_workspace n =
  let z () = Array.make n 0.0 in
  { k1 = z (); k2 = z (); k3 = z (); k4 = z (); xs = z () }

(* The one RK4 tableau in the tree. Each stage state is written into
   [ws.xs] with the same float operations as [axpy], so [step Rk4], which
   runs it on a fresh workspace, is bit-identical to a fresh-array RK4.
   The loops stay inline: a helper taking the stage coefficient would box
   it on every call. *)
let rk4_into ws f t x h =
  let n = Array.length x in
  let { k1; k2; k3; k4; xs } = ws in
  let h2 = h /. 2.0 in
  f t x k1;
  for i = 0 to n - 1 do
    xs.(i) <- x.(i) +. (h2 *. k1.(i))
  done;
  f (t +. h2) xs k2;
  for i = 0 to n - 1 do
    xs.(i) <- x.(i) +. (h2 *. k2.(i))
  done;
  f (t +. h2) xs k3;
  for i = 0 to n - 1 do
    xs.(i) <- x.(i) +. (h *. k3.(i))
  done;
  f (t +. h) xs k4;
  let h6 = h /. 6.0 in
  for i = 0 to n - 1 do
    x.(i) <-
      x.(i) +. (h6 *. (k1.(i) +. (2.0 *. k2.(i)) +. (2.0 *. k3.(i)) +. k4.(i)))
  done

let step m f t x h =
  match m with
  | Euler ->
      let k1 = f t x in
      axpy h k1 x
  | Heun ->
      let k1 = f t x in
      let k2 = f (t +. h) (axpy h k1 x) in
      Array.init (Array.length x) (fun i ->
          x.(i) +. (h /. 2.0 *. (k1.(i) +. k2.(i))))
  | Rk4 ->
      let n = Array.length x in
      let x' = Array.copy x in
      rk4_into (rk4_workspace n)
        (fun t x d -> Array.blit (f t x) 0 d 0 n)
        t x' h;
      x'

let integrate m f ~t0 ~t1 ~h x0 =
  if h <= 0.0 then invalid_arg "Ode.integrate: h must be positive";
  let rec go t x acc =
    if t >= t1 -. 1e-12 then List.rev ((t1, x) :: acc)
    else
      let h' = Float.min h (t1 -. t) in
      let x' = step m f t x h' in
      go (t +. h') x' ((t, x) :: acc)
  in
  go t0 x0 []

(* Runge-Kutta-Fehlberg 4(5) coefficients (classical Fehlberg tableau). *)
let rkf45 f ~t0 ~t1 ?(h0 = 1e-3) ?(tol = 1e-6) ?(h_min = 1e-9) x0 =
  let n = Array.length x0 in
  let stage t x h =
    let k1 = f t x in
    let k2 = f (t +. (h /. 4.0)) (axpy (h /. 4.0) k1 x) in
    let k3 =
      f
        (t +. (3.0 /. 8.0 *. h))
        (Array.init n (fun i ->
             x.(i) +. (h *. ((3.0 /. 32.0 *. k1.(i)) +. (9.0 /. 32.0 *. k2.(i))))))
    in
    let k4 =
      f
        (t +. (12.0 /. 13.0 *. h))
        (Array.init n (fun i ->
             x.(i)
             +. h
                *. ((1932.0 /. 2197.0 *. k1.(i))
                   -. (7200.0 /. 2197.0 *. k2.(i))
                   +. (7296.0 /. 2197.0 *. k3.(i)))))
    in
    let k5 =
      f (t +. h)
        (Array.init n (fun i ->
             x.(i)
             +. h
                *. ((439.0 /. 216.0 *. k1.(i)) -. (8.0 *. k2.(i))
                   +. (3680.0 /. 513.0 *. k3.(i))
                   -. (845.0 /. 4104.0 *. k4.(i)))))
    in
    let k6 =
      f
        (t +. (h /. 2.0))
        (Array.init n (fun i ->
             x.(i)
             +. h
                *. ((-8.0 /. 27.0 *. k1.(i)) +. (2.0 *. k2.(i))
                   -. (3544.0 /. 2565.0 *. k3.(i))
                   +. (1859.0 /. 4104.0 *. k4.(i))
                   -. (11.0 /. 40.0 *. k5.(i)))))
    in
    let x4 =
      Array.init n (fun i ->
          x.(i)
          +. h
             *. ((25.0 /. 216.0 *. k1.(i))
                +. (1408.0 /. 2565.0 *. k3.(i))
                +. (2197.0 /. 4104.0 *. k4.(i))
                -. (k5.(i) /. 5.0)))
    in
    let x5 =
      Array.init n (fun i ->
          x.(i)
          +. h
             *. ((16.0 /. 135.0 *. k1.(i))
                +. (6656.0 /. 12825.0 *. k3.(i))
                +. (28561.0 /. 56430.0 *. k4.(i))
                -. (9.0 /. 50.0 *. k5.(i))
                +. (2.0 /. 55.0 *. k6.(i))))
    in
    let err =
      Array.fold_left Float.max 0.0
        (Array.init n (fun i -> Float.abs (x5.(i) -. x4.(i))))
    in
    (x5, err)
  in
  let rec go t x h acc =
    if t >= t1 -. 1e-12 then List.rev ((t1, x) :: acc)
    else
      let h = Float.min h (t1 -. t) in
      let x', err = stage t x h in
      if err <= tol || h <= h_min then begin
        let grow =
          if err = 0.0 then 2.0
          else Float.min 2.0 (0.9 *. ((tol /. err) ** 0.2))
        in
        go (t +. h) x' (Float.max h_min (h *. grow)) ((t, x) :: acc)
      end
      else
        let shrink = Float.max 0.1 (0.9 *. ((tol /. err) ** 0.25)) in
        go t x (Float.max h_min (h *. shrink)) acc
  in
  go t0 x0 h0 []

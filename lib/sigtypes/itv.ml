type t = { lo : float; hi : float }

let top = { lo = neg_infinity; hi = infinity }
let make lo hi = if Float.is_nan lo || Float.is_nan hi then top else { lo; hi }
let point v = make v v
let hull a b = { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }

let widen ~old n =
  {
    lo = (if n.lo < old.lo then neg_infinity else n.lo);
    hi = (if n.hi > old.hi then infinity else n.hi);
  }

let add a b = make (a.lo +. b.lo) (a.hi +. b.hi)
let neg a = { lo = -.a.hi; hi = -.a.lo }
let sub a b = add a (neg b)

(* the four corner results of a monotone-per-argument operation *)
let corners f a b =
  let c1 = f a.lo b.lo and c2 = f a.lo b.hi
  and c3 = f a.hi b.lo and c4 = f a.hi b.hi in
  make
    (Float.min (Float.min c1 c2) (Float.min c3 c4))
    (Float.max (Float.max c1 c2) (Float.max c3 c4))

let mul = corners (fun x y -> if x = 0.0 || y = 0.0 then 0.0 else x *. y)

let div a b =
  if b.lo <= 0.0 && b.hi >= 0.0 then top
  else corners (fun x y -> if x = 0.0 then 0.0 else x /. y) a b

let abs a =
  if a.lo >= 0.0 then a
  else if a.hi <= 0.0 then neg a
  else { lo = 0.0; hi = Float.max (-.a.lo) a.hi }

let clamp ~bounds a =
  if a.lo > bounds.hi then point bounds.hi
  else if a.hi < bounds.lo then point bounds.lo
  else { lo = Float.max a.lo bounds.lo; hi = Float.min a.hi bounds.hi }

let wrap ~bounds a = if a.lo >= bounds.lo && a.hi <= bounds.hi then a else bounds

type verdict = Never | May | Always

let classify ~bounds a =
  if a.lo > bounds.hi || a.hi < bounds.lo then Always
  else if a.lo >= bounds.lo && a.hi <= bounds.hi then Never
  else May

let to_string a = Printf.sprintf "[%g, %g]" a.lo a.hi

type t = { lines : int }

let create ?(lines_per_rev = 100) () =
  if lines_per_rev <= 0 then invalid_arg "Encoder.create: lines_per_rev";
  { lines = lines_per_rev }

let lines_per_rev t = t.lines
let counts_per_rev t = 4 * t.lines
let two_pi = 2.0 *. Float.pi

let signals t ~theta =
  (* Position within one electrical line, in [0, 1). *)
  let frac =
    let f = Float.rem (theta /. two_pi *. float_of_int t.lines) 1.0 in
    if f < 0.0 then f +. 1.0 else f
  in
  (* Quadrature: A leads B by a quarter line for positive rotation. *)
  let a = frac < 0.5 in
  let b = frac >= 0.25 && frac < 0.75 in
  let rev_frac =
    let f = Float.rem (theta /. two_pi) 1.0 in
    if f < 0.0 then f +. 1.0 else f
  in
  let index = rev_frac < 0.25 /. float_of_int t.lines in
  (a, b, index)

let[@inline] count_of_angle t ~theta =
  int_of_float (Float.floor (theta /. two_pi *. float_of_int (counts_per_rev t)))

let angle_of_count t c = float_of_int c *. two_pi /. float_of_int (counts_per_rev t)

let speed_of_counts t ~dt c0 c1 =
  if dt <= 0.0 then invalid_arg "Encoder.speed_of_counts: dt";
  float_of_int (c1 - c0) *. two_pi /. float_of_int (counts_per_rev t) /. dt

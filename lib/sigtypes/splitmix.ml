let mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let next state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  mix !state

let unit_float z =
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0

type t = F of float | I of Dtype.t * int | B of bool

let zero = function
  | Dtype.Double | Dtype.Single -> F 0.0
  | Dtype.Bool -> B false
  | dt -> I (dt, 0)

let dtype = function
  | F _ -> Dtype.Double
  | I (dt, _) -> dt
  | B _ -> Dtype.Bool

let to_float = function
  | F x -> x
  | I (_, n) -> float_of_int n
  | B b -> if b then 1.0 else 0.0

let saturate_int dt n =
  match Dtype.integer_range dt with
  | Some (lo, hi) -> if n < lo then lo else if n > hi then hi else n
  | None -> n

let of_float dt x =
  match dt with
  | Dtype.Double | Dtype.Single -> F x
  | Dtype.Bool -> B (x <> 0.0)
  | dt ->
      let r = Float.round x in
      let lo, hi =
        match Dtype.integer_range dt with Some p -> p | None -> assert false
      in
      let n =
        if Float.is_nan r then 0
        else if r >= float_of_int hi then hi
        else if r <= float_of_int lo then lo
        else int_of_float r
      in
      I (dt, n)

let of_bool b = B b
let to_bool v = to_float v <> 0.0

let of_int dt n =
  match dt with
  | Dtype.Double | Dtype.Single ->
      invalid_arg "Value.of_int: float type"
  | Dtype.Bool -> B (n <> 0)
  | dt -> I (dt, saturate_int dt n)

let to_int = function
  | F x -> int_of_float (Float.trunc x)
  | I (_, n) -> n
  | B b -> if b then 1 else 0

let cast dt v = of_float dt (to_float v)

let equal a b =
  match (a, b) with
  | F x, F y -> Float.equal x y
  | I (ta, x), I (tb, y) -> Dtype.equal ta tb && x = y
  | B x, B y -> x = y
  | _ -> false

let to_string = function
  | F x -> Printf.sprintf "%g" x
  | I (dt, n) -> Printf.sprintf "%d:%s" n (Dtype.to_string dt)
  | B b -> string_of_bool b

let pp ppf v = Format.pp_print_string ppf (to_string v)

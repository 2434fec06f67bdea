type t =
  | Double
  | Single
  | Int8
  | Uint8
  | Int16
  | Uint16
  | Int32
  | Uint32
  | Bool

let equal (a : t) b = a = b

let to_string = function
  | Double -> "double"
  | Single -> "single"
  | Int8 -> "int8"
  | Uint8 -> "uint8"
  | Int16 -> "int16"
  | Uint16 -> "uint16"
  | Int32 -> "int32"
  | Uint32 -> "uint32"
  | Bool -> "boolean"

let pp ppf t = Format.pp_print_string ppf (to_string t)

let is_float = function Double | Single -> true | _ -> false

let is_integer = function
  | Int8 | Uint8 | Int16 | Uint16 | Int32 | Uint32 -> true
  | _ -> false

let bits = function
  | Double -> 64
  | Single -> 32
  | Int8 | Uint8 | Bool -> 8
  | Int16 | Uint16 -> 16
  | Int32 | Uint32 -> 32

let bytes t = bits t / 8

let c_name = function
  | Double -> "double"
  | Single -> "float"
  | Int8 -> "int8_t"
  | Uint8 -> "uint8_t"
  | Int16 -> "int16_t"
  | Uint16 -> "uint16_t"
  | Int32 -> "int32_t"
  | Uint32 -> "uint32_t"
  | Bool -> "uint8_t"

let integer_range = function
  | Int8 -> Some (-128, 127)
  | Uint8 -> Some (0, 255)
  | Int16 -> Some (-32768, 32767)
  | Uint16 -> Some (0, 65535)
  | Int32 -> Some (-(1 lsl 31), (1 lsl 31) - 1)
  | Uint32 -> Some (0, (1 lsl 32) - 1)
  | Double | Single | Bool -> None

let min_float_value t =
  match t with
  | Double | Single -> neg_infinity
  | Bool -> 0.0
  | _ -> (
      match integer_range t with
      | Some (lo, _) -> float_of_int lo
      | None -> assert false)

let max_float_value t =
  match t with
  | Double | Single -> infinity
  | Bool -> 1.0
  | _ -> (
      match integer_range t with
      | Some (_, hi) -> float_of_int hi
      | None -> assert false)

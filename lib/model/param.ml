type value =
  | Float of float
  | Int of int
  | Bool of bool
  | String of string
  | Dtype of Dtype.t
  | Floats of float array

type t = (string * value) list

let find ps k = List.assoc k ps

let clash k what = invalid_arg (Printf.sprintf "Param.%s: %s has another type" what k)

let float ps k =
  match find ps k with
  | Float x -> x
  | Int n -> float_of_int n
  | _ -> clash k "float"

let int ps k = match find ps k with Int n -> n | _ -> clash k "int"
let bool ps k = match find ps k with Bool b -> b | _ -> clash k "bool"
let string ps k = match find ps k with String s -> s | _ -> clash k "string"
let dtype ps k = match find ps k with Dtype d -> d | _ -> clash k "dtype"
let floats ps k = match find ps k with Floats a -> a | _ -> clash k "floats"

let opt f ps k = match List.assoc_opt k ps with None -> None | Some _ -> Some (f ps k)
let float_opt ps k = opt float ps k
let int_opt ps k = opt int ps k
let string_opt ps k = opt string ps k

let pp_value ppf = function
  | Float x -> Format.fprintf ppf "%g" x
  | Int n -> Format.fprintf ppf "%d" n
  | Bool b -> Format.fprintf ppf "%b" b
  | String s -> Format.fprintf ppf "%S" s
  | Dtype d -> Dtype.pp ppf d
  | Floats a ->
      Format.fprintf ppf "[%s]"
        (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%g") a)))

let to_string ps =
  String.concat ", "
    (List.map (fun (k, v) -> Format.asprintf "%s=%a" k pp_value v) ps)

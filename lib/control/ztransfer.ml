type t = { num : float array; den : float array }

let create ~num ~den =
  if Array.length den = 0 then invalid_arg "Ztransfer.create: empty den";
  if den.(0) = 0.0 then invalid_arg "Ztransfer.create: zero leading den";
  if Array.length num > Array.length den then
    invalid_arg "Ztransfer.create: non-causal (num longer than den)";
  let n = Array.length den in
  let lead = den.(0) in
  let den = Array.map (fun c -> c /. lead) den in
  let num =
    Array.init n (fun i ->
        if i < Array.length num then num.(i) /. lead else 0.0)
  in
  { num; den }

let order t = Array.length t.den - 1
let num t = Array.copy t.num
let den t = Array.copy t.den

type state = float array ref
(* Direct form II transposed delay line, length = order. *)

let init t = ref (Array.make (order t) 0.0)
let reset s = Array.fill !s 0 (Array.length !s) 0.0

let save s =
  let w = Array.copy !s in
  fun () -> s := Array.copy w

let step t s u =
  let w = !s in
  let n = Array.length w in
  let y = (t.num.(0) *. u) +. if n > 0 then w.(0) else 0.0 in
  for i = 0 to n - 1 do
    let next = if i + 1 < n then w.(i + 1) else 0.0 in
    w.(i) <- next +. (t.num.(i + 1) *. u) -. (t.den.(i + 1) *. y)
  done;
  y

let response t inputs =
  let s = init t in
  List.map (step t s) inputs

let dc_gain t =
  let sum a = Array.fold_left ( +. ) 0.0 a in
  let d = sum t.den in
  if Float.abs d < 1e-12 then infinity else sum t.num /. d

(* Polynomial helpers over descending-power coefficient arrays. *)
let poly_mul a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (la + lb - 1) 0.0 in
  for i = 0 to la - 1 do
    for j = 0 to lb - 1 do
      r.(i + j) <- r.(i + j) +. (a.(i) *. b.(j))
    done
  done;
  r

let poly_pow p k =
  let rec go acc k = if k = 0 then acc else go (poly_mul acc p) (k - 1) in
  go [| 1.0 |] k

let poly_add_scaled dst src scale =
  (* dst and src are descending-power; align at the low-order end. *)
  let ld = Array.length dst and ls = Array.length src in
  let r = Array.copy dst in
  for i = 0 to ls - 1 do
    let di = ld - ls + i in
    r.(di) <- r.(di) +. (scale *. src.(i))
  done;
  r

let tustin ~num_s ~den_s ~ts =
  if ts <= 0.0 then invalid_arg "Ztransfer.tustin: ts";
  let n = Array.length den_s - 1 in
  if n < 0 || den_s = [||] then invalid_arg "Ztransfer.tustin: empty den";
  if n > 4 then invalid_arg "Ztransfer.tustin: order > 4 unsupported";
  if Array.length num_s > Array.length den_s then
    invalid_arg "Ztransfer.tustin: improper transfer function";
  let c = 2.0 /. ts in
  let zm1 = [| 1.0; -1.0 |] (* z - 1 *) and zp1 = [| 1.0; 1.0 |] (* z + 1 *) in
  (* s^k -> c^k (z-1)^k (z+1)^(n-k); every term padded to degree n in z. *)
  let substitute coeffs =
    let len = Array.length coeffs in
    let acc = ref (Array.make (n + 1) 0.0) in
    Array.iteri
      (fun idx a ->
        (* coefficient of s^(len-1-idx) *)
        let k = len - 1 - idx in
        let term = poly_mul (poly_pow zm1 k) (poly_pow zp1 (n - k)) in
        let scaled = Array.map (fun x -> x *. (c ** float_of_int k)) term in
        acc := poly_add_scaled !acc scaled a)
      coeffs;
    !acc
  in
  create ~num:(substitute num_s) ~den:(substitute den_s)

let zoh_first_order ~k ~tau ~ts =
  if tau <= 0.0 || ts <= 0.0 then invalid_arg "Ztransfer.zoh_first_order";
  let a = exp (-.ts /. tau) in
  create ~num:[| 0.0; k *. (1.0 -. a) |] ~den:[| 1.0; -.a |]

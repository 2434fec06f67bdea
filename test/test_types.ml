(* Signal data types and runtime values. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float eps = Alcotest.(check (float eps))

let test_dtype_storage () =
  check_int "double bits" 64 (Dtype.bits Dtype.Double);
  check_int "uint16 bytes" 2 (Dtype.bytes Dtype.Uint16);
  check_int "bool as byte" 1 (Dtype.bytes Dtype.Bool)

let test_c_names () =
  Alcotest.(check string) "uint16" "uint16_t" (Dtype.c_name Dtype.Uint16);
  Alcotest.(check string) "double" "double" (Dtype.c_name Dtype.Double)

let test_integer_ranges () =
  Alcotest.(check (option (pair int int))) "int8" (Some (-128, 127))
    (Dtype.integer_range Dtype.Int8);
  Alcotest.(check (option (pair int int))) "none for double" None
    (Dtype.integer_range Dtype.Double);
  check_float 1e-9 "uint16 max" 65535.0 (Dtype.max_float_value Dtype.Uint16)

let test_value_quantisation () =
  check_int "uint8 saturates" 255 (Value.to_int (Value.of_float Dtype.Uint8 300.0));
  check_int "int16 saturates low" (-32768)
    (Value.to_int (Value.of_float Dtype.Int16 (-1e9)));
  check_int "rounds to nearest" 3 (Value.to_int (Value.of_float Dtype.Int32 2.6));
  check_bool "bool from nonzero" true (Value.to_bool (Value.of_float Dtype.Bool 0.1));
  check_int "nan to integer is 0" 0 (Value.to_int (Value.of_float Dtype.Int16 nan))

let test_value_cast () =
  let v = Value.of_float Dtype.Double 100.7 in
  check_int "double -> uint8" 101 (Value.to_int (Value.cast Dtype.Uint8 v))

let test_value_equal () =
  check_bool "typed equality" true
    (Value.equal (Value.of_int Dtype.Int16 5) (Value.of_int Dtype.Int16 5));
  check_bool "different types differ" false
    (Value.equal (Value.of_int Dtype.Int16 5) (Value.of_int Dtype.Int32 5));
  check_bool "zero helper" true
    (Value.equal (Value.zero Dtype.Uint16) (Value.of_int Dtype.Uint16 0))

let test_of_int_rejects_floats () =
  match Value.of_int Dtype.Double 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "of_int on a float type accepted"

let prop_of_float_within_type_bounds =
  QCheck2.Test.make ~name:"of_float lands within the type bounds" ~count:300
    QCheck2.Gen.(
      pair
        (oneofl [ Dtype.Int8; Dtype.Uint8; Dtype.Int16; Dtype.Uint16; Dtype.Bool ])
        (float_range (-1e6) 1e6))
    (fun (dt, x) ->
      let v = Value.to_float (Value.of_float dt x) in
      v >= Dtype.min_float_value dt && v <= Dtype.max_float_value dt)

let prop_cast_idempotent =
  QCheck2.Test.make ~name:"cast to the same type is idempotent" ~count:300
    QCheck2.Gen.(
      pair
        (oneofl [ Dtype.Int16; Dtype.Uint8; Dtype.Double ])
        (float_range (-100.0) 100.0))
    (fun (dt, x) ->
      let v = Value.of_float dt x in
      Value.equal v (Value.cast dt v))

(* ---- Itv: the interval domain of the range analyses ---- *)

(* a finite point and an interval around it whose bounds may be
   infinite; the point is 0 often enough to meet 0 * inf *)
let gen_member =
  QCheck2.Gen.(
    let reach = oneof [ return 0.0; float_range 0.0 1e3; return infinity ] in
    map3
      (fun x dlo dhi -> ({ Itv.lo = x -. dlo; hi = x +. dhi }, x))
      (oneof [ return 0.0; float_range (-1e3) 1e3 ])
      reach reach)

let valid (i : Itv.t) = i.lo <= i.hi (* false on a NaN bound too *)
let holds (i : Itv.t) v = valid i && i.lo <= v && v <= i.hi

let prop_itv_sound =
  QCheck2.Test.make ~name:"Itv ops contain the ops on their points"
    QCheck2.Gen.(triple gen_member gen_member gen_member)
    (fun ((a, x), (b, y), (c, _)) ->
      holds (Itv.add a b) (x +. y)
      && holds (Itv.sub a b) (x -. y)
      && holds (Itv.neg a) (-.x)
      && holds (Itv.mul a b) (x *. y)
      && (y = 0.0 || holds (Itv.div a b) (x /. y))
      && holds (Itv.abs a) (Float.abs x)
      && holds (Itv.hull a b) x
      && holds (Itv.hull a b) y
      && holds (Itv.clamp ~bounds:c a) (Float.max c.lo (Float.min c.hi x))
      && holds (Itv.widen ~old:a b) y
      && valid (Itv.wrap ~bounds:c a))

(* integer end points: the integers of an interval meet, or lie inside,
   the bounds exactly when its reals do *)
let prop_itv_classify =
  QCheck2.Test.make ~name:"Itv.classify agrees with its points"
    QCheck2.Gen.(
      pair
        (pair (int_range (-20) 20) (int_range 0 10))
        (pair (int_range (-20) 20) (int_range 0 10)))
    (fun ((lo, w), (blo, bw)) ->
      let itv lo w = Itv.make (float_of_int lo) (float_of_int (lo + w)) in
      let bounds = itv blo bw in
      let inside =
        List.init (w + 1) (fun k -> holds bounds (float_of_int (lo + k)))
      in
      Itv.classify ~bounds (itv lo w)
      =
      if List.for_all Fun.id inside then Itv.Never
      else if List.exists Fun.id inside then Itv.May
      else Itv.Always)

let suite =
  [
    Alcotest.test_case "dtype storage" `Quick test_dtype_storage;
    Alcotest.test_case "c names" `Quick test_c_names;
    Alcotest.test_case "integer ranges" `Quick test_integer_ranges;
    Alcotest.test_case "value quantisation" `Quick test_value_quantisation;
    Alcotest.test_case "value cast" `Quick test_value_cast;
    Alcotest.test_case "value equality" `Quick test_value_equal;
    Alcotest.test_case "of_int float rejection" `Quick test_of_int_rejects_floats;
    QCheck_alcotest.to_alcotest prop_of_float_within_type_bounds;
    QCheck_alcotest.to_alcotest prop_cast_idempotent;
    QCheck_alcotest.to_alcotest prop_itv_sound;
    QCheck_alcotest.to_alcotest prop_itv_classify;
  ]

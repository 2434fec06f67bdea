(* The one fixed-point format: Pid.Fixpoint's Q15 signals and Q16.16
   coefficients, and the three rules its step is built from, each as
   the generated C states it (pe_cast_i16, pe_mul_shift, pe_sat_add32). *)

module F = Pid.Fixpoint

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let i32_max = 0x7FFF_FFFF
let i32_min = -0x8000_0000
let q15 raw = ldexp (float_of_int raw) (-15)

let test_format_ranges () =
  check_int "signal fraction bits" 15 F.sig_frac_bits;
  check_int "coefficient fraction bits" 16 F.coef_frac_bits;
  let lo, hi = F.sig_range in
  check_float "q15 min value" (-1.0) lo;
  check_float "q15 max value" (32767.0 /. 32768.0) hi;
  check_int "q15 max raw" 32767 (F.quantize_sig hi);
  check_int "q15 min raw" (-32768) (F.quantize_sig lo);
  check_int "q15 resolution" 1 (F.quantize_sig (1.0 /. 32768.0))

let test_of_float_roundtrip () =
  check_int "0.5 raw" 16384 (F.quantize_sig 0.5);
  check_float "0.5 back" 0.5 (q15 (F.quantize_sig 0.5));
  check_int "-0.25 raw" (-8192) (F.quantize_sig (-0.25));
  check_int "2.5 in Q16.16" 163840 (F.quantize_coef 2.5)

let test_saturation () =
  check_int "saturated to max" 32767 (F.quantize_sig 1.5);
  check_int "saturated to min" (-32768) (F.quantize_sig (-3.0));
  check_int "coefficient saturates high" i32_max (F.quantize_coef 1e6);
  check_int "coefficient saturates low" i32_min (F.quantize_coef (-1e6));
  check_int "infinity saturates" 32767 (F.quantize_sig infinity);
  Alcotest.check_raises "nan" (Invalid_argument "Pid.Fixpoint: nan") (fun () ->
      ignore (F.quantize_sig nan))

(* the int32_t conversion of pe_mul_shift's result wraps *)
let test_wrap () =
  check_int "2^32 - 2 wraps to -2" (-2) (F.mul_shift i32_max (1 lsl 17) 16);
  check_int "2^31 wraps to INT32_MIN" i32_min (F.mul_shift (1 lsl 30) 4 1);
  check_int "-3*2^30 wraps to 2^30" (1 lsl 30) (F.mul_shift i32_min 3 1)

let test_add_sub () =
  check_int "add" 7 (F.sat_add32 3 4);
  check_int "add a negative" (-3) (F.sat_add32 5 (-8));
  check_int "sat add high" i32_max (F.sat_add32 i32_max 1);
  check_int "sat add low" i32_min (F.sat_add32 i32_min (-1));
  check_int "sum of extremes" (-1) (F.sat_add32 i32_max i32_min)

let test_mul () =
  check_int "0.5*0.5 in Q15" 8192 (F.mul_shift 16384 16384 15);
  (* a Q16.16 coefficient times a Q15 signal, shifted by 15: Q16.16 *)
  check_int "2.0*0.25 in Q16.16" (F.quantize_coef 0.5)
    (F.mul_shift (F.quantize_coef 2.0) (F.quantize_sig 0.25) 15)

let test_one () =
  check_int "q15 one saturates" 32767 (F.quantize_sig 1.0);
  check_int "Q16.16 one exact" 65536 (F.quantize_coef 1.0)

(* quantisation rounds a tie away from zero (C round()); a product
   rounds it up (the +2^(s-1) bias before the arithmetic shift) *)
let test_rounding_modes () =
  check_int "+0.5 lsb" 1 (F.quantize_sig (q15 1 /. 2.0));
  check_int "-0.5 lsb" (-1) (F.quantize_sig (-.q15 1 /. 2.0));
  check_int "+1.5 lsb" 2 (F.quantize_sig (q15 3 /. 2.0));
  check_int "-1.5 lsb" (-2) (F.quantize_sig (-.q15 3 /. 2.0));
  check_int "product +0.5" 1 (F.mul_shift 1 1 1);
  check_int "product -0.5" 0 (F.mul_shift (-1) 1 1);
  check_int "product -1.5" (-1) (F.mul_shift (-3) 1 1);
  (* the derivative filter at decay 0.5 on an odd negative memory *)
  check_int "decay 0.5 of -3" (-1) (F.mul_shift (F.quantize_coef 0.5) (-3) 16)

(* Property tests *)

let raw_q15 = QCheck2.Gen.int_range (-32768) 32767
let raw_i32 = QCheck2.Gen.int_range i32_min i32_max

let prop_roundtrip =
  QCheck2.Test.make ~name:"of_float/to_float roundtrip is identity on representables"
    ~count:500
    QCheck2.Gen.(pair raw_q15 raw_i32)
    (fun (s, c) ->
      F.quantize_sig (q15 s) = s
      && F.quantize_coef (ldexp (float_of_int c) (-16)) = c)

let prop_quantization_error =
  QCheck2.Test.make ~name:"quantisation error bounded by half resolution"
    ~count:500
    (QCheck2.Gen.float_range (-100.0) 100.0)
    (fun x ->
      let lo, hi = F.sig_range in
      let clamped = Float.min hi (Float.max lo x) in
      Float.abs (q15 (F.quantize_sig x) -. clamped) <= ldexp 1.0 (-16)
      && Float.abs (ldexp (float_of_int (F.quantize_coef x)) (-16) -. x)
         <= ldexp 1.0 (-17))

let prop_add_comm =
  QCheck2.Test.make ~name:"saturating add commutes" ~count:500
    QCheck2.Gen.(pair raw_i32 raw_i32)
    (fun (a, b) -> F.sat_add32 a b = F.sat_add32 b a)

(* the P and I products of the PID: a non-negative Q16.16 coefficient
   times a Q15 signal never leaves the int32 range, so never wraps *)
let prop_mul_range =
  QCheck2.Test.make ~name:"multiply of in-range q15 values stays in range"
    ~count:500
    QCheck2.Gen.(pair (int_range 0 i32_max) raw_q15)
    (fun (c, e) ->
      let r = F.mul_shift c e 15 in
      r = ((c * e) + 16384) asr 15 && r >= -c && r <= c)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_roundtrip; prop_quantization_error; prop_add_comm; prop_mul_range ]

let suite =
  [
    Alcotest.test_case "format ranges" `Quick test_format_ranges;
    Alcotest.test_case "of_float roundtrip" `Quick test_of_float_roundtrip;
    Alcotest.test_case "saturation" `Quick test_saturation;
    Alcotest.test_case "wrapping" `Quick test_wrap;
    Alcotest.test_case "add/sub/neg" `Quick test_add_sub;
    Alcotest.test_case "multiply" `Quick test_mul;
    Alcotest.test_case "one" `Quick test_one;
    Alcotest.test_case "rounding modes" `Quick test_rounding_modes;
  ]
  @ qsuite

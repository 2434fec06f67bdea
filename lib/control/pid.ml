type gains = {
  kp : float;
  ki : float;
  kd : float;
  n : float;
  u_min : float;
  u_max : float;
}

let gains ?(kd = 0.0) ?(n = 100.0) ?(u_min = neg_infinity)
    ?(u_max = infinity) ~kp ~ki () =
  { kp; ki; kd; n; u_min; u_max }

type t = {
  g : gains;
  ts : float;
  mutable integ : float;
  mutable e_prev : float;
  mutable d_prev : float;
}

let create ~ts g =
  if ts <= 0.0 then invalid_arg "Pid.create: ts must be positive";
  { g; ts; integ = 0.0; e_prev = 0.0; d_prev = 0.0 }

let reset t =
  t.integ <- 0.0;
  t.e_prev <- 0.0;
  t.d_prev <- 0.0

let save t =
  let integ = t.integ and e_prev = t.e_prev and d_prev = t.d_prev in
  fun () ->
    t.integ <- integ;
    t.e_prev <- e_prev;
    t.d_prev <- d_prev

let ts t = t.ts

let clamp lo hi x = if x < lo then lo else if x > hi then hi else x

(* Filtered derivative, backward Euler:
   u_d,k = (u_d,k-1 + Kd*N*(e_k - e_k-1)) / (1 + N*Ts); with n = 0 it
   degenerates to the unfiltered difference quotient. *)
let derivative t e =
  let g = t.g in
  if g.kd = 0.0 then 0.0
  else if g.n = 0.0 then g.kd *. (e -. t.e_prev) /. t.ts
  else (t.d_prev +. (g.kd *. g.n *. (e -. t.e_prev))) /. (1.0 +. (g.n *. t.ts))

let step t ~sp ~pv =
  let g = t.g in
  let e = sp -. pv in
  let d = derivative t e in
  let u_unsat = (g.kp *. e) +. t.integ +. d in
  let saturating_up = u_unsat > g.u_max && e > 0.0 in
  let saturating_down = u_unsat < g.u_min && e < 0.0 in
  if not (saturating_up || saturating_down) then
    t.integ <- t.integ +. (g.ki *. t.ts *. e);
  t.e_prev <- e;
  t.d_prev <- d;
  clamp g.u_min g.u_max u_unsat

module Fixpoint = struct
  (* Q15 signals, the MC56F8367's native format (§7), and Q16.16
     coefficients and accumulators in an int32, so that gains above 1.0
     stay representable. Each rule below is the one the generated C
     implements (Target.fix_helpers, Blockgen's pe_cast_i16). *)
  let sig_frac_bits = 15
  let coef_frac_bits = 16
  let sig_min = -32768
  let sig_max = 32767
  let i32_min = -0x8000_0000
  let i32_max = 0x7FFF_FFFF
  let sig_range =
    ( ldexp (float_of_int sig_min) (-sig_frac_bits),
      ldexp (float_of_int sig_max) (-sig_frac_bits) )

  (* round half away from zero, saturate into [lo, hi]; a NaN is a
     modelling error, not a value *)
  let[@inline] quantize frac_bits lo hi x =
    let r = Float.round (ldexp x frac_bits) in
    if Float.is_nan r then invalid_arg "Pid.Fixpoint: nan";
    if r >= float_of_int hi then hi
    else if r <= float_of_int lo then lo
    else int_of_float r

  (* pe_cast_i16 of x * 2^15 *)
  let[@inline] quantize_sig x = quantize sig_frac_bits sig_min sig_max x

  (* the coefficients Blockgen bakes into flash *)
  let quantize_coef x = quantize coef_frac_bits i32_min i32_max x

  (* pe_mul_shift: (a*b + 2^(s-1)) >> s, rounding a tie up, then the
     int32_t conversion, which wraps. The PID's products stay below
     2^49, so the native int holds the C int64_t exactly. *)
  let[@inline] mul_shift a b s =
    let r = ((a * b) + (1 lsl (s - 1))) asr s in
    ((r - i32_min) land 0xFFFF_FFFF) + i32_min

  (* pe_sat_add32 *)
  let[@inline] sat_add32 a b =
    let s = a + b in
    if s > i32_max then i32_max else if s < i32_min then i32_min else s

  type fx = {
    gf : gains;
    tsf : float;
    in_scale : float;
    out_scale : float;
    kp_q : int;
    ki_ts_q : int;
    kd_c1_q : int;  (* Kd*N/(1+N*Ts), or Kd/Ts when n = 0 *)
    d_decay_q : int;  (* 1/(1+N*Ts) *)
    u_min_q : int;
    u_max_q : int;
    mutable integ_q : int;
    mutable e_prev_q : int;
    mutable d_prev_q : int;
  }

  let create ~ts ~in_scale ~out_scale g =
    if ts <= 0.0 then invalid_arg "Pid.Fixpoint.create: ts";
    if in_scale <= 0.0 || out_scale <= 0.0 then
      invalid_arg "Pid.Fixpoint.create: scales must be positive";
    (* The controller consumes normalised signals: e_norm = e / in_scale,
       u_norm = u / out_scale. Gains are rescaled accordingly. *)
    let k = in_scale /. out_scale in
    let kd_c1 =
      if g.kd = 0.0 then 0.0
      else if g.n = 0.0 then g.kd /. ts
      else g.kd *. g.n /. (1.0 +. (g.n *. ts))
    in
    {
      gf = g;
      tsf = ts;
      in_scale;
      out_scale;
      kp_q = quantize_coef (g.kp *. k);
      ki_ts_q = quantize_coef (g.ki *. ts *. k);
      kd_c1_q = quantize_coef (kd_c1 *. k);
      d_decay_q =
        quantize_coef (if g.n = 0.0 then 0.0 else 1.0 /. (1.0 +. (g.n *. ts)));
      u_min_q = quantize_coef (Float.max (-2.0) (g.u_min /. out_scale));
      u_max_q = quantize_coef (Float.min 2.0 (g.u_max /. out_scale));
      integ_q = 0;
      e_prev_q = 0;
      d_prev_q = 0;
    }

  let reset f =
    f.integ_q <- 0;
    f.e_prev_q <- 0;
    f.d_prev_q <- 0

  let save f =
    let integ = f.integ_q and e_prev = f.e_prev_q and d_prev = f.d_prev_q in
    fun () ->
      f.integ_q <- integ;
      f.e_prev_q <- e_prev;
      f.d_prev_q <- d_prev

  (* The generated step, statement for statement *)
  let step f ~sp ~pv =
    let e = quantize_sig ((sp -. pv) /. f.in_scale) in
    let acc = sat_add32 (mul_shift f.kp_q e sig_frac_bits) f.integ_q in
    let acc =
      if f.kd_c1_q = 0 then acc
      else begin
        let sh = coef_frac_bits - sig_frac_bits in
        let de = (e lsl sh) - (f.e_prev_q lsl sh) in
        let d =
          sat_add32
            (mul_shift f.kd_c1_q de coef_frac_bits)
            (mul_shift f.d_decay_q f.d_prev_q coef_frac_bits)
        in
        f.d_prev_q <- d;
        sat_add32 acc d
      end
    in
    let saturating_up = acc > f.u_max_q && e > 0 in
    let saturating_down = acc < f.u_min_q && e < 0 in
    if not (saturating_up || saturating_down) then
      f.integ_q <- sat_add32 f.integ_q (mul_shift f.ki_ts_q e sig_frac_bits);
    f.e_prev_q <- e;
    let u = if acc > f.u_max_q then f.u_max_q else acc in
    let u = if u < f.u_min_q then f.u_min_q else u in
    ldexp (float_of_int u) (-coef_frac_bits) *. f.out_scale

  type raw_coefficients = {
    kp_raw : int;
    ki_ts_raw : int;
    kd_c1_raw : int;
    d_decay_raw : int;
    u_min_raw : int;
    u_max_raw : int;
    coef_frac_bits : int;
    sig_frac_bits : int;
  }

  let raw_coefficients f =
    {
      kp_raw = f.kp_q;
      ki_ts_raw = f.ki_ts_q;
      kd_c1_raw = f.kd_c1_q;
      d_decay_raw = f.d_decay_q;
      u_min_raw = f.u_min_q;
      u_max_raw = f.u_max_q;
      coef_frac_bits;
      sig_frac_bits;
    }

  let quantized_gains f =
    let k = f.in_scale /. f.out_scale in
    let real q = ldexp (float_of_int q) (-coef_frac_bits) in
    ( real f.kp_q /. k,
      real f.ki_ts_q /. f.tsf /. k,
      (* report the realised Kd through the inverse of the c1 mapping *)
      (if f.gf.kd = 0.0 then 0.0
       else if f.gf.n = 0.0 then real f.kd_c1_q *. f.tsf /. k
       else real f.kd_c1_q /. k *. (1.0 +. (f.gf.n *. f.tsf)) /. f.gf.n) )
end

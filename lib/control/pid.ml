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
let gains_of t = t.g

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
  type fx = {
    gf : gains;
    tsf : float;
    sig_fmt : Qformat.t;
    acc_fmt : Qformat.t;
    in_scale : float;
    out_scale : float;
    kp_q : Fixed.t;
    ki_ts_q : Fixed.t;
    kd_c1_q : Fixed.t;  (* Kd*N/(1+N*Ts), or Kd/Ts when n = 0 *)
    d_decay_q : Fixed.t;  (* 1/(1+N*Ts) *)
    u_min_q : Fixed.t;
    u_max_q : Fixed.t;
    mutable integ_q : Fixed.t;
    mutable e_prev_q : Fixed.t;
    mutable d_prev_q : Fixed.t;
  }

  (* Coefficients and accumulators live in a 32-bit 16.16 format so that
     gains above 1.0 remain representable while signals stay in the narrow
     native format (Q15 on the MC56F8367). *)
  let coef_fmt = Qformat.sfix 32 16

  let create ~ts ~fmt ~in_scale ~out_scale g =
    if ts <= 0.0 then invalid_arg "Pid.Fixpoint.create: ts";
    if in_scale <= 0.0 || out_scale <= 0.0 then
      invalid_arg "Pid.Fixpoint.create: scales must be positive";
    let qc x = Fixed.of_float coef_fmt x in
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
      sig_fmt = fmt;
      acc_fmt = coef_fmt;
      in_scale;
      out_scale;
      kp_q = qc (g.kp *. k);
      ki_ts_q = qc (g.ki *. ts *. k);
      kd_c1_q = qc (kd_c1 *. k);
      d_decay_q = qc (if g.n = 0.0 then 0.0 else 1.0 /. (1.0 +. (g.n *. ts)));
      u_min_q = qc (Float.max (-2.0) (g.u_min /. out_scale));
      u_max_q = qc (Float.min 2.0 (g.u_max /. out_scale));
      integ_q = Fixed.zero coef_fmt;
      e_prev_q = Fixed.zero fmt;
      d_prev_q = Fixed.zero coef_fmt;
    }

  let reset f =
    f.integ_q <- Fixed.zero f.acc_fmt;
    f.e_prev_q <- Fixed.zero f.sig_fmt;
    f.d_prev_q <- Fixed.zero f.acc_fmt

  let save f =
    let integ = f.integ_q and e_prev = f.e_prev_q and d_prev = f.d_prev_q in
    fun () ->
      f.integ_q <- integ;
      f.e_prev_q <- e_prev;
      f.d_prev_q <- d_prev

  let step f ~sp ~pv =
    let e_q = Fixed.of_float f.sig_fmt ((sp -. pv) /. f.in_scale) in
    let p_q = Fixed.mul_to f.acc_fmt f.kp_q e_q in
    let d_q =
      if Fixed.raw f.kd_c1_q = 0 then Fixed.zero f.acc_fmt
      else
        let de = Fixed.sub (Fixed.convert f.acc_fmt e_q)
            (Fixed.convert f.acc_fmt f.e_prev_q) in
        let raw_d = Fixed.mul_to f.acc_fmt f.kd_c1_q de in
        if Fixed.raw f.d_decay_q = 0 then raw_d
        else Fixed.add (Fixed.mul f.d_prev_q f.d_decay_q) raw_d
    in
    let u_unsat = Fixed.add (Fixed.add p_q f.integ_q) d_q in
    let saturating_up = Fixed.compare u_unsat f.u_max_q > 0 && Fixed.raw e_q > 0 in
    let saturating_down = Fixed.compare u_unsat f.u_min_q < 0 && Fixed.raw e_q < 0 in
    if not (saturating_up || saturating_down) then
      f.integ_q <- Fixed.add f.integ_q (Fixed.mul_to f.acc_fmt f.ki_ts_q e_q);
    f.e_prev_q <- e_q;
    f.d_prev_q <- d_q;
    let u_q = Fixed.min (Fixed.max u_unsat f.u_min_q) f.u_max_q in
    Fixed.to_float u_q *. f.out_scale

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
      kp_raw = Fixed.raw f.kp_q;
      ki_ts_raw = Fixed.raw f.ki_ts_q;
      kd_c1_raw = Fixed.raw f.kd_c1_q;
      d_decay_raw = Fixed.raw f.d_decay_q;
      u_min_raw = Fixed.raw f.u_min_q;
      u_max_raw = Fixed.raw f.u_max_q;
      coef_frac_bits = coef_fmt.Qformat.frac_bits;
      sig_frac_bits = f.sig_fmt.Qformat.frac_bits;
    }

  let quantized_gains f =
    let k = f.in_scale /. f.out_scale in
    ( Fixed.to_float f.kp_q /. k,
      Fixed.to_float f.ki_ts_q /. f.tsf /. k,
      (* report the realised Kd through the inverse of the c1 mapping *)
      (if f.gf.kd = 0.0 then 0.0
       else if f.gf.n = 0.0 then Fixed.to_float f.kd_c1_q *. f.tsf /. k
       else
         Fixed.to_float f.kd_c1_q /. k
         *. (1.0 +. (f.gf.n *. f.tsf))
         /. f.gf.n) )
end

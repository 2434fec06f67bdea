(* Control substrate: PID, transfer functions, stability, tuning, metrics. *)

let check_float eps = Alcotest.(check (float eps))
let check_bool = Alcotest.(check bool)

(* ---------- PID ---------- *)

let test_pid_proportional_only () =
  let c = Pid.create ~ts:0.01 (Pid.gains ~kp:2.0 ~ki:0.0 ()) in
  check_float 1e-12 "p action" 6.0 (Pid.step c ~sp:5.0 ~pv:2.0)

let test_pid_integral_accumulates () =
  let c = Pid.create ~ts:0.1 (Pid.gains ~kp:0.0 ~ki:1.0 ()) in
  ignore (Pid.step c ~sp:1.0 ~pv:0.0);
  (* first step integrates e*ts = 0.1 after output; second step shows it *)
  check_float 1e-12 "second step" 0.1 (Pid.step c ~sp:1.0 ~pv:0.0);
  check_float 1e-12 "third step" 0.2 (Pid.step c ~sp:1.0 ~pv:0.0)

let test_pid_saturation_and_antiwindup () =
  let c = Pid.create ~ts:0.1 (Pid.gains ~kp:0.0 ~ki:10.0 ~u_max:1.0 ~u_min:(-1.0) ()) in
  for _ = 1 to 100 do
    ignore (Pid.step c ~sp:10.0 ~pv:0.0)
  done;
  check_float 1e-12 "clamped" 1.0 (Pid.step c ~sp:10.0 ~pv:0.0);
  (* with conditional integration the integrator must not have wound far
     past the limit: a reversal must unwind quickly *)
  let rec recover n =
    let u = Pid.step c ~sp:(-10.0) ~pv:0.0 in
    if u <= -0.99 then n else recover (n + 1)
  in
  Alcotest.(check bool) "recovers fast" true (recover 0 <= 3)

let test_pid_derivative_kick () =
  let c = Pid.create ~ts:0.01 (Pid.gains ~kp:0.0 ~ki:0.0 ~kd:0.1 ~n:0.0 ()) in
  let u1 = Pid.step c ~sp:1.0 ~pv:0.0 in
  let u2 = Pid.step c ~sp:1.0 ~pv:0.0 in
  check_float 1e-9 "kick on step" 10.0 u1;
  check_float 1e-9 "decays to zero" 0.0 u2

let test_pid_derivative_filter () =
  (* with filtering the kick is spread over several samples *)
  let c = Pid.create ~ts:0.01 (Pid.gains ~kp:0.0 ~ki:0.0 ~kd:0.1 ~n:50.0 ()) in
  let u1 = Pid.step c ~sp:1.0 ~pv:0.0 in
  let u2 = Pid.step c ~sp:1.0 ~pv:0.0 in
  check_bool "filtered kick smaller" true (u1 < 10.0);
  check_bool "second sample nonzero" true (u2 > 0.0 && u2 < u1)

let test_pid_reset () =
  let c = Pid.create ~ts:0.1 (Pid.gains ~kp:1.0 ~ki:1.0 ()) in
  ignore (Pid.step c ~sp:1.0 ~pv:0.0);
  ignore (Pid.step c ~sp:1.0 ~pv:0.0);
  Pid.reset c;
  check_float 1e-12 "fresh after reset" 1.0 (Pid.step c ~sp:1.0 ~pv:0.0)

let test_fixpid_matches_float_small_signals () =
  let g = Pid.gains ~kp:0.5 ~ki:2.0 ~u_min:(-10.0) ~u_max:10.0 () in
  let fc = Pid.create ~ts:1e-3 g in
  let xc =
    Pid.Fixpoint.create ~ts:1e-3 ~in_scale:100.0 ~out_scale:10.0 g
  in
  (* drive both with the same quasi-sinusoidal profile *)
  let max_err = ref 0.0 in
  for k = 0 to 999 do
    let sp = 50.0 *. sin (float_of_int k /. 100.0) in
    let pv = 40.0 *. sin ((float_of_int k /. 100.0) -. 0.2) in
    let uf = Pid.step fc ~sp ~pv in
    let ux = Pid.Fixpoint.step xc ~sp ~pv in
    max_err := Float.max !max_err (Float.abs (uf -. ux))
  done;
  (* quantisation of Q15 signals at in_scale 100 is ~3e-3; allow a small
     accumulation margin *)
  check_bool "fixed tracks float" true (!max_err < 0.1)

let test_fixpid_saturates_cleanly () =
  let g = Pid.gains ~kp:10.0 ~ki:0.0 ~u_min:0.0 ~u_max:24.0 () in
  let xc =
    Pid.Fixpoint.create ~ts:1e-3 ~in_scale:500.0 ~out_scale:24.0 g
  in
  let u = Pid.Fixpoint.step xc ~sp:500.0 ~pv:0.0 in
  check_float 1e-6 "clamps at u_max" 24.0 u;
  let u = Pid.Fixpoint.step xc ~sp:(-500.0) ~pv:0.0 in
  check_float 1e-6 "clamps at u_min" 0.0 u

let test_fixpid_quantized_gains_close () =
  let g = Pid.gains ~kp:0.0304 ~ki:2.53 () in
  let xc =
    Pid.Fixpoint.create ~ts:1e-3 ~in_scale:512.0 ~out_scale:24.0 g
  in
  let kp, ki, _ = Pid.Fixpoint.quantized_gains xc in
  check_bool "kp within 1%" true (Float.abs (kp -. 0.0304) /. 0.0304 < 0.01);
  check_bool "ki within 1%" true (Float.abs (ki -. 2.53) /. 2.53 < 0.01)

(* ---------- Ztransfer ---------- *)

let test_tf_dc_gain () =
  (* H(z) = 0.2 / (1 - 0.8 z^-1): dc gain 1 *)
  let tf = Ztransfer.create ~num:[| 0.2 |] ~den:[| 1.0; -0.8 |] in
  check_float 1e-12 "dc gain" 1.0 (Ztransfer.dc_gain tf)

let test_tf_first_order_response () =
  let tf = Ztransfer.create ~num:[| 0.2 |] ~den:[| 1.0; -0.8 |] in
  let resp = Ztransfer.response tf [ 1.0; 1.0; 1.0; 1.0 ] in
  (* y(k) = 0.2 * sum 0.8^i *)
  let expected = [ 0.2; 0.36; 0.488; 0.5904 ] in
  List.iter2 (fun a b -> check_float 1e-9 "sample" a b) expected resp

let test_tf_feedthrough () =
  (* biproper H(z) = (1 - 0.5 z^-1)/(1 - 0.2 z^-1) responds instantly *)
  let tf = Ztransfer.create ~num:[| 1.0; -0.5 |] ~den:[| 1.0; -0.2 |] in
  (match Ztransfer.response tf [ 1.0 ] with
  | [ y ] -> check_float 1e-12 "instant" 1.0 y
  | _ -> Alcotest.fail "arity")

let test_tf_normalisation () =
  let tf = Ztransfer.create ~num:[| 2.0 |] ~den:[| 2.0; -1.0 |] in
  check_float 1e-12 "den normalised" 1.0 (Ztransfer.den tf).(0);
  check_float 1e-12 "num scaled" 1.0 (Ztransfer.num tf).(0)

let test_tf_invalid () =
  Alcotest.check_raises "non-causal"
    (Invalid_argument "Ztransfer.create: non-causal (num longer than den)")
    (fun () -> ignore (Ztransfer.create ~num:[| 1.0; 2.0 |] ~den:[| 1.0 |]))

let test_tustin_first_order () =
  (* 1/(s+1) via Tustin at ts, compare with the continuous step response *)
  let ts = 0.01 in
  let tf = Ztransfer.tustin ~num_s:[| 1.0 |] ~den_s:[| 1.0; 1.0 |] ~ts in
  (* output sample k of the Tustin model approximates t = (k + 1/2) ts *)
  let n = 100 in
  let resp = Ztransfer.response tf (List.init n (fun _ -> 1.0)) in
  let y_end = List.nth resp (n - 1) in
  check_float 1e-4 "step at t=99.5 ts" (1.0 -. exp (-0.995)) y_end

let test_tustin_integrator () =
  (* 1/s -> trapezoidal integrator: dc gain infinite, ramp slope ts *)
  let tf = Ztransfer.tustin ~num_s:[| 1.0 |] ~den_s:[| 1.0; 0.0 |] ~ts:0.1 in
  let resp = Ztransfer.response tf [ 1.0; 1.0; 1.0 ] in
  (* trapezoid of constant 1: 0.05, 0.15, 0.25 *)
  List.iter2
    (fun a b -> check_float 1e-9 "trapezoid" a b)
    [ 0.05; 0.15; 0.25 ] resp

let test_zoh_first_order () =
  let tf = Ztransfer.zoh_first_order ~k:2.0 ~tau:0.5 ~ts:0.01 in
  check_float 1e-9 "dc gain" 2.0 (Ztransfer.dc_gain tf);
  (* ZOH discretisation is exact at the sample instants: y[k] = y(k ts) *)
  let resp = Ztransfer.response tf (List.init 101 (fun _ -> 1.0)) in
  check_float 1e-9 "exact zoh at t=1"
    (2.0 *. (1.0 -. exp (-1.0 /. 0.5)))
    (List.nth resp 100)

(* ---------- Stability ---------- *)

let test_jury_simple () =
  check_bool "z - 0.5 stable" true (Stability.jury [| 1.0; -0.5 |]);
  check_bool "z - 1.5 unstable" false (Stability.jury [| 1.0; -1.5 |]);
  check_bool "marginal z - 1 unstable" false (Stability.jury [| 1.0; -1.0 |])

let test_jury_second_order () =
  (* roots at 0.5 +- 0.5i: |r| = 0.707 stable *)
  check_bool "complex stable" true (Stability.jury [| 1.0; -1.0; 0.5 |]);
  (* roots at 1.2, 0.3 *)
  check_bool "real unstable" false (Stability.jury [| 1.0; -1.5; 0.36 |])

let test_jury_vs_roots_oracle () =
  (* cross-check jury against numeric roots on a grid of coefficients *)
  let mismatches = ref 0 in
  for i = -8 to 8 do
    for j = -8 to 8 do
      let a1 = float_of_int i /. 5.0 and a2 = float_of_int j /. 5.0 in
      let poly = [| 1.0; a1; a2 |] in
      let stable_jury = Stability.jury poly in
      let mag = Stability.poly_roots_magnitude poly in
      (* skip near-marginal cases where numeric root finding is fuzzy *)
      if Float.abs (mag -. 1.0) > 1e-3 && stable_jury <> (mag < 1.0) then
        incr mismatches
    done
  done;
  Alcotest.(check int) "jury agrees with roots" 0 !mismatches

let test_closed_loop_stability () =
  let plant = Ztransfer.create ~num:[| 0.0; 0.1 |] ~den:[| 1.0; -0.9 |] in
  let c_small = Ztransfer.create ~num:[| 1.0 |] ~den:[| 1.0 |] in
  let c_huge = Ztransfer.create ~num:[| 100.0 |] ~den:[| 1.0 |] in
  check_bool "small gain stable" true
    (Stability.closed_loop_stable ~plant ~controller:c_small);
  check_bool "huge gain unstable" false
    (Stability.closed_loop_stable ~plant ~controller:c_huge)

(* ---------- Tuning ---------- *)

let test_imc_pi_design () =
  let kp, ki = Tuning.pi_for_first_order ~k:2.0 ~tau:0.5 ~closed_loop_tau:0.1 () in
  check_float 1e-12 "kp" (0.5 /. (2.0 *. 0.1)) kp;
  check_float 1e-12 "ki" (1.0 /. (2.0 *. 0.1)) ki

let test_ultimate_gain () =
  (* delayed first-order plant has a finite ultimate gain *)
  let plant = Ztransfer.create ~num:[| 0.0; 0.0; 0.1 |] ~den:[| 1.0; -0.9; 0.0 |] in
  match Tuning.ultimate_gain ~plant () with
  | Some (ku, tu) ->
      check_bool "ku positive finite" true (ku > 0.0 && Float.is_finite ku);
      check_bool "tu in samples > 2" true (tu > 2.0);
      (* verify marginality: 0.9*ku stable, 1.1*ku unstable *)
      let stable k =
        Stability.closed_loop_stable ~plant
          ~controller:(Ztransfer.create ~num:[| k |] ~den:[| 1.0 |])
      in
      check_bool "below ku stable" true (stable (0.9 *. ku));
      check_bool "above ku unstable" false (stable (1.1 *. ku))
  | None -> Alcotest.fail "expected an ultimate gain"

let test_zn_rules () =
  let kp, ki, kd = Tuning.ziegler_nichols_pid ~ku:10.0 ~tu:0.5 in
  check_float 1e-12 "kp" 6.0 kp;
  check_float 1e-12 "ki" (6.0 /. 0.25) ki;
  check_float 1e-12 "kd" (6.0 *. 0.0625) kd

(* ---------- Metrics ---------- *)

let first_order_step k tau sp ts n =
  List.init n (fun i ->
      let t = float_of_int i *. ts in
      (t, k *. sp *. (1.0 -. exp (-.t /. tau))))

let test_step_info_first_order () =
  let traj = first_order_step 1.0 0.1 1.0 1e-3 2000 in
  let si = Metrics.step_info ~sp:1.0 traj in
  (* analytic 10-90 rise of a first order lag: tau * ln 9 *)
  check_float 3e-3 "rise time" (0.1 *. log 9.0) si.Metrics.rise_time;
  check_float 1e-6 "no overshoot" 0.0 si.Metrics.overshoot;
  check_float 5e-3 "settling at tau ln 50" (0.1 *. log 50.0) si.Metrics.settling_time;
  check_bool "sse small" true (si.Metrics.steady_state_error < 1e-3)

let test_step_info_overshoot () =
  (* synthetic damped oscillation peaking at 1.3 *)
  let traj =
    List.init 3000 (fun i ->
        let t = float_of_int i *. 1e-3 in
        (t, 1.0 -. (exp (-3.0 *. t) *. cos (10.0 *. t) *. 1.0)
            +. (0.0 *. t)))
  in
  let si = Metrics.step_info ~sp:1.0 traj in
  check_bool "overshoot detected" true (si.Metrics.overshoot > 0.1);
  check_bool "peak after rise" true (si.Metrics.peak_time > 0.0)

let test_integral_criteria () =
  (* constant error of 0.5 over 2 s: IAE 1.0, ISE 0.5, ITAE 1.0 *)
  let traj = List.init 2001 (fun i -> (float_of_int i *. 1e-3, 0.5)) in
  let sp _ = 1.0 in
  check_float 1e-6 "iae" 1.0 (Metrics.iae ~sp traj);
  check_float 1e-6 "ise" 0.5 (Metrics.ise ~sp traj);
  check_float 1e-3 "itae" 1.0 (Metrics.itae ~sp traj)

let test_max_deviation_and_divergence () =
  let a = [ (0.0, 1.0); (1.0, 2.0) ] and b = [ (0.0, 1.5); (1.0, 1.0) ] in
  check_float 1e-12 "max dev" 1.0 (Metrics.max_deviation a b);
  check_bool "no divergence" false (Metrics.diverged a);
  check_bool "divergence" true (Metrics.diverged [ (0.0, 1e9) ]);
  check_bool "nan divergence" true (Metrics.diverged [ (0.0, nan) ])

let suite =
  [
    Alcotest.test_case "pid proportional" `Quick test_pid_proportional_only;
    Alcotest.test_case "pid integral" `Quick test_pid_integral_accumulates;
    Alcotest.test_case "pid anti-windup" `Quick test_pid_saturation_and_antiwindup;
    Alcotest.test_case "pid derivative kick" `Quick test_pid_derivative_kick;
    Alcotest.test_case "pid derivative filter" `Quick test_pid_derivative_filter;
    Alcotest.test_case "pid reset" `Quick test_pid_reset;
    Alcotest.test_case "fixpid tracks float" `Quick test_fixpid_matches_float_small_signals;
    Alcotest.test_case "fixpid saturation" `Quick test_fixpid_saturates_cleanly;
    Alcotest.test_case "fixpid quantised gains" `Quick test_fixpid_quantized_gains_close;
    Alcotest.test_case "tf dc gain" `Quick test_tf_dc_gain;
    Alcotest.test_case "tf first order" `Quick test_tf_first_order_response;
    Alcotest.test_case "tf feedthrough" `Quick test_tf_feedthrough;
    Alcotest.test_case "tf normalisation" `Quick test_tf_normalisation;
    Alcotest.test_case "tf invalid" `Quick test_tf_invalid;
    Alcotest.test_case "tustin first order" `Quick test_tustin_first_order;
    Alcotest.test_case "tustin integrator" `Quick test_tustin_integrator;
    Alcotest.test_case "zoh first order" `Quick test_zoh_first_order;
    Alcotest.test_case "jury simple" `Quick test_jury_simple;
    Alcotest.test_case "jury 2nd order" `Quick test_jury_second_order;
    Alcotest.test_case "jury vs roots" `Quick test_jury_vs_roots_oracle;
    Alcotest.test_case "closed-loop stability" `Quick test_closed_loop_stability;
    Alcotest.test_case "imc pi" `Quick test_imc_pi_design;
    Alcotest.test_case "ultimate gain" `Quick test_ultimate_gain;
    Alcotest.test_case "ziegler-nichols" `Quick test_zn_rules;
    Alcotest.test_case "step info first order" `Quick test_step_info_first_order;
    Alcotest.test_case "step info overshoot" `Quick test_step_info_overshoot;
    Alcotest.test_case "integral criteria" `Quick test_integral_criteria;
    Alcotest.test_case "deviation/divergence" `Quick test_max_deviation_and_divergence;
  ]

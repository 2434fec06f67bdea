open C_ast

let nothing = Blockgen.{ state_fields = []; init = []; step = []; update = []; needs_time = false }

let in0 g = List.nth g.Blockgen.ins 0
let out_ g i = List.nth g.Blockgen.outs i
let out0 g = out_ g 0

(* Load torque expression of the serialised {!Load_profile} under [key]
   (see Plant_blocks.load_params); [w] is the current speed expression.
   A [Sum] adds its parts left to right from 0, as [Load_profile.torque]
   does, so the C sums in the same order. *)
let rec load_torque_expr ?(key = "load") ps w =
  let f k = flt (Param.float ps (key ^ "_" ^ k)) in
  let at_or_after k = Bin (">=", Var "model_time", f k) in
  match Param.string_opt ps key with
  | None | Some "none" -> flt 0.0
  | Some "constant" -> f "tau"
  | Some "viscous" -> Bin ("*", f "k", w)
  | Some "step" -> Ternary (at_or_after "at", f "tau", flt 0.0)
  | Some "pulse" ->
      Ternary
        ( Bin ("&&", at_or_after "start", Bin ("<", Var "model_time", f "stop")),
          f "tau", flt 0.0 )
  | Some "periodic" ->
      Ternary
        ( Bin
            ( "&&",
              at_or_after "at",
              Bin
                ( "<",
                  Call ("fmod", [ Bin ("-", Var "model_time", f "at"); f "every" ]),
                  f "duration" ) ),
          f "tau", flt 0.0 )
  | Some "sum" ->
      List.fold_left
        (fun acc i ->
          Bin ("+", acc, load_torque_expr ~key:(key ^ "." ^ string_of_int i) ps w))
        (flt 0.0)
        (List.init (Param.int ps (key ^ "_n")) Fun.id)
  | Some other ->
      raise
        (Target.Codegen_error
           (Printf.sprintf "load profile %S has no C realisation" other))

let emit_builtin ~dt g spec =
  let ps = spec.Block.params in
  let pf = Param.float ps in
  match spec.Block.kind with
  | "Integrator" ->
      (* dx/dt = k*u with u held: exact update x += k*u*dt *)
      Blockgen.
        {
          nothing with
          state_fields = [ (Double_t, "x") ];
          init = [ Assign (g.Blockgen.state "x", flt (pf "init")) ];
          step = [ Assign (out0 g, g.Blockgen.state "x") ];
          update =
            [
              Assign
                ( g.Blockgen.state "x",
                  Bin ("+", g.Blockgen.state "x",
                       Bin ("*", flt (pf "k" *. dt), in0 g)) );
            ];
        }
  | "FirstOrder" ->
      (* exact ZOH discretisation of k/(tau s + 1) *)
      let k = pf "k" and tau = pf "tau" in
      let a = exp (-.dt /. tau) in
      Blockgen.
        {
          nothing with
          state_fields = [ (Double_t, "x") ];
          init = [ Assign (g.Blockgen.state "x", flt 0.0) ];
          step = [ Assign (out0 g, g.Blockgen.state "x") ];
          update =
            [
              Assign
                ( g.Blockgen.state "x",
                  Bin ("+", Bin ("*", flt a, g.Blockgen.state "x"),
                       Bin ("*", flt (k *. (1.0 -. a)), in0 g)) );
            ];
        }
  | "TransferFcn" | "StateSpace" ->
      (* controllable-canonical / explicit state space under held-input
         RK4; matrices baked as static tables via a Raw block *)
      let n, a_flat, b_vec, c_vec, d =
        match spec.Block.kind with
        | "StateSpace" ->
            ( Param.int ps "n",
              Param.floats ps "a",
              Param.floats ps "b",
              Param.floats ps "c",
              pf "d" )
        | _ ->
            (* rebuild the canonical realisation exactly as the block does *)
            let num = Param.floats ps "num" and den = Param.floats ps "den" in
            let n = Array.length den - 1 in
            let dennorm = Array.map (fun x -> x /. den.(0)) den in
            let numpad =
              let k = Array.length den - Array.length num in
              Array.init (Array.length den) (fun i ->
                  (if i < k then 0.0 else num.(i - k)) /. den.(0))
            in
            let d = numpad.(0) in
            let c = Array.init n (fun i -> numpad.(i + 1) -. (d *. dennorm.(i + 1))) in
            let a =
              Array.init n (fun i ->
                  Array.init n (fun j ->
                      if i = 0 then -.dennorm.(j + 1)
                      else if j = i - 1 then 1.0
                      else 0.0))
            in
            (n, Array.concat (Array.to_list a), Array.init n (fun i -> if i = 0 then 1.0 else 0.0), c, d)
      in
      let arr name values =
        Printf.sprintf "static const double %s_%s[%d] = {%s};" g.Blockgen.name name
          (Array.length values)
          (String.concat ", "
             (Array.to_list (Array.map (Printf.sprintf "%.17g") values)))
      in
      let nm = g.Blockgen.name in
      Blockgen.
        {
          nothing with
          state_fields = [ (Arr (Double_t, n), "x") ];
          init =
            [
              For
                ( Decl (I32, "i", Some (Int_lit 0)),
                  Bin ("<", Var "i", Int_lit n),
                  Expr (Un ("++", Var "i")),
                  [ Assign (Index (g.Blockgen.state "x", Var "i"), flt 0.0) ] );
            ];
          step =
            [
              (* tables first: step and update share one function body in
                 the simulator target *)
              Raw (arr "A" a_flat);
              Raw (arr "B" b_vec);
              Raw (arr "C" c_vec);
              Decl (Double_t, nm ^ "_y", Some (Bin ("*", flt d, in0 g)));
              For
                ( Decl (I32, "i", Some (Int_lit 0)),
                  Bin ("<", Var "i", Int_lit n),
                  Expr (Un ("++", Var "i")),
                  [
                    Assign
                      ( Var (nm ^ "_y"),
                        Bin ("+", Var (nm ^ "_y"),
                             Bin ("*", Index (Var (nm ^ "_C"), Var "i"),
                                  Index (g.Blockgen.state "x", Var "i"))) );
                  ] );
              Assign (out0 g, Var (nm ^ "_y"));
            ];
          update =
            [
              Comment
                (Printf.sprintf
                   "held-input RK4 over one %g s step (4 derivative evaluations)" dt);
              Raw
                (Printf.sprintf
                   "{ double k1[%d], k2[%d], k3[%d], k4[%d], xs[%d]; int i, j, s;\n\
                   \  double u = %s;\n\
                   \  double *ks[4] = {k1, k2, k3, k4};\n\
                   \  double coef[4] = {0.0, 0.5, 0.5, 1.0};\n\
                   \  for (s = 0; s < 4; ++s) {\n\
                   \    for (i = 0; i < %d; ++i) {\n\
                   \      xs[i] = %s[i] + (s ? coef[s] * %g * ks[s-1][i] : 0.0);\n\
                   \    }\n\
                   \    for (i = 0; i < %d; ++i) {\n\
                   \      double acc = %s_B[i] * u;\n\
                   \      for (j = 0; j < %d; ++j) acc += %s_A[i * %d + j] * xs[j];\n\
                   \      ks[s][i] = acc;\n\
                   \    }\n\
                   \  }\n\
                   \  for (i = 0; i < %d; ++i)\n\
                   \    %s[i] += %g / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]); }"
                   n n n n n
                   (C_print.expr_to_string (in0 g))
                   n
                   (C_print.expr_to_string (g.Blockgen.state "x"))
                   dt n nm n nm n n
                   (C_print.expr_to_string (g.Blockgen.state "x"))
                   dt);
            ];
        }
  | "DcMotor" ->
      let nm = g.Blockgen.name in
      let xi = Index (g.Blockgen.state "x", Int_lit 0) in
      let xw = Index (g.Blockgen.state "x", Int_lit 1) in
      let xt = Index (g.Blockgen.state "x", Int_lit 2) in
      Blockgen.
        {
          needs_time = true;
          state_fields = [ (Arr (Double_t, 3), "x") ];
          init =
            List.init 3 (fun i ->
                Assign (Index (g.Blockgen.state "x", Int_lit i), flt 0.0));
          step =
            [
              Assign (out0 g, xw);
              Assign (out_ g 1, xt);
              Assign (out_ g 2, xi);
            ];
          update =
            [
              Comment "electro-mechanical DC motor, held-input RK4";
              Decl (Double_t, nm ^ "_u", Some (in0 g));
              Decl (Double_t, nm ^ "_tau", Some (load_torque_expr ps xw));
              Raw
                (Printf.sprintf
                   "{ double x0[3] = {%s, %s, %s};\n\
                   \  double k[4][3]; double xs[3]; int s, i;\n\
                   \  double coef[4] = {0.0, 0.5, 0.5, 1.0};\n\
                   \  for (s = 0; s < 4; ++s) {\n\
                   \    for (i = 0; i < 3; ++i)\n\
                   \      xs[i] = x0[i] + (s ? coef[s] * %g * k[s-1][i] : 0.0);\n\
                   \    k[s][0] = (%s_u - %.17g * xs[0] - %.17g * xs[1]) / %.17g;\n\
                   \    k[s][1] = (%.17g * xs[0] - %.17g * xs[1] - %s_tau) / %.17g;\n\
                   \    k[s][2] = xs[1];\n\
                   \  }\n\
                   \  %s = x0[0] + %g / 6.0 * (k[0][0] + 2*k[1][0] + 2*k[2][0] + k[3][0]);\n\
                   \  %s = x0[1] + %g / 6.0 * (k[0][1] + 2*k[1][1] + 2*k[2][1] + k[3][1]);\n\
                   \  %s = x0[2] + %g / 6.0 * (k[0][2] + 2*k[1][2] + 2*k[2][2] + k[3][2]); }"
                   (C_print.expr_to_string xi) (C_print.expr_to_string xw)
                   (C_print.expr_to_string xt)
                   dt
                   nm (pf "ra") (pf "ke") (pf "la")
                   (pf "kt") (pf "b") nm (pf "j")
                   (C_print.expr_to_string xi) dt
                   (C_print.expr_to_string xw) dt
                   (C_print.expr_to_string xt) dt);
            ];
        }
  | "PowerStage" ->
      let supply = pf "u_supply" and r_on = pf "r_on" in
      let dead = pf "dead_time_frac" in
      let bipolar = Param.bool ps "bipolar" in
      let nm = g.Blockgen.name in
      let duty_eff =
        Bin ("-", Var (nm ^ "_d"), flt dead)
      in
      Blockgen.
        {
          nothing with
          step =
            [
              Decl (Double_t, nm ^ "_d", Some (in0 g));
              If (Bin ("<", Var (nm ^ "_d"), flt 0.0),
                  [ Assign (Var (nm ^ "_d"), flt 0.0) ], []);
              If (Bin (">", Var (nm ^ "_d"), flt 1.0),
                  [ Assign (Var (nm ^ "_d"), flt 1.0) ], []);
              Decl
                ( Double_t, nm ^ "_de",
                  Some (Ternary (Bin (">", duty_eff, flt 0.0), duty_eff, flt 0.0)) );
              Assign
                ( out0 g,
                  Bin
                    ( "-",
                      (if bipolar then
                         Bin ("*",
                              Bin ("-", Bin ("*", flt 2.0, Var (nm ^ "_de")), flt 1.0),
                              flt supply)
                       else Bin ("*", Var (nm ^ "_de"), flt supply)),
                      Bin ("*", flt r_on, List.nth g.Blockgen.ins 1) ) );
            ];
        }
  | "ThermalPlant" ->
      (* exact exponential update of the linear thermal model *)
      let c_th = pf "c_th" and r_th = pf "r_th" in
      let t_amb = pf "t_amb" and p_max = pf "p_max" in
      let a = exp (-.dt /. (r_th *. c_th)) in
      let nm = g.Blockgen.name in
      Blockgen.
        {
          nothing with
          state_fields = [ (Double_t, "temp") ];
          init = [ Assign (g.Blockgen.state "temp", flt t_amb) ];
          step = [ Assign (out0 g, g.Blockgen.state "temp") ];
          update =
            [
              Decl (Double_t, nm ^ "_p", Some (in0 g));
              If (Bin ("<", Var (nm ^ "_p"), flt 0.0),
                  [ Assign (Var (nm ^ "_p"), flt 0.0) ], []);
              If (Bin (">", Var (nm ^ "_p"), flt p_max),
                  [ Assign (Var (nm ^ "_p"), flt p_max) ], []);
              Decl
                ( Double_t, nm ^ "_tinf",
                  Some (Bin ("+", flt t_amb, Bin ("*", Var (nm ^ "_p"), flt r_th))) );
              Assign
                ( g.Blockgen.state "temp",
                  Bin ("+", Var (nm ^ "_tinf"),
                       Bin ("*", flt a,
                            Bin ("-", g.Blockgen.state "temp", Var (nm ^ "_tinf")))) );
            ];
        }
  | _ -> Blockgen.emit g spec

let emit ~dt g spec = emit_builtin ~dt g spec

let supported_sim spec =
  match spec.Block.kind with
  | "Integrator" | "FirstOrder" | "TransferFcn" | "StateSpace" | "DcMotor"
  | "PowerStage" | "ThermalPlant" ->
      true
  | _ -> Blockgen.supported spec

(* MIR-based checkers over the generated model unit: lift <model>.c
   into the typed IR (with the header's declarations in scope) and run

   - MIR001: definite-assignment analysis — a local read before any
     path assigns it
   - MIR002: liveness analysis — a store no path ever reads
   - MIR003: CFG reachability — statements control can never reach
   - MIR004: the saturation prover — each pe_sat16 / pe_sat_add32 /
     pe_cast_* call site classified as never / may / always saturating
     from the stabilised value ranges

   Only <model>.c is analysed: main.c's event loop ends in the
   conventional unreachable `return 0;`, and the HAL is bean-template
   code outside the model's semantics. The pe_* helper bodies are
   skipped too — their saturation branches are the feature. *)

let findings (arts : Target.artifacts) : Diag.finding list =
  let header = arts.Target.model_h.C_ast.items in
  let { Mir_unit.env; funcs } = Mir_unit.lift ~header arts.Target.model_c in
  List.concat_map
    (fun ((f : C_ast.func), body) ->
      if Mir_unit.is_helper f.C_ast.fname then []
      else begin
        let subject = f.C_ast.fname in
        let dfa =
          Mir_dfa.analyze body ~args:(List.map snd f.C_ast.args)
          |> List.map (function
               | Mir_dfa.Uninit_read { var; loc } ->
                   Diag.make ~rule:"MIR001" ~subject
                     (Printf.sprintf
                        "local `%s` may be read before it is assigned, at \
                         `%s`"
                        var loc)
               | Mir_dfa.Dead_store { var; loc } ->
                   Diag.make ~rule:"MIR002" ~subject
                     (Printf.sprintf
                        "store to `%s` is never read: `%s`" var loc)
               | Mir_dfa.Unreachable { loc } ->
                   Diag.make ~rule:"MIR003" ~subject
                     (Printf.sprintf "statement `%s` is unreachable" loc))
        in
        let sats =
          Mir_range.analyze env f body
          |> List.map (fun (s : Mir_range.sat_fact) ->
                 Diag.make ~rule:"MIR004" ~subject
                   (Printf.sprintf "%s %s: `%s` has range %s against bounds %s"
                      s.op
                      (match s.verdict with
                      | Itv.Never -> "never saturates"
                      | Itv.May -> "may saturate"
                      | Itv.Always -> "always saturates")
                      s.site (Itv.to_string s.arg) (Itv.to_string s.bounds)))
        in
        dfa @ sats
      end)
    funcs

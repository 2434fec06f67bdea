(* Safe-state supervisor: Nominal -> Degraded -> SafeStop with recovery.

   The MIL behaviour and the registered C emitter below are two
   transcriptions of the same statement list. Keep them in lock-step:
   the differential harness compares them bit-for-bit through fault
   transients, so every comparison, counter update and selected output
   must happen in the same order with the same constants on both sides.
   The block deliberately performs no float arithmetic — only
   comparisons among its inputs and parameter constants, integer
   counters, and an exact (double)mode cast — so bit-equality is not at
   the mercy of rounding. *)

type config = {
  w_max : float;
  duty_active : float;
  stale_limit : int;
  trip_limit : int;
  recover_limit : int;
  safe_duty : float;
  degraded_duty_max : float;
  wdog_bean : string option;
}

let default =
  {
    w_max = 260.0;
    duty_active = 0.05;
    stale_limit = 30;
    trip_limit = 50;
    recover_limit = 25;
    safe_duty = 0.0;
    degraded_duty_max = 0.5;
    wdog_bean = None;
  }

let kind = "SafeSupervisor"

let params_of (c : config) : Param.t =
  [
    ("w_max", Param.Float c.w_max);
    ("duty_active", Param.Float c.duty_active);
    ("stale_limit", Param.Int c.stale_limit);
    ("trip_limit", Param.Int c.trip_limit);
    ("recover_limit", Param.Int c.recover_limit);
    ("safe_duty", Param.Float c.safe_duty);
    ("degraded_duty_max", Param.Float c.degraded_duty_max);
  ]
  @ match c.wdog_bean with
    | Some b -> [ ("wdog_bean", Param.String b) ]
    | None -> []

let config_of (p : Param.t) : config =
  {
    w_max = Param.float p "w_max";
    duty_active = Param.float p "duty_active";
    stale_limit = Param.int p "stale_limit";
    trip_limit = Param.int p "trip_limit";
    recover_limit = Param.int p "recover_limit";
    safe_duty = Param.float p "safe_duty";
    degraded_duty_max = Param.float p "degraded_duty_max";
    wdog_bean = Param.string_opt p "wdog_bean";
  }

let block ?period (c : config) : Block.spec =
  {
    Block.kind;
    params = params_of c;
    n_in = 3;
    n_out = 2;
    feedthrough = [| true; true; true |];
    out_types = [| Block.Fixed_type Dtype.Double; Block.Fixed_type Dtype.Double |];
    sample =
      (match period with
      | Some p -> Sample_time.discrete p
      | None -> Sample_time.Inherited);
    event_outs = [||];
    make =
      (fun _ctx ->
        let prev = ref 0.0 in
        let stale = ref 0 in
        let ok = ref 0 in
        let bad = ref 0 in
        let mode = ref 0 in
        (* last APPLIED duty: the stale check must key on what actually
           drove the shaft, not on the PID's demand — otherwise SafeStop
           (shaft stopped, count frozen, PID still demanding) would read
           as stale forever and never recover *)
        let uprev = ref 0.0 in
        let held = [| 0.0; 0.0 |] in
        {
          Block.no_beh_state with
          out =
            (fun ~minor ~time:_ ins ->
              if not minor then begin
                let cnt = Value.to_float ins.(0) in
                let w = Value.to_float ins.(1) in
                let u = Value.to_float ins.(2) in
                if cnt = !prev && Float.abs !uprev >= c.duty_active then begin
                  if !stale < c.stale_limit then incr stale
                end
                else stale := 0;
                prev := cnt;
                let healthy =
                  Float.abs w <= c.w_max && !stale < c.stale_limit
                in
                if healthy then begin
                  bad := 0;
                  if !mode > 0 then begin
                    incr ok;
                    if !ok >= c.recover_limit then begin
                      mode := !mode - 1;
                      ok := 0
                    end
                  end
                  else ok := 0
                end
                else begin
                  ok := 0;
                  if !mode = 0 then mode := 1
                  else if !mode = 1 then begin
                    incr bad;
                    if !bad >= c.trip_limit then begin
                      mode := 2;
                      bad := 0
                    end
                  end
                end;
                held.(0) <-
                  (if !mode = 2 then c.safe_duty
                   else if !mode = 1 then
                     if u > c.degraded_duty_max then c.degraded_duty_max else u
                   else u);
                uprev := held.(0);
                held.(1) <- float_of_int !mode
              end;
              [| Value.F held.(0); Value.F held.(1) |]);
          reset =
            (fun () ->
              prev := 0.0;
              stale := 0;
              ok := 0;
              bad := 0;
              mode := 0;
              uprev := 0.0;
              held.(0) <- 0.0;
              held.(1) <- 0.0);
          save =
            (fun () ->
              let p = !prev and st = !stale and o = !ok and b = !bad
              and md = !mode and u = !uprev
              and h0 = held.(0) and h1 = held.(1) in
              fun () ->
                prev := p;
                stale := st;
                ok := o;
                bad := b;
                mode := md;
                uprev := u;
                held.(0) <- h0;
                held.(1) <- h1);
        });
  }

(* The TLC script: same statements, C spelling. State fields mirror the
   MIL refs; the raw count is compared as the integer it is (the MIL
   side's float comparison is exact for any int32). *)
let () =
  Blockgen.register kind (fun g spec ->
      let open C_ast in
      let c = config_of spec.Block.params in
      let st f = g.Blockgen.state f in
      let n = g.Blockgen.name in
      let in_ i = List.nth g.Blockgen.ins i in
      let out i = List.nth g.Blockgen.outs i in
      let cnt = Var (n ^ "_cnt") and w = Var (n ^ "_w") and u = Var (n ^ "_u") in
      let healthy = Var (n ^ "_healthy") in
      let step =
        [
          Decl (I32, n ^ "_cnt", Some (Cast_to (I32, in_ 0)));
          Decl (Double_t, n ^ "_w", Some (in_ 1));
          Decl (Double_t, n ^ "_u", Some (in_ 2));
          If
            ( Bin
                ( "&&",
                  Bin ("==", cnt, st "prev"),
                  Bin (">=", Call ("fabs", [ st "uprev" ]), flt c.duty_active) ),
              [
                If
                  ( Bin ("<", st "stale", Int_lit c.stale_limit),
                    [ Assign (st "stale", Bin ("+", st "stale", Int_lit 1)) ],
                    [] );
              ],
              [ Assign (st "stale", Int_lit 0) ] );
          Assign (st "prev", cnt);
          Decl
            ( U8, n ^ "_healthy",
              Some
                (Ternary
                   ( Bin
                       ( "&&",
                         Bin ("<=", Call ("fabs", [ w ]), flt c.w_max),
                         Bin ("<", st "stale", Int_lit c.stale_limit) ),
                     Int_lit 1, Int_lit 0 )) );
          If
            ( healthy,
              [
                Assign (st "bad", Int_lit 0);
                If
                  ( Bin (">", st "mode", Int_lit 0),
                    [
                      Assign (st "ok", Bin ("+", st "ok", Int_lit 1));
                      If
                        ( Bin (">=", st "ok", Int_lit c.recover_limit),
                          [
                            Assign
                              (st "mode", Cast_to (U8, Bin ("-", st "mode", Int_lit 1)));
                            Assign (st "ok", Int_lit 0);
                          ],
                          [] );
                    ],
                    [ Assign (st "ok", Int_lit 0) ] );
              ],
              [
                Assign (st "ok", Int_lit 0);
                If
                  ( Bin ("==", st "mode", Int_lit 0),
                    [ Assign (st "mode", Int_lit 1) ],
                    [
                      If
                        ( Bin ("==", st "mode", Int_lit 1),
                          [
                            Assign (st "bad", Bin ("+", st "bad", Int_lit 1));
                            If
                              ( Bin (">=", st "bad", Int_lit c.trip_limit),
                                [
                                  Assign (st "mode", Int_lit 2);
                                  Assign (st "bad", Int_lit 0);
                                ],
                                [] );
                          ],
                          [] );
                    ] );
              ] );
          Assign
            ( out 0,
              Ternary
                ( Bin ("==", st "mode", Int_lit 2),
                  flt c.safe_duty,
                  Ternary
                    ( Bin ("==", st "mode", Int_lit 1),
                      Ternary
                        ( Bin (">", u, flt c.degraded_duty_max),
                          flt c.degraded_duty_max, u ),
                      u ) ) );
          Assign (st "uprev", out 0);
          Assign (out 1, Cast_to (Double_t, st "mode"));
        ]
        @
        (* service the watchdog from the control step — deployment build
           only: the PIL build's step runs under the host interpreter,
           which has no HAL (the harness models the watchdog itself) *)
        match (g.Blockgen.mode, c.wdog_bean) with
        | Blockgen.Hw, Some bean -> [ Expr (call (bean ^ "_Clear") []) ]
        | _ -> []
      in
      {
        Blockgen.state_fields =
          [
            (I32, "prev"); (I32, "stale"); (I32, "ok"); (I32, "bad");
            (U8, "mode"); (Double_t, "uprev");
          ];
        init =
          [
            Assign (st "prev", Int_lit 0);
            Assign (st "stale", Int_lit 0);
            Assign (st "ok", Int_lit 0);
            Assign (st "bad", Int_lit 0);
            Assign (st "mode", Int_lit 0);
            Assign (st "uprev", flt 0.0);
          ];
        step;
        update = [];
        needs_time = false;
      })

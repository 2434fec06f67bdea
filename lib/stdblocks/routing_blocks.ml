let inport ?(dtype = Dtype.Double) index =
  {
    Block.kind = "Inport";
    params = [ ("index", Param.Int index); ("dtype", Param.Dtype dtype) ];
    n_in = 0;
    n_out = 1;
    feedthrough = [||];
    out_types = [| Block.Fixed_type dtype |];
    sample = Sample_time.Inherited;
    event_outs = [||];
    make =
      (fun _ctx ->
        (* Standalone compilation: a zero placeholder; the PIL harness and
           the codegen external-input struct take its place otherwise. *)
        let z = Value.zero dtype in
        { Block.no_beh_state with out = (fun ~minor:_ ~time:_ _ -> [| z |]) });
  }

let outport index =
  {
    Block.kind = "Outport";
    params = [ ("index", Param.Int index) ];
    n_in = 1;
    n_out = 1;
    feedthrough = [| true |];
    out_types = [| Block.Same_as 0 |];
    sample = Sample_time.Inherited;
    event_outs = [||];
    make =
      (fun _ctx ->
        { Block.no_beh_state with out = (fun ~minor:_ ~time:_ ins -> [| ins.(0) |]) });
  }

let terminator =
  {
    Block.kind = "Terminator";
    params = [];
    n_in = 1;
    n_out = 0;
    feedthrough = [| false |];
    out_types = [||];
    sample = Sample_time.Inherited;
    event_outs = [||];
    make = (fun _ctx -> { Block.no_beh_state with out = (fun ~minor:_ ~time:_ _ -> [||]) });
  }

let merge2 =
  {
    Block.kind = "Merge2";
    params = [];
    n_in = 2;
    n_out = 1;
    feedthrough = [| true; true |];
    out_types = [| Block.Same_as 0 |];
    sample = Sample_time.Inherited;
    event_outs = [||];
    make =
      (fun ctx ->
        let zero = Value.zero ctx.Block.out_dtypes.(0) in
        let prev0 = ref zero and prev1 = ref zero and held = ref zero in
        {
          Block.no_beh_state with
          out =
            (fun ~minor ~time:_ ins ->
              if not minor then begin
                if not (Value.equal ins.(0) !prev0) then held := ins.(0)
                else if not (Value.equal ins.(1) !prev1) then held := ins.(1);
                prev0 := ins.(0);
                prev1 := ins.(1)
              end;
              [| !held |]);
          reset =
            (fun () ->
              prev0 := zero;
              prev1 := zero;
              held := zero);
          save =
            (fun () ->
              let p0 = !prev0 and p1 = !prev1 and h = !held in
              fun () ->
                prev0 := p0;
                prev1 := p1;
                held := h);
        });
  }

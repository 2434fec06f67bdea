let block ~kind ~n_in ~n_out ?period ?(params = []) factory =
  {
    Block.kind;
    params;
    n_in;
    n_out;
    feedthrough = Array.make n_in true;
    out_types = Array.make n_out (Block.Fixed_type Dtype.Double);
    sample =
      (match period with
      | Some p -> Sample_time.discrete p
      | None -> Sample_time.Inherited);
    event_outs = [||];
    make =
      (fun _ctx ->
        let step, do_reset, do_save = factory () in
        let held = Array.make n_out 0.0 in
        {
          Block.no_beh_state with
          out =
            (fun ~minor ~time ins ->
              if not minor then begin
                let outs = step ~time (Array.map Value.to_float ins) in
                if Array.length outs <> n_out then
                  failwith (kind ^ ": chart returned wrong output arity");
                Array.blit outs 0 held 0 n_out
              end;
              Array.map (fun x -> Value.F x) held);
          reset =
            (fun () ->
              do_reset ();
              Array.fill held 0 n_out 0.0);
          save =
            (fun () ->
              let restore = do_save () and h = Array.copy held in
              fun () ->
                restore ();
                Array.blit h 0 held 0 n_out);
        });
  }

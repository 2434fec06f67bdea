let integrator ?(init = 0.0) ?(k = 1.0) () =
  {
    Block.kind = "Integrator";
    params = [ ("init", Param.Float init); ("k", Param.Float k) ];
    n_in = 1;
    n_out = 1;
    feedthrough = [| false |];
    out_types = [| Block.Fixed_type Dtype.Double |];
    sample = Sample_time.Continuous;
    event_outs = [||];
    make =
      (fun _ctx ->
        let x = ref init in
        {
          Block.no_beh_state with
          ncstates = 1;
          out = (fun ~minor:_ ~time:_ _ -> [| Value.F !x |]);
          deriv = (fun ~time:_ ins -> [| k *. Value.to_float ins.(0) |]);
          get_cstate = (fun () -> [| !x |]);
          set_cstate = (fun s -> x := s.(0));
          reset = (fun () -> x := init);
          save = (fun () -> let v = !x in fun () -> x := v);
        });
  }

let state_space ~a ~b ~c ?(d = 0.0) () =
  let n = Array.length b in
  if Array.length a <> n || Array.exists (fun row -> Array.length row <> n) a
  then invalid_arg "Continuous_blocks.state_space: A/B dimension mismatch";
  if Array.length c <> n then
    invalid_arg "Continuous_blocks.state_space: C dimension mismatch";
  let flat_a = Array.concat (Array.to_list a) in
  {
    Block.kind = "StateSpace";
    params =
      [
        ("n", Param.Int n);
        ("a", Param.Floats flat_a);
        ("b", Param.Floats b);
        ("c", Param.Floats c);
        ("d", Param.Float d);
      ];
    n_in = 1;
    n_out = 1;
    feedthrough = [| d <> 0.0 |];
    out_types = [| Block.Fixed_type Dtype.Double |];
    sample = Sample_time.Continuous;
    event_outs = [||];
    make =
      (fun _ctx ->
        let x = Array.make n 0.0 in
        {
          Block.no_beh_state with
          ncstates = n;
          out =
            (fun ~minor:_ ~time:_ ins ->
              let y = ref (d *. Value.to_float ins.(0)) in
              for i = 0 to n - 1 do
                y := !y +. (c.(i) *. x.(i))
              done;
              [| Value.F !y |]);
          deriv =
            (fun ~time:_ ins ->
              let u = Value.to_float ins.(0) in
              Array.init n (fun i ->
                  let acc = ref (b.(i) *. u) in
                  for j = 0 to n - 1 do
                    acc := !acc +. (a.(i).(j) *. x.(j))
                  done;
                  !acc));
          get_cstate = (fun () -> Array.copy x);
          set_cstate = (fun s -> Array.blit s 0 x 0 n);
          reset = (fun () -> Array.fill x 0 n 0.0);
          save =
            (fun () ->
              let s = Array.copy x in
              fun () -> Array.blit s 0 x 0 n);
        });
  }

(* Controllable canonical realisation of num(s)/den(s). *)
let transfer_fcn ~num ~den =
  let n = Array.length den - 1 in
  if n < 1 then invalid_arg "Continuous_blocks.transfer_fcn: constant system";
  if Array.length num > Array.length den then
    invalid_arg "Continuous_blocks.transfer_fcn: improper";
  if den.(0) = 0.0 then invalid_arg "Continuous_blocks.transfer_fcn: zero lead";
  let dennorm = Array.map (fun x -> x /. den.(0)) den in
  let numpad =
    let k = Array.length den - Array.length num in
    Array.init (Array.length den) (fun i ->
        (if i < k then 0.0 else num.(i - k)) /. den.(0))
  in
  let d = numpad.(0) in
  (* y = sum (num_i - d*den_i) x_i + d*u over canonical states. *)
  let cvec = Array.init n (fun i -> numpad.(i + 1) -. (d *. dennorm.(i + 1))) in
  let a =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i = 0 then -.dennorm.(j + 1)
            else if j = i - 1 then 1.0
            else 0.0))
  in
  let b = Array.init n (fun i -> if i = 0 then 1.0 else 0.0) in
  let spec = state_space ~a ~b ~c:cvec ~d () in
  {
    spec with
    Block.kind = "TransferFcn";
    params = [ ("num", Param.Floats num); ("den", Param.Floats den) ];
  }

let first_order ~k ~tau =
  if tau <= 0.0 then invalid_arg "Continuous_blocks.first_order: tau";
  let spec = transfer_fcn ~num:[| k |] ~den:[| tau; 1.0 |] in
  { spec with Block.kind = "FirstOrder";
    params = [ ("k", Param.Float k); ("tau", Param.Float tau) ] }

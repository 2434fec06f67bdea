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
        {
          Block.no_beh_state with
          kernel =
            Some
              {
                Block.x0 = [| init |];
                outputs = (fun x off _ y -> y.(0) <- x.(off));
                deriv = (fun _ _ off u dx -> dx.(off) <- k *. u.(0));
              };
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
        {
          Block.no_beh_state with
          kernel =
            Some
              {
                Block.x0 = Array.make n 0.0;
                outputs =
                  (fun x off u y ->
                    let acc = ref (d *. u.(0)) in
                    for i = 0 to n - 1 do
                      acc := !acc +. (c.(i) *. x.(off + i))
                    done;
                    y.(0) <- !acc);
                deriv =
                  (fun _ x off u dx ->
                    let u = u.(0) in
                    for i = 0 to n - 1 do
                      let acc = ref (b.(i) *. u) in
                      for j = 0 to n - 1 do
                        acc := !acc +. (a.(i).(j) *. x.(off + j))
                      done;
                      dx.(off + i) <- !acc
                    done);
              };
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

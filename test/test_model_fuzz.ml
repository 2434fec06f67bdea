(* Property-based fuzzing of the model/compile/engine stack: random
   diagrams must compile and simulate without crashes, and acyclic
   bounded diagrams must stay finite. *)

(* A palette of block generators: (spec, n_in). All parameters bounded so
   acyclic compositions cannot blow up. *)
let palette rng =
  let pick l = List.nth l (QCheck2.Gen.generate1 ~rand:rng (QCheck2.Gen.int_bound (List.length l - 1))) in
  let g = QCheck2.Gen.generate1 ~rand:rng in
  pick
    [
      (fun () -> Sources.constant (g (QCheck2.Gen.float_range (-2.0) 2.0)));
      (fun () -> Sources.step ~t_step:(g (QCheck2.Gen.float_range 0.0 0.5))
          ~after:(g (QCheck2.Gen.float_range (-1.0) 1.0)) ());
      (fun () -> Sources.sine ~amp:(g (QCheck2.Gen.float_range 0.1 2.0)) ());
      (fun () -> Math_blocks.gain (g (QCheck2.Gen.float_range (-0.9) 0.9)));
      (fun () -> Math_blocks.sum "+-");
      (fun () -> Math_blocks.abs_block);
      (fun () -> Math_blocks.min_block);
      (fun () -> Nonlinear_blocks.saturation ~lo:(-3.0) ~hi:3.0);
      (fun () -> Nonlinear_blocks.quantizer ~interval:0.25);
      (fun () -> Discrete_blocks.unit_delay ());
      (fun () -> Discrete_blocks.moving_average 3);
      (fun () -> Discrete_blocks.zoh ~period:0.01 ());
      (fun () -> Discrete_blocks.discrete_tf ~num:[| 0.3 |] ~den:[| 1.0; -0.5 |]);
      (fun () -> Math_blocks.cast Dtype.Int16);
    ]
    ()

(* Build a random acyclic diagram from [palette]: every input wired to
   an earlier block's output; terminates sources-first so inputs always
   exist. *)
let random_dag_of palette ~seed ~size =
  let rng = Random.State.make [| seed |] in
  let m = Model.create (Printf.sprintf "fuzz%d" seed) in
  let outputs = ref [] in
  (* prime with two sources so inputs are always wireable *)
  let s1 = Model.add m (Sources.constant 1.0) in
  let s2 = Model.add m (Sources.sine ()) in
  outputs := [ (s1, 0); (s2, 0) ];
  for _ = 1 to size do
    let spec = palette rng in
    let blk = Model.add m spec in
    for p = 0 to spec.Block.n_in - 1 do
      let src = List.nth !outputs (Random.State.int rng (List.length !outputs)) in
      Model.connect m ~src ~dst:(blk, p)
    done;
    for p = 0 to spec.Block.n_out - 1 do
      outputs := (blk, p) :: !outputs
    done
  done;
  m

let random_dag = random_dag_of palette

let prop_dag_simulates_finite =
  QCheck2.Test.make ~name:"random acyclic diagrams compile and stay finite"
    ~count:60
    QCheck2.Gen.(pair (int_range 1 10000) (int_range 1 25))
    (fun (seed, size) ->
      let m = random_dag ~seed ~size in
      let comp = Compile.compile ~default_dt:0.01 m in
      let sim = Sim.create comp in
      Sim.run sim ~until:0.5 ();
      List.for_all
        (fun b ->
          let spec = Model.spec_of m b in
          List.for_all
            (fun p -> Float.is_finite (Value.to_float (Sim.value sim (b, p))))
            (List.init spec.Block.n_out Fun.id))
        (Model.blocks m))

(* Arbitrary wiring (cycles allowed): compilation either succeeds or
   raises Compile_error -- never anything else -- and on success the
   engine must step without raising. *)
let random_tangle ~seed ~size =
  let rng = Random.State.make [| seed; 77 |] in
  let m = Model.create (Printf.sprintf "tangle%d" seed) in
  let blocks = ref [] in
  let s = Model.add m (Sources.constant 0.5) in
  blocks := [ s ];
  for _ = 1 to size do
    let spec = palette rng in
    blocks := Model.add m spec :: !blocks
  done;
  (* wire every input to a uniformly random output (maybe later blocks) *)
  let all = !blocks in
  let all_outs =
    List.concat_map
      (fun b ->
        let spec = Model.spec_of m b in
        List.init spec.Block.n_out (fun p -> (b, p)))
      all
  in
  List.iter
    (fun b ->
      let spec = Model.spec_of m b in
      for p = 0 to spec.Block.n_in - 1 do
        let src = List.nth all_outs (Random.State.int rng (List.length all_outs)) in
        Model.connect m ~src ~dst:(b, p)
      done)
    all;
  m

let prop_tangle_never_crashes =
  QCheck2.Test.make ~name:"random cyclic wirings: compile succeeds or Compile_error"
    ~count:60
    QCheck2.Gen.(pair (int_range 1 10000) (int_range 1 20))
    (fun (seed, size) ->
      let m = random_tangle ~seed ~size in
      match Compile.compile ~default_dt:0.01 m with
      | comp ->
          let sim = Sim.create comp in
          Sim.run sim ~until:0.2 ();
          true
      | exception Compile.Compile_error _ -> true)

let prop_reset_equals_fresh =
  QCheck2.Test.make ~name:"Sim.reset replays identically on random diagrams"
    ~count:40
    QCheck2.Gen.(pair (int_range 1 10000) (int_range 1 15))
    (fun (seed, size) ->
      let m = random_dag ~seed ~size in
      let comp = Compile.compile ~default_dt:0.01 m in
      let sim = Sim.create comp in
      let last = List.hd (Model.blocks m) in
      Sim.probe sim (last, 0);
      Sim.run sim ~until:0.3 ();
      let t1 = Sim.trace sim (last, 0) in
      Sim.reset sim;
      Sim.run sim ~until:0.3 ();
      t1 = Sim.trace sim (last, 0))

let prop_codegen_never_crashes_on_dags =
  QCheck2.Test.make
    ~name:"code generation handles random discrete diagrams" ~count:40
    QCheck2.Gen.(pair (int_range 1 10000) (int_range 1 15))
    (fun (seed, size) ->
      let m = random_dag ~seed ~size in
      let comp = Compile.compile ~default_dt:0.01 m in
      let project = Bean_project.create Mcu_db.mc56f8367 in
      match Target.generate ~name:"fuzz" ~project comp with
      | arts ->
          (* the generated C must at least be non-trivial and well formed
             enough to print *)
          String.length (C_print.print_unit arts.Target.model_c) > 100
      | exception Target.Codegen_error _ -> true)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_dag_simulates_finite;
      prop_tangle_never_crashes;
      prop_reset_equals_fresh;
      prop_codegen_never_crashes_on_dags;
    ]

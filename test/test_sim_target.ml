(* The Linux simulator target (§8): generated plant code + POSIX runtime.
   Because a C compiler is available here, these tests do what the paper's
   build step does: actually compile the generated sources — and for the
   plant step, execute them and compare against the OCaml simulation. *)

let check_bool = Alcotest.(check bool)
let contains = Astring_contains.contains

let have_gcc = Sys.command "command -v gcc > /dev/null 2>&1" = 0

let with_tmpdir f =
  let dir = Filename.temp_file "ecsd_sim" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let sh dir cmd = Sys.command (Printf.sprintf "cd %s && %s" (Filename.quote dir) cmd)

(* gcc -c every written .c file as C99 with all warnings as errors; a
   failure prints gcc's log *)
let check_c_compiles dir files =
  List.iter
    (fun f ->
      let f = Filename.basename f in
      if Filename.check_suffix f ".c" then
        check_bool (f ^ " compiles") true
          (sh dir
             (Printf.sprintf
                "gcc -std=c99 -Wall -Wextra -Werror -c -I. %s -o /dev/null 2> gcc.log" f)
           = 0
           || (ignore (Sys.command (Printf.sprintf "echo '== %s =='; cat %s/gcc.log 1>&2" f dir)); false)))
    files

let plant_artifacts () =
  let m = Servo_system.plant_model Servo_system.default_config in
  let comp = Compile.compile ~default_dt:1e-4 m in
  (m, comp, Sim_target.generate ~name:"servo" comp)

let test_structure () =
  let _, _, a = plant_artifacts () in
  let main = C_print.print_unit a.Sim_target.sim_main_c in
  check_bool "termios serial" true (contains main "cfmakeraw");
  check_bool "real-time pacing" true (contains main "clock_nanosleep");
  check_bool "crc on the host side" true (contains main "crc16");
  check_bool "overridable mapping" true (contains main "sim_read_sensors");
  let plant = C_print.print_unit a.Sim_target.plant_c in
  check_bool "motor rk4" true (contains plant "held-input RK4");
  check_bool "plant step fn" true (contains plant "void servo_plant_step(void)");
  check_bool "report sane" true
    (a.Sim_target.report.Sim_target.plant_loc > 40
     && a.Sim_target.report.Sim_target.runtime_loc > 60)

let test_compiles_with_gcc () =
  if not have_gcc then ()
  else
    with_tmpdir (fun dir ->
        let _, _, a = plant_artifacts () in
        let files = Sim_target.write_to_dir a ~dir in
        check_bool "files written" true (List.length files = 4);
        check_bool "plant compiles" true
          (sh dir "gcc -c -Wall -Werror servo_plant.c -o plant.o 2> gcc.log" = 0
           || (ignore (Sys.command (Printf.sprintf "cat %s/gcc.log 1>&2" dir)); false));
        check_bool "runtime compiles" true
          (sh dir "gcc -c sim_main.c -o sim.o 2>> gcc.log" = 0
           || (ignore (Sys.command (Printf.sprintf "cat %s/gcc.log 1>&2" dir)); false)))

(* a periodic load profile reaches the generated plant as an fmod
   window, and the unit still compiles *)
let test_periodic_load_compiles () =
  let load =
    Load_profile.Periodic { at = 0.5; every = 0.4; duration = 0.03; torque = 2e-3 }
  in
  let m =
    Servo_system.plant_model { Servo_system.default_config with load }
  in
  let a = Sim_target.generate ~name:"servo" (Compile.compile ~default_dt:1e-4 m) in
  check_bool "fmod window" true
    (contains (C_print.print_unit a.Sim_target.plant_c) "fmod(");
  if have_gcc then
    with_tmpdir (fun dir ->
        ignore (Sim_target.write_to_dir a ~dir);
        check_bool "plant compiles" true
          (sh dir "gcc -c -Wall -Werror servo_plant.c -o plant.o 2> gcc.log" = 0
           || (ignore (Sys.command (Printf.sprintf "cat %s/gcc.log 1>&2" dir)); false)))

(* a Sum load reaches the generated plant as the sum of its parts (it
   used to be serialised as a zero torque), and the unit compiles; a
   load shape with no C form is refused instead of zeroed *)
let test_sum_load_compiles () =
  let load =
    Load_profile.Sum
      [
        Load_profile.Step { at = 1.2; torque = 4e-3 };
        Load_profile.Pulse { start = 0.9; stop = 0.95; torque = 2e-3 };
      ]
  in
  let gen m = Sim_target.generate ~name:"servo" (Compile.compile ~default_dt:1e-4 m) in
  let a = gen (Servo_system.plant_model { Servo_system.default_config with load }) in
  let plant = C_print.print_unit a.Sim_target.plant_c in
  check_bool "step part" true (contains plant "model_time >= 1.2");
  check_bool "pulse part" true (contains plant "model_time < 0.9499");
  check_bool "no zero torque" false (contains plant "motor_tau = 0.0;");
  if have_gcc then
    with_tmpdir (fun dir ->
        ignore (Sim_target.write_to_dir a ~dir);
        check_bool "plant compiles" true
          (sh dir "gcc -c -Wall -Werror servo_plant.c -o plant.o 2> gcc.log" = 0
           || (ignore (Sys.command (Printf.sprintf "cat %s/gcc.log 1>&2" dir)); false)));
  let bogus = Model.create "bogus" in
  let u = Model.add bogus ~name:"u" (Sources.constant 1.0) in
  let motor = Plant_blocks.dc_motor () in
  let motor =
    Model.add bogus ~name:"motor"
      {
        motor with
        Block.params =
          List.map
            (fun (k, v) -> if k = "load" then (k, Param.String "bogus") else (k, v))
            motor.Block.params;
      }
  in
  Model.connect bogus ~src:(u, 0) ~dst:(motor, 0);
  match gen bogus with
  | exception Target.Codegen_error msg ->
      check_bool "names the shape" true (contains msg "bogus")
  | _ -> Alcotest.fail "a load with no C form generated"

let test_generated_plant_matches_ocaml () =
  if not have_gcc then ()
  else
    with_tmpdir (fun dir ->
        let m, comp, a = plant_artifacts () in
        ignore (Sim_target.write_to_dir a ~dir);
        (* a driver that steps the generated plant at 50 % duty for 0.2 s
           and prints the final speed *)
        let driver =
          {|#include <stdio.h>
#include "servo_plant.h"
int main(void) {
  int k;
  servo_plant_initialize();
  /* one extra iteration: Y is computed in the output phase, so the
     k-th print reflects k-1 state updates */
  for (k = 0; k < 2001; ++k) {
    servo_U.in0 = 0.5;
    servo_plant_step();
  }
  printf("%.9f\n", servo_Y.out1);
  return 0;
}|}
        in
        let oc = open_out (Filename.concat dir "driver.c") in
        output_string oc driver;
        close_out oc;
        check_bool "driver builds" true
          (sh dir "gcc -O2 -o driver driver.c servo_plant.c -lm 2> gcc.log" = 0
           || (ignore (Sys.command (Printf.sprintf "cat %s/gcc.log 1>&2" dir)); false));
        let ic = Unix.open_process_in (Printf.sprintf "cd %s && ./driver" (Filename.quote dir)) in
        let line = input_line ic in
        ignore (Unix.close_process_in ic);
        let w_c = float_of_string line in
        (* the same scenario through the OCaml engine *)
        let sim = Sim.create comp in
        let duty_in = Model.find m "duty_in" in
        Sim.override_output sim (duty_in, 0) (Some (Value.F 0.5));
        Sim.run sim ~until:0.2 ();
        let w_ml = Value.to_float (Sim.value_named sim "motor" 0) in
        check_bool
          (Printf.sprintf "generated C (%.4f) matches OCaml (%.4f)" w_c w_ml)
          true
          (Float.abs (w_c -. w_ml) < 1e-6 *. Float.max 1.0 (Float.abs w_ml)))

let test_embedded_code_compiles () =
  (* the deployment build (application + HAL) must be valid C too *)
  if not have_gcc then ()
  else
    with_tmpdir (fun dir ->
        let b = Servo_system.build () in
        let comp = Compile.compile b.Servo_system.controller in
        let a = Target.generate ~name:"servo" ~project:b.Servo_system.project comp in
        check_c_compiles dir (Target.write_to_dir a ~dir))

let test_pil_code_compiles () =
  if not have_gcc then ()
  else
    with_tmpdir (fun dir ->
        let cfg = { Servo_system.default_config with Servo_system.control_period = 5e-3 } in
        let b = Servo_system.build ~config:cfg () in
        let comp = Compile.compile b.Servo_system.controller in
        let a = Pil_target.generate ~name:"servo" ~project:b.Servo_system.project comp in
        check_c_compiles dir (Target.write_to_dir a ~dir))

let test_autosar_pil_code_compiles () =
  if not have_gcc then ()
  else
    with_tmpdir (fun dir ->
        let cfg =
          { Servo_system.default_config with
            Servo_system.block_set = Servo_system.Autosar_blocks;
            control_period = 5e-3 }
        in
        let b = Servo_system.build ~config:cfg () in
        let comp = Compile.compile b.Servo_system.controller in
        let a = Pil_target.generate ~name:"servo" ~project:b.Servo_system.project comp in
        check_c_compiles dir (Target.write_to_dir a ~dir))

let test_autosar_code_compiles () =
  if not have_gcc then ()
  else
    with_tmpdir (fun dir ->
        let cfg =
          { Servo_system.default_config with
            Servo_system.block_set = Servo_system.Autosar_blocks }
        in
        let b = Servo_system.build ~config:cfg () in
        let comp = Compile.compile b.Servo_system.controller in
        let a = Target.generate ~name:"servo" ~project:b.Servo_system.project comp in
        check_c_compiles dir (Target.write_to_dir a ~dir))

(* every unit `ecsd codegen` writes, float or --fixed, with or without
   --pil and --opt *)
let test_codegen_warning_free () =
  if have_gcc then
    List.iter
      (fun variant ->
        let b =
          Servo_system.build
            ~config:{ Servo_system.default_config with Servo_system.variant } ()
        in
        let project = b.Servo_system.project in
        let comp = Compile.compile b.Servo_system.controller in
        List.iter
          (fun (pil, opt) ->
            with_tmpdir (fun dir ->
                let a =
                  if pil then Pil_target.generate ~opt ~name:"servo" ~project comp
                  else Target.generate ~opt ~name:"servo" ~project comp
                in
                check_c_compiles dir (Target.write_to_dir a ~dir)))
          [ (false, false); (false, true); (true, false); (true, true) ])
      [ Servo_system.Float_pid; Servo_system.Fixed_pid ]

let test_generated_tf_plant_matches_ocaml () =
  (* the held-input RK4 emitter (TransferFcn/StateSpace) against the
     engine's global solver on a second-order lag *)
  if not have_gcc then ()
  else
    with_tmpdir (fun dir ->
        let m = Model.create "lag2" in
        let inp = Model.add m ~name:"u_in" (Routing_blocks.inport 0) in
        let tf =
          Model.add m ~name:"tf"
            (Continuous_blocks.transfer_fcn ~num:[| 2.0 |]
               ~den:[| 0.01; 0.25; 1.0 |])
        in
        let outp = Model.add m ~name:"y_out" (Routing_blocks.outport 0) in
        Model.connect m ~src:(inp, 0) ~dst:(tf, 0);
        Model.connect m ~src:(tf, 0) ~dst:(outp, 0);
        let comp = Compile.compile ~default_dt:1e-3 m in
        let a = Sim_target.generate ~name:"lag2" comp in
        ignore (Sim_target.write_to_dir a ~dir);
        let driver =
          {|#include <stdio.h>
#include "lag2_plant.h"
int main(void) {
  int k;
  lag2_plant_initialize();
  for (k = 0; k < 1001; ++k) {
    lag2_U.in0 = 1.0;
    lag2_plant_step();
  }
  printf("%.9f\n", lag2_Y.out0);
  return 0;
}|}
        in
        let oc = open_out (Filename.concat dir "driver.c") in
        output_string oc driver;
        close_out oc;
        check_bool "tf driver builds" true
          (sh dir "gcc -O2 -o driver driver.c lag2_plant.c -lm 2> gcc.log" = 0
           || (ignore (Sys.command (Printf.sprintf "cat %s/gcc.log 1>&2" dir)); false));
        let ic = Unix.open_process_in (Printf.sprintf "cd %s && ./driver" (Filename.quote dir)) in
        let y_c = float_of_string (input_line ic) in
        ignore (Unix.close_process_in ic);
        let sim = Sim.create comp in
        Sim.override_output sim (Model.find m "u_in", 0) (Some (Value.F 1.0));
        Sim.run sim ~until:1.0 ();
        let y_ml = Value.to_float (Sim.value_named sim "tf" 0) in
        check_bool
          (Printf.sprintf "C (%.6f) ~ OCaml (%.6f)" y_c y_ml)
          true
          (Float.abs (y_c -. y_ml) < 1e-6))

let suite =
  [
    Alcotest.test_case "tf plant == OCaml sim" `Quick
      test_generated_tf_plant_matches_ocaml;
    Alcotest.test_case "simulator structure" `Quick test_structure;
    Alcotest.test_case "simulator compiles (gcc)" `Quick test_compiles_with_gcc;
    Alcotest.test_case "periodic load compiles (gcc)" `Quick
      test_periodic_load_compiles;
    Alcotest.test_case "sum load compiles (gcc)" `Quick test_sum_load_compiles;
    Alcotest.test_case "generated plant == OCaml sim" `Quick
      test_generated_plant_matches_ocaml;
    Alcotest.test_case "embedded code compiles (gcc)" `Quick test_embedded_code_compiles;
    Alcotest.test_case "PIL code compiles (gcc)" `Quick test_pil_code_compiles;
    Alcotest.test_case "codegen is C99, warning-free (gcc)" `Quick
      test_codegen_warning_free;
    Alcotest.test_case "AUTOSAR code compiles (gcc)" `Quick test_autosar_code_compiles;
    Alcotest.test_case "AUTOSAR PIL code compiles (gcc)" `Quick
      test_autosar_pil_code_compiles;
  ]

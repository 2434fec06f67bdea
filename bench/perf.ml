(* P2, P4, P5: bechamel micro-benches of the parts of the environment
   that perfbench (python3 perfbench/run.py --trace 1) has no layer for.
   One Test.make per metric; time-per-run estimated by OLS against the
   monotonic clock. Every other environment metric is a perfbench
   per-layer metric (engine.step_us, peert.generate_ms, pil.period_us,
   analysis.check_ms, silvm.step_us, flight.*_overhead_ratio,
   fault.armed_ratio, supervise.envelope_us). *)

open Bechamel
open Toolkit

(* P2: virtual-MCU event throughput *)
let bench_machine =
  let machine = Machine.create Mcu_db.mc56f8367 in
  let irq =
    Machine.register_irq machine ~name:"x" ~prio:1 ~handler:(fun () ->
        { Machine.jname = "x"; cycles = 100; action = (fun () -> ());
          stack_bytes = 16 })
  in
  Test.make ~name:"P2 virtual MCU: event + ISR dispatch"
    (Staged.stage (fun () ->
         Machine.raise_irq machine irq;
         Machine.advance machine ~cycles:500))

(* P4: comm path: packet encode + framer decode roundtrip *)
let bench_comm =
  let pkt =
    Packet.make ~ptype:1 ~seq:0
      (String.init 16 (fun i -> Char.chr (i * 7 land 0xFF)))
  in
  let wire = Bytes.create Packet.max_wire in
  let sink = Framer.create ~on_packet:(fun _ -> ()) in
  Test.make ~name:"P4 packet encode + frame decode (16 B payload)"
    (Staged.stage (fun () ->
         let len = Packet.encode_into pkt wire in
         Framer.feed_sub sink wire ~pos:0 ~len))

(* P5: controller arithmetic, float vs Q15 *)
let bench_pid_float =
  let c = Pid.create ~ts:1e-3 (Pid.gains ~kp:0.03 ~ki:2.5 ~u_min:0.0 ~u_max:24.0 ()) in
  let x = ref 0.0 in
  Test.make ~name:"P5a PID step (double)"
    (Staged.stage (fun () ->
         x := Pid.step c ~sp:100.0 ~pv:!x *. 0.99))

let bench_pid_fixed =
  let c =
    Pid.Fixpoint.create ~ts:1e-3 ~in_scale:512.0 ~out_scale:24.0
      (Pid.gains ~kp:0.03 ~ki:2.5 ~u_min:0.0 ~u_max:24.0 ())
  in
  let x = ref 0.0 in
  Test.make ~name:"P5b PID step (Q15 fixed)"
    (Staged.stage (fun () ->
         x := Pid.Fixpoint.step c ~sp:100.0 ~pv:!x *. 0.99))

let run () =
  print_endline "==================================================================";
  print_endline "P2, P4, P5: environment micro-benches (bechamel, ns per run)";
  print_endline "==================================================================";
  let tests =
    Test.make_grouped ~name:"perf" ~fmt:"%s %s"
      [ bench_machine; bench_comm; bench_pid_float; bench_pid_fixed ]
  in
  let cfg =
    Benchmark.cfg ~limit:1500 ~quota:(Time.second 0.4) ~kde:(Some 500) ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  let t = Table.create [ "benchmark"; "time/run"; "runs/s" ] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] ->
          Table.add_row t
            [
              name;
              (if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
               else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
               else Printf.sprintf "%.0f ns" ns);
              Printf.sprintf "%.3g" (1e9 /. ns);
            ]
      | _ -> Table.add_row t [ name; "n/a"; "n/a" ])
    rows;
  Table.print ~align:[ Table.Left; Table.Right; Table.Right ] t;
  print_newline ()

(* Virtual MCU: discrete-event machine, interrupt dispatch, peripherals. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float eps = Alcotest.(check (float eps))

let mk () = Machine.create Mcu_db.mc56f8367

let job ?(stack = 16) name cycles action =
  { Machine.jname = name; cycles; action; stack_bytes = stack }

(* an event that raises [irq] *)
let raiser m irq = Machine.on_event m (fun _ -> Machine.raise_irq m irq)

let test_schedule_order () =
  let m = mk () in
  let log = ref [] in
  let ev = Machine.on_event m (fun c -> log := Char.chr c :: !log) in
  Machine.schedule m ~after:100 ev (Char.code 'b');
  Machine.schedule m ~after:50 ev (Char.code 'a');
  Machine.schedule m ~after:150 ev (Char.code 'c');
  Machine.advance m ~cycles:200;
  Alcotest.(check (list char)) "event order" [ 'a'; 'b'; 'c' ] (List.rev !log);
  check_int "time advanced" 200 (Machine.now_cycles m)

let test_simultaneous_events_fifo () =
  let m = mk () in
  let log = ref [] in
  let ev = Machine.on_event m (fun i -> log := i :: !log) in
  Machine.schedule m ~after:10 ev 1;
  Machine.schedule m ~after:10 ev 2;
  Machine.advance m ~cycles:20;
  Alcotest.(check (list int)) "fifo at same cycle" [ 1; 2 ] (List.rev !log)

let test_irq_dispatch_and_latency () =
  let m = mk () in
  let done_at = ref 0 in
  let irq =
    Machine.register_irq m ~name:"t" ~prio:1 ~handler:(fun () ->
        job "work" 100 (fun () -> done_at := Machine.now_cycles m))
  in
  Machine.schedule m ~after:50 (raiser m irq) 0;
  Machine.advance m ~cycles:1000;
  let t = Machine.traits m in
  check_int "completion includes entry+exit latency"
    (50 + t.Mcu_db.irq_latency_cycles + 100 + t.Mcu_db.irq_exit_cycles)
    !done_at;
  match Machine.log m with
  | [| e |] ->
      check_bool "logged vector" true (e.Machine.vector = irq);
      check_int "zero release delay when idle" 0
        (e.Machine.started - e.Machine.raised);
      check_int "finish logged" !done_at e.Machine.finished;
      check_int "budget logged" 100 e.Machine.budget
  | _ -> Alcotest.fail "expected one dispatch"

(* the last start of a vector's jobs minus its raise, in cycles *)
let last_release m irq =
  Array.fold_left
    (fun acc e ->
      if e.Machine.vector = irq then e.Machine.started - e.Machine.raised else acc)
    (-1) (Machine.log m)

let test_priority_order () =
  let m = mk () in
  let log = ref [] in
  let lo =
    Machine.register_irq m ~name:"lo" ~prio:5 ~handler:(fun () ->
        job "lo" 10 (fun () -> log := "lo" :: !log))
  in
  let hi =
    Machine.register_irq m ~name:"hi" ~prio:1 ~handler:(fun () ->
        job "hi" 10 (fun () -> log := "hi" :: !log))
  in
  (* raise both while the CPU is busy with a long job *)
  let blocker =
    Machine.register_irq m ~name:"blk" ~prio:9 ~handler:(fun () ->
        job "blk" 500 (fun () -> log := "blk" :: !log))
  in
  Machine.schedule m ~after:1 (raiser m blocker) 0;
  let both =
    Machine.on_event m (fun _ ->
        Machine.raise_irq m lo;
        Machine.raise_irq m hi)
  in
  Machine.schedule m ~after:10 both 0;
  Machine.advance m ~cycles:2000;
  Alcotest.(check (list string)) "priority after blocker" [ "blk"; "hi"; "lo" ]
    (List.rev !log)

let test_nonpreemptive_blocks_high_prio () =
  let m = Machine.create ~preemptive:false Mcu_db.mc56f8367 in
  let hi_start = ref 0 in
  let blocker =
    Machine.register_irq m ~name:"blk" ~prio:9 ~handler:(fun () ->
        job "blk" 1000 (fun () -> ()))
  in
  let hi =
    Machine.register_irq m ~name:"hi" ~prio:1 ~handler:(fun () ->
        job "hi" 10 (fun () -> hi_start := Machine.now_cycles m))
  in
  Machine.schedule m ~after:0 (raiser m blocker) 0;
  Machine.schedule m ~after:100 (raiser m hi) 0;
  Machine.advance m ~cycles:3000;
  (* the high-priority ISR had to wait for the blocker to finish *)
  check_bool "blocked > 800 cycles" true (last_release m hi > 800)

let test_preemptive_interrupts_low_prio () =
  let m = Machine.create ~preemptive:true Mcu_db.mc56f8367 in
  let order = ref [] in
  let blocker =
    Machine.register_irq m ~name:"blk" ~prio:9 ~handler:(fun () ->
        job "blk" 1000 (fun () -> order := "blk" :: !order))
  in
  let hi =
    Machine.register_irq m ~name:"hi" ~prio:1 ~handler:(fun () ->
        job "hi" 10 (fun () -> order := "hi" :: !order))
  in
  Machine.schedule m ~after:0 (raiser m blocker) 0;
  Machine.schedule m ~after:100 (raiser m hi) 0;
  Machine.advance m ~cycles:3000;
  Alcotest.(check (list string)) "high finishes first" [ "hi"; "blk" ]
    (List.rev !order);
  check_bool "response is just the latency" true (last_release m hi < 5)

let test_overrun_counted () =
  let m = mk () in
  let irq =
    Machine.register_irq m ~name:"x" ~prio:1 ~handler:(fun () -> job "x" 10 (fun () -> ()))
  in
  (* raise twice without giving the CPU a chance to dispatch *)
  let twice =
    Machine.on_event m (fun _ ->
        Machine.raise_irq m irq;
        Machine.raise_irq m irq)
  in
  Machine.schedule m ~after:5 twice 0;
  Machine.advance m ~cycles:100;
  check_int "overrun" 1 (Machine.profile m irq ~period:100).Machine.overruns

let test_utilization_and_stack () =
  let m = mk () in
  let irq =
    Machine.register_irq m ~name:"x" ~prio:1 ~handler:(fun () ->
        job ~stack:100 "x" 480 (fun () -> ()))
  in
  Machine.schedule m ~after:0 (raiser m irq) 0;
  Machine.advance m ~cycles:1000;
  let p = Machine.profile m irq ~period:1000 in
  check_bool "utilization ~50%" true
    (p.Machine.utilization > 0.45 && p.Machine.utilization < 0.55);
  check_int "stack watermark" (64 + 100) p.Machine.max_stack_bytes

let test_disabled_irq_not_dispatched () =
  let m = mk () in
  let ran = ref false in
  let irq =
    Machine.register_irq m ~name:"x" ~prio:1 ~handler:(fun () ->
        job "x" 10 (fun () -> ran := true))
  in
  Machine.set_irq_enabled m irq false;
  Machine.schedule m ~after:5 (raiser m irq) 0;
  Machine.advance m ~cycles:100;
  check_bool "not run while disabled" false !ran;
  (* enabling later releases the pending interrupt *)
  Machine.set_irq_enabled m irq true;
  Machine.advance m ~cycles:100;
  check_bool "runs after enable" true !ran

(* ---------- peripherals ---------- *)

let test_timer_periph () =
  let m = mk () in
  let t = Timer_periph.create m ~channel:0 in
  Timer_periph.configure t ~prescaler:4 ~modulo:1500;
  check_int "period cycles" 6000 (Timer_periph.period_cycles t);
  check_float 1e-12 "period seconds" 1e-4 (Timer_periph.period_seconds t);
  let ticks = ref 0 in
  Timer_periph.on_overflow t (fun () -> incr ticks);
  Timer_periph.start t;
  Machine.advance m ~cycles:60000;
  check_int "10 ticks in 1 ms" 10 !ticks;
  Timer_periph.stop t;
  Machine.advance m ~cycles:60000;
  check_int "no ticks when stopped" 10 !ticks

let test_timer_validation () =
  let m = mk () in
  let t = Timer_periph.create m ~channel:0 in
  (match Timer_periph.configure t ~prescaler:3 ~modulo:100 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad prescaler accepted");
  match Timer_periph.configure t ~prescaler:1 ~modulo:100000 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized modulo accepted"

let test_pwm () =
  let m = mk () in
  let pwm = Pwm_periph.create m ~channel:0 () in
  Pwm_periph.set_frequency pwm ~hz:20000.0;
  check_int "period counts at 60 MHz" 3000 (Pwm_periph.period_counts pwm);
  Pwm_periph.set_ratio16 pwm 32768;
  check_float 1e-3 "half duty" 0.5 (Pwm_periph.duty_ratio pwm);
  Pwm_periph.set_ratio16 pwm 70000;
  check_float 1e-9 "ratio clamped" 1.0 (Pwm_periph.duty_ratio pwm);
  check_int "resolution bits" 11 (Pwm_periph.resolution_bits pwm)

let test_pwm_validation () =
  let m = mk () in
  let pwm = Pwm_periph.create m ~channel:0 () in
  match Pwm_periph.set_frequency pwm ~hz:100.0 with
  | exception Invalid_argument _ -> () (* 600000 counts > 15-bit counter *)
  | _ -> Alcotest.fail "unattainable PWM frequency accepted"

let test_qdec_wrap_diff () =
  let m = mk () in
  let qd = Qdec_periph.create m () in
  Qdec_periph.set_true_count qd 65530;
  let prev = Qdec_periph.read_position qd in
  Qdec_periph.set_true_count qd 65540;
  check_int "wrapped register" (65540 land 0xFFFF) (Qdec_periph.read_position qd);
  check_int "wrap-aware diff" 10 (Qdec_periph.diff qd ~prev);
  Qdec_periph.set_true_count qd 65500;
  check_int "negative diff" (-30) (Qdec_periph.diff qd ~prev)

let test_qdec_requires_hardware () =
  let m = Machine.create Mcu_db.mc9s12dp256 in
  match Qdec_periph.create m () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "HCS12 has no decoder"

let test_sci_timing () =
  let m = mk () in
  let sci = Sci_periph.create m ~baud:115200 () in
  (* 10 bits at 115200 baud on a 60 MHz clock *)
  check_int "byte cycles" (int_of_float (Float.round (10.0 /. 115200.0 *. 60e6)))
    (Sci_periph.byte_cycles sci);
  let sent = ref [] in
  Sci_periph.on_tx_byte sci (fun b -> sent := b :: !sent);
  ignore (Sci_periph.send_byte sci 0x41);
  ignore (Sci_periph.send_byte sci 0x42);
  check_bool "busy while shifting" true (Sci_periph.tx_busy sci);
  Machine.advance m ~cycles:(3 * Sci_periph.byte_cycles sci);
  Alcotest.(check (list int)) "bytes on the wire" [ 0x41; 0x42 ] (List.rev !sent);
  check_bool "idle after" false (Sci_periph.tx_busy sci)

let test_sci_rx_and_overrun () =
  let m = mk () in
  let sci = Sci_periph.create m ~baud:115200 () in
  let got = ref [] in
  Sci_periph.on_rx sci (fun b -> got := b :: !got);
  Sci_periph.deliver_byte sci 0x10;
  Machine.advance m ~cycles:(2 * Sci_periph.byte_cycles sci);
  Alcotest.(check (list int)) "received" [ 0x10 ] !got;
  check_int "read data" 0x10 (Sci_periph.read_data sci);
  (* two deliveries without reading in between -> overrun *)
  Sci_periph.deliver_byte sci 0x20;
  Machine.advance m ~cycles:(2 * Sci_periph.byte_cycles sci);
  Sci_periph.deliver_byte sci 0x30;
  Machine.advance m ~cycles:(2 * Sci_periph.byte_cycles sci);
  check_int "overrun counted" 1 (Sci_periph.rx_overruns sci)

let test_sci_fifo_overflow () =
  let m = mk () in
  let sci = Sci_periph.create m ~fifo_depth:2 ~baud:9600 () in
  let four = Bytes.of_string "\001\002\003\004" in
  ignore (Sci_periph.send_sub sci four ~pos:0 ~len:4);
  check_bool "lost bytes counted" true (Sci_periph.tx_lost sci >= 1);
  ignore m

let test_mcu_db_entries () =
  check_int "five parts" 5 (List.length Mcu_db.all);
  check_bool "find case-insensitive" true (Mcu_db.find "mpc5554" <> None);
  check_bool "unknown part" true (Mcu_db.find "AT91SAM7" = None);
  (* the PowerPC part has an FPU: the cost model must make doubles cheap *)
  let gain = Math_blocks.gain 2.0 in
  let ppc = Cost_model.cycles_of_block Mcu_db.mpc5554 gain Dtype.Double in
  let dsc = Cost_model.cycles_of_block Mcu_db.mc56f8367 gain Dtype.Double in
  check_bool "FPU double much cheaper" true (dsc > 5 * ppc)

let test_mcu_db_pins () =
  (* every part's pin list, names and order, pinned literally *)
  let pins name =
    match Mcu_db.find name with
    | Some t -> t.Mcu_db.pins
    | None -> Alcotest.failf "no part %s" name
  in
  List.iter
    (fun (name, n, joined) ->
      let ps = pins name in
      check_int (name ^ " pin count") n (List.length ps);
      Alcotest.(check string) (name ^ " pin names") joined (String.concat " " ps))
    [
      ( "MC56F8367", 24,
        "GPIOA0 GPIOA1 GPIOA2 GPIOA3 GPIOA4 GPIOA5 GPIOA6 GPIOA7 GPIOB0 GPIOB1 \
         GPIOB2 GPIOB3 GPIOB4 GPIOB5 GPIOB6 GPIOB7 GPIOC0 GPIOC1 GPIOC2 GPIOC3 \
         GPIOC4 GPIOC5 GPIOC6 GPIOC7" );
      ( "MC56F8323", 12,
        "GPIOA0 GPIOA1 GPIOA2 GPIOA3 GPIOA4 GPIOA5 GPIOA6 GPIOA7 GPIOB0 GPIOB1 \
         GPIOB2 GPIOB3" );
      ( "MC9S12DP256", 24,
        "PORTA0 PORTA1 PORTA2 PORTA3 PORTA4 PORTA5 PORTA6 PORTA7 PORTB0 PORTB1 \
         PORTB2 PORTB3 PORTB4 PORTB5 PORTB6 PORTB7 PTT0 PTT1 PTT2 PTT3 PTT4 \
         PTT5 PTT6 PTT7" );
      ( "MCF5213", 20,
        "PORTTC0 PORTTC1 PORTTC2 PORTTC3 PORTAN0 PORTAN1 PORTAN2 PORTAN3 \
         PORTAN4 PORTAN5 PORTAN6 PORTAN7 PORTQS0 PORTQS1 PORTQS2 PORTQS3 \
         PORTQS4 PORTQS5 PORTQS6 PORTQS7" );
      ( "MPC5554", 32,
        "ETPUA0 ETPUA1 ETPUA2 ETPUA3 ETPUA4 ETPUA5 ETPUA6 ETPUA7 ETPUA8 ETPUA9 \
         ETPUA10 ETPUA11 ETPUA12 ETPUA13 ETPUA14 ETPUA15 EMIOS0 EMIOS1 EMIOS2 \
         EMIOS3 EMIOS4 EMIOS5 EMIOS6 EMIOS7 EMIOS8 EMIOS9 EMIOS10 EMIOS11 \
         EMIOS12 EMIOS13 EMIOS14 EMIOS15" );
    ]

let test_small_sibling_fits_servo () =
  (* the MC56F8323 still runs the full case study and fits its 8 KiB RAM *)
  let cfg = { Servo_system.default_config with Servo_system.mcu = Mcu_db.mc56f8323 } in
  let b = Servo_system.build ~config:cfg () in
  let comp = Compile.compile b.Servo_system.controller in
  let a = Target.generate ~name:"servo" ~project:b.Servo_system.project comp in
  check_bool "fits RAM" true
    (a.Target.report.Target.est_ram_bytes < Mcu_db.mc56f8323.Mcu_db.ram_bytes);
  check_bool "no warnings" true (a.Target.report.Target.warnings = [])

let test_watchdog () =
  let m = mk () in
  let wd = Wdog_periph.create m ~timeout:1e-3 () in
  let resets = ref 0 in
  Wdog_periph.on_bite wd (fun () -> incr resets);
  Wdog_periph.enable wd;
  (* refreshed in time: no bite *)
  for _ = 1 to 5 do
    Machine.advance m ~cycles:(Wdog_periph.timeout_cycles wd / 2);
    Wdog_periph.refresh wd
  done;
  check_int "no bites while serviced" 0 (Wdog_periph.bites wd);
  (* starve it: bites accumulate and it re-arms *)
  Machine.advance m ~cycles:(3 * Wdog_periph.timeout_cycles wd);
  check_bool "bites when starved" true (Wdog_periph.bites wd >= 2);
  check_int "callback fired" (Wdog_periph.bites wd) !resets;
  (* disabled: silent *)
  Wdog_periph.disable wd;
  let before = Wdog_periph.bites wd in
  Machine.advance m ~cycles:(3 * Wdog_periph.timeout_cycles wd);
  check_int "quiet when disabled" before (Wdog_periph.bites wd)

(* ---- save/restore: a restored machine continues bit for bit ---- *)

type mop =
  | Sched of int * int option  (* delay; the vector the event raises *)
  | Raise of int
  | Adv of int
  | Refresh
  | Wdog of bool  (* enable or disable the watchdog *)

let gen_mop =
  QCheck2.Gen.(
    frequency
      [
        (3, map2 (fun d v -> Sched (d, v)) (int_range 0 800) (opt (int_range 0 2)));
        (2, map (fun v -> Raise v) (int_range 0 2));
        (4, map (fun c -> Adv c) (int_range 0 700));
        (1, return Refresh);
        (1, map (fun on -> Wdog on) bool);
      ])

(* three vectors of rising cost and falling priority, and a watchdog of
   1200 cycles whose bite raises the lowest vector; every job and event
   appends to [log] *)
type rig = {
  m : Machine.t;
  wd : Wdog_periph.t;
  vecs : Machine.irq_id array;
  ev : Machine.event;  (* its argument: the vector it raises, or -1 *)
  log : (string * int) list ref;
}

let rig preemptive =
  let m = Machine.create ~preemptive Mcu_db.mc56f8367 in
  let log = ref [] in
  let note s = log := (s, Machine.now_cycles m) :: !log in
  let vecs =
    Array.init 3 (fun i ->
        let name = "v" ^ string_of_int i in
        Machine.register_irq m ~name ~prio:i ~handler:(fun () ->
            job ~stack:(8 * (i + 1)) name (60 + (90 * i)) (fun () -> note name)))
  in
  let wd = Wdog_periph.create m ~timeout:2e-5 () in
  Wdog_periph.on_bite wd (fun () ->
      note "bite";
      Machine.raise_irq m vecs.(2));
  Wdog_periph.enable wd;
  let ev =
    Machine.on_event m (fun v ->
        note "ev";
        if v >= 0 then Machine.raise_irq m vecs.(v))
  in
  { m; wd; vecs; ev; log }

let apply r = function
  | Sched (after, v) ->
      Machine.schedule r.m ~after r.ev (Option.value v ~default:(-1))
  | Raise v -> Machine.raise_irq r.m r.vecs.(v)
  | Adv cycles -> Machine.advance r.m ~cycles
  | Refresh -> Wdog_periph.refresh r.wd
  | Wdog true -> Wdog_periph.enable r.wd
  | Wdog false -> Wdog_periph.disable r.wd

let observe r =
  ( (Machine.now_cycles r.m, Wdog_periph.bites r.wd, Machine.busy r.m),
    Machine.busy_cycles r.m,
    Array.map (fun v -> Machine.profile r.m v ~period:500) r.vecs,
    Machine.log r.m,
    !(r.log) )

(* k ops, save, m other ops, restore, then the same ops twice over from
   the one save: both replays equal a machine that never went astray *)
let prop_save_restore =
  QCheck2.Test.make ~name:"save/restore replays random op sequences" ~count:300
    QCheck2.Gen.(
      pair bool
        (triple
           (list_size (int_range 0 30) gen_mop)
           (list_size (int_range 0 30) gen_mop)
           (list_size (int_range 1 30) gen_mop)))
    (fun (preemptive, (before, astray, after)) ->
      let run r =
        r.log := [];
        List.iter (apply r) after;
        observe r
      in
      let reference =
        let r = rig preemptive in
        List.iter (apply r) before;
        run r
      in
      let r = rig preemptive in
      List.iter (apply r) before;
      let restore =
        let m = Machine.save r.m and w = Wdog_periph.save r.wd in
        fun () ->
          m ();
          w ()
      in
      List.iter (apply r) astray;
      restore ();
      let first = run r in
      restore ();
      let second = run r in
      first = reference && second = reference)

(* ---- the event queue against a stably sorted reference list ---- *)

type qop = Push of int (* cycle *) | Pop

(* few distinct cycles, so most pushes tie with a pending event *)
let gen_qops n =
  QCheck2.Gen.(
    list_size (int_range 0 n)
      (frequency [ (3, map (fun c -> Push c) (int_range 0 5)); (2, return Pop) ]))

(* apply [ops] to [q], the [k]-th push carrying argument [!next + k];
   the popped (cycle, handler, argument) triples, in order *)
let apply_q q next ops =
  List.fold_left
    (fun popped op ->
      match op with
      | Push cycle ->
          Evq.push q ~cycle ~handler:(cycle * 7) !next;
          incr next;
          popped
      | Pop when Evq.is_empty q -> popped
      | Pop ->
          let e = (Evq.peek_cycle q, Evq.top_handler q, Evq.top_arg q) in
          Evq.pop q;
          e :: popped)
    [] ops
  |> List.rev

let drain q =
  let rec go acc =
    if Evq.is_empty q then List.rev acc
    else begin
      let e = (Evq.peek_cycle q, Evq.top_handler q, Evq.top_arg q) in
      Evq.pop q;
      go (e :: acc)
    end
  in
  go []

(* the reference: the pending events in push order; a pop takes the head
   of their stable sort by cycle *)
let reference ops =
  let pending = ref [] and next = ref 0 and popped = ref [] in
  let take () =
    match List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b) !pending with
    | ((_, _, arg) as e) :: _ ->
        pending := List.filter (fun (_, _, a) -> a <> arg) !pending;
        popped := e :: !popped
    | [] -> ()
  in
  List.iter
    (function
      | Push cycle ->
          pending := !pending @ [ (cycle, cycle * 7, !next) ];
          incr next
      | Pop -> take ())
    ops;
  let before_drain = List.rev !popped in
  popped := [];
  while !pending <> [] do
    take ()
  done;
  (before_drain, List.rev !popped)

let prop_evq_order =
  QCheck2.Test.make ~name:"event queue pops in stable (cycle, push) order"
    ~count:300 (gen_qops 200) (fun ops ->
      let q = Evq.create () in
      let popped = apply_q q (ref 0) ops in
      let rest = drain q in
      (popped, rest) = reference ops)

(* a save, other pushes and pops, a restore: the queue replays what it
   would have done after the save, ties with fresh pushes included *)
let prop_evq_save =
  QCheck2.Test.make ~name:"event queue save/restore replays the same order"
    ~count:300
    QCheck2.Gen.(triple (gen_qops 100) (gen_qops 100) (gen_qops 100))
    (fun (before, astray, after) ->
      let q = Evq.create () and next = ref 0 in
      let pre = apply_q q next before in
      let restore = Evq.save q and saved_next = !next in
      let replay () =
        restore ();
        next := saved_next;
        let popped = apply_q q next after in
        (pre @ popped, drain q)
      in
      ignore (apply_q q next astray);
      let first = replay () in
      let second = replay () in
      first = reference (before @ after) && second = first)

let suite =
  [
    Alcotest.test_case "watchdog" `Quick test_watchdog;
    Alcotest.test_case "mcu database" `Quick test_mcu_db_entries;
    Alcotest.test_case "mcu database pins" `Quick test_mcu_db_pins;
    Alcotest.test_case "small sibling servo" `Quick test_small_sibling_fits_servo;
    Alcotest.test_case "event order" `Quick test_schedule_order;
    Alcotest.test_case "simultaneous fifo" `Quick test_simultaneous_events_fifo;
    Alcotest.test_case "irq dispatch latency" `Quick test_irq_dispatch_and_latency;
    Alcotest.test_case "priority order" `Quick test_priority_order;
    Alcotest.test_case "non-preemptive blocking" `Quick test_nonpreemptive_blocks_high_prio;
    Alcotest.test_case "preemption" `Quick test_preemptive_interrupts_low_prio;
    Alcotest.test_case "overrun counted" `Quick test_overrun_counted;
    Alcotest.test_case "utilization + stack" `Quick test_utilization_and_stack;
    Alcotest.test_case "irq enable/disable" `Quick test_disabled_irq_not_dispatched;
    Alcotest.test_case "timer periph" `Quick test_timer_periph;
    Alcotest.test_case "timer validation" `Quick test_timer_validation;
    Alcotest.test_case "pwm" `Quick test_pwm;
    Alcotest.test_case "pwm validation" `Quick test_pwm_validation;
    Alcotest.test_case "qdec wrap" `Quick test_qdec_wrap_diff;
    Alcotest.test_case "qdec hw check" `Quick test_qdec_requires_hardware;
    Alcotest.test_case "sci timing" `Quick test_sci_timing;
    Alcotest.test_case "sci rx overrun" `Quick test_sci_rx_and_overrun;
    Alcotest.test_case "sci fifo overflow" `Quick test_sci_fifo_overflow;
    QCheck_alcotest.to_alcotest prop_save_restore;
    QCheck_alcotest.to_alcotest prop_evq_order;
    QCheck_alcotest.to_alcotest prop_evq_save;
  ]

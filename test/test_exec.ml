(* The campaign job engine: Exec_pool.map (index order, lowest-index
   errors, per-domain state, nesting, the --jobs bound), serve's worker
   queue, the compile cache, and the deterministic observability-sink
   merge. *)

let () = Random.self_init ()

(* ---- map: results by index, errors, per-domain state ---- *)

let test_pool_map () =
  let r = Exec_pool.map ~jobs:4 1000 (fun () i -> i * i) in
  Alcotest.(check int) "length" 1000 (Array.length r);
  Array.iteri
    (fun i v -> if v <> i * i then Alcotest.failf "slot %d: %d" i v)
    r;
  Alcotest.(check (array int)) "fewer items than jobs" [| 1; 2; 3 |]
    (Exec_pool.map ~jobs:4 3 (fun () i -> i + 1));
  Alcotest.(check (array int)) "empty" [||]
    (Exec_pool.map ~jobs:4 0 (fun () i -> i))

let test_pool_error () =
  match
    Exec_pool.map ~jobs:3 50 (fun () i ->
        if i mod 7 = 3 then failwith (Printf.sprintf "boom %d" i) else i)
  with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure msg ->
      (* lowest failing index wins, deterministically *)
      Alcotest.(check string) "first failure" "boom 3" msg

exception Item of int

(* any size, job count and failing set: [map] is the sequential
   [Array.init], or raises the lowest failing index's exception; and
   each domain that takes an item builds its [f ()] once *)
let prop_map_is_init =
  QCheck.Test.make ~count:200 ~name:"map = Array.init, lowest failure wins"
    QCheck.(
      triple (int_range 0 200) (int_range 1 4) (small_list (int_bound 200)))
    (fun (n, jobs, failing) ->
      let g i = if List.mem i failing then raise (Item i) else (7 * i) + 1 in
      let outcome run = match run () with a -> Ok a | exception Item i -> Error i in
      let built = Atomic.make 0 in
      let got =
        outcome (fun () ->
            Exec_pool.map ~jobs n (fun () ->
                Atomic.incr built;
                g))
      in
      got = outcome (fun () -> Array.init n g)
      && Atomic.get built <= min jobs n)

let test_map_nested () =
  let r =
    Exec_pool.map ~jobs:3 6 (fun () i ->
        Array.fold_left ( + ) 0 (Exec_pool.map ~jobs:3 (i + 1) (fun () j -> j)))
  in
  Alcotest.(check (array int)) "inner sums" [| 0; 1; 3; 6; 10; 15 |] r

(* a --jobs count past the runtime's domain limit is a bad request,
   refused before anything is built or spawned (one seed: even without
   the check no domain would start) *)
let test_jobs_bound () =
  Exec_pool.check_jobs Exec_pool.max_jobs;
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s: --jobs %d accepted" what (Exec_pool.max_jobs + 1)
    | exception Supervise.Bad_request _ -> ()
  in
  refused "check_jobs" (fun () -> Exec_pool.check_jobs (Exec_pool.max_jobs + 1));
  refused "map" (fun () ->
      Exec_pool.map ~jobs:(Exec_pool.max_jobs + 1) 1 (fun () i -> i));
  refused "seed sweep" (fun () ->
      Seed_sweep.run ~jobs:(Exec_pool.max_jobs + 1) ~seeds:1 ~track:"t"
        ~label:"t"
        ~subject:(fun () -> Alcotest.fail "subject built")
        ~plan:ignore
        (fun () () _ -> ()))

(* ---- serve's queue ---- *)

let test_pool_submit () =
  let pool = Exec_pool.create ~workers:2 () in
  Fun.protect ~finally:(fun () -> Exec_pool.shutdown pool) @@ fun () ->
  let hits = Atomic.make 0 in
  let total = 200 in
  let m = Mutex.create () and c = Condition.create () in
  for _ = 1 to total do
    Exec_pool.submit pool (fun () ->
        if Atomic.fetch_and_add hits 1 = total - 1 then begin
          Mutex.lock m;
          Condition.signal c;
          Mutex.unlock m
        end)
  done;
  Mutex.lock m;
  while Atomic.get hits < total do
    Condition.wait c m
  done;
  Mutex.unlock m;
  Alcotest.(check int) "all ran" total (Atomic.get hits)

(* ---- compile cache ---- *)

let servo_controller () =
  let built = Servo_system.build () in
  built.Servo_system.controller

let test_compile_cache () =
  Compile_cache.clear ();
  let m1 = servo_controller () in
  let m2 = servo_controller () in
  Alcotest.(check string)
    "independent builds digest equal" (Compile_cache.digest m1)
    (Compile_cache.digest m2);
  let c1 = Compile_cache.compile m1 in
  let c2 = Compile_cache.compile m2 in
  Alcotest.(check bool) "shared artifact" true (c1 == c2);
  let h, m, _ = Compile_cache.stats () in
  Alcotest.(check int) "one miss" 1 m;
  Alcotest.(check int) "one hit" 1 h;
  (* different config => different digest *)
  let fixed =
    Servo_system.build
      ~config:
        {
          Servo_system.default_config with
          Servo_system.variant = Servo_system.Fixed_pid;
        }
      ()
  in
  if
    Compile_cache.digest fixed.Servo_system.controller
    = Compile_cache.digest m1
  then Alcotest.fail "distinct configs must not collide";
  (* dt is part of the key *)
  let c3 = Compile_cache.compile ~default_dt:1e-4 m1 in
  Alcotest.(check bool) "dt keyed" true (c3 != c1);
  Compile_cache.clear ()

(* the cache must hand out simulable artifacts: same trajectory as a
   fresh compile *)
let test_compile_cache_simulates () =
  Compile_cache.clear ();
  let built = Servo_system.build () in
  let closed = built.Servo_system.closed_loop in
  let fresh = Compile.compile closed in
  let cached = Compile_cache.compile closed in
  let run comp =
    let sim = Sim.create ~solver_substeps:3 comp in
    Sim.run sim ~until:0.2 ();
    Value.to_float (Sim.value_named sim built.Servo_system.speed_block 0)
  in
  Alcotest.(check (float 0.0)) "identical trajectory" (run fresh) (run cached);
  Compile_cache.clear ()

(* bounded cache: FIFO eviction keeps at most max_entries artifacts and
   counts the victims *)
let test_compile_cache_eviction () =
  Compile_cache.clear ();
  Compile_cache.set_max_entries 1;
  Fun.protect
    ~finally:(fun () ->
      Compile_cache.set_max_entries 64;
      Compile_cache.clear ())
  @@ fun () ->
  let built = Servo_system.build () in
  let m1 = built.Servo_system.controller in
  let c1 = Compile_cache.compile m1 in
  (* same model under a different dt: a second key, evicting the first *)
  let _c2 = Compile_cache.compile ~default_dt:1e-4 m1 in
  let c1' = Compile_cache.compile m1 in
  Alcotest.(check bool) "evicted entry recompiled" true (c1 != c1');
  let hits, misses, evictions = Compile_cache.stats () in
  Alcotest.(check int) "no hits" 0 hits;
  Alcotest.(check int) "three misses" 3 misses;
  Alcotest.(check int) "two evictions" 2 evictions;
  (match Compile_cache.set_max_entries 0 with
  | () -> Alcotest.fail "set_max_entries 0 must be rejected"
  | exception Invalid_argument _ -> ())

(* ---- obs export merge: associativity + determinism ---- *)

let export_with f =
  Obs.reset ();
  Obs.set_enabled true;
  f ();
  let e = Obs.Export.of_local () in
  Obs.set_enabled false;
  Obs.reset ();
  e

let test_export_merge () =
  let ea =
    export_with (fun () ->
        Obs.incr_counter ~by:3 "m.a";
        Obs.incr_counter ~by:1 "m.b";
        Obs.record_named "m.h" 1.0;
        Obs.record_named "m.h" 2.0)
  in
  let eb =
    export_with (fun () ->
        Obs.incr_counter ~by:4 "m.b";
        Obs.incr_counter ~by:5 "m.c";
        Obs.record_named "m.h" 4.0)
  in
  let ec =
    export_with (fun () ->
        Obs.incr_counter ~by:10 "m.a";
        Obs.record_named "m.h2" 8.0)
  in
  let open Obs.Export in
  let l = merge (merge ea eb) ec and r = merge ea (merge eb ec) in
  Alcotest.(check (list (pair string int)))
    "associative counters" (counters l) (counters r);
  Alcotest.(check (list (pair string int)))
    "commutative counters" (counters (merge ea eb)) (counters (merge eb ea));
  Alcotest.(check (list (pair string int)))
    "totals"
    [ ("m.a", 13); ("m.b", 5); ("m.c", 5) ]
    (counters l);
  let hist_counts e = List.map (fun (n, s) -> (n, s.Obs.hs_count)) (hists e) in
  Alcotest.(check (list (pair string int)))
    "associative hists" (hist_counts l) (hist_counts r);
  Alcotest.(check (list (pair string int)))
    "hist totals"
    [ ("m.h", 3); ("m.h2", 1) ]
    (hist_counts l);
  (match List.assoc_opt "m.h" (hists l) with
  | Some s ->
      Alcotest.(check (float 1e-9)) "hist sum exact mean" (7.0 /. 3.0) s.Obs.hs_mean;
      Alcotest.(check (float 1e-9)) "hist min" 1.0 s.Obs.hs_min;
      Alcotest.(check (float 1e-9)) "hist max" 4.0 s.Obs.hs_max
  | None -> Alcotest.fail "m.h missing");
  (* neutral element *)
  Alcotest.(check (list (pair string int)))
    "empty neutral" (counters l)
    (counters (merge empty l))

(* any permutation of exports merges to the same totals *)
let test_export_merge_deterministic =
  QCheck.Test.make ~count:100 ~name:"export merge order-independent"
    QCheck.(list (pair (int_bound 3) (int_range 1 5)))
    (fun entries ->
      let exports =
        List.map
          (fun (k, v) ->
            export_with (fun () ->
                Obs.incr_counter ~by:v (Printf.sprintf "perm.c%d" k);
                Obs.record_named "perm.h" (float_of_int v)))
          entries
      in
      let open Obs.Export in
      let fwd = List.fold_left merge empty exports in
      let rev = List.fold_left merge empty (List.rev exports) in
      counters fwd = counters rev
      && List.map (fun (n, s) -> (n, s.Obs.hs_count)) (hists fwd)
         = List.map (fun (n, s) -> (n, s.Obs.hs_count)) (hists rev))

(* spawned domains' published counts reach the caller's snapshot *)
let test_publish_across_domains () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let c = Obs.counter "pub.xdomain" in
      ignore
        (Exec_pool.map ~jobs:4 100 (fun () i ->
             Obs.add c 1;
             i));
      Alcotest.(check int) "all increments visible" 100 (Obs.counter_value c))

let qt t = QCheck_alcotest.to_alcotest t

let suite =
  [
    Alcotest.test_case "pool map lands results by index" `Quick
      test_pool_map;
    Alcotest.test_case "pool lowest-index error" `Quick test_pool_error;
    qt prop_map_is_init;
    Alcotest.test_case "map nested in an item" `Quick test_map_nested;
    Alcotest.test_case "jobs past the domain limit refused" `Quick
      test_jobs_bound;
    Alcotest.test_case "pool submit" `Quick test_pool_submit;
    Alcotest.test_case "compile cache dedup" `Quick test_compile_cache;
    Alcotest.test_case "compile cache simulates" `Quick
      test_compile_cache_simulates;
    Alcotest.test_case "compile cache eviction" `Quick
      test_compile_cache_eviction;
    Alcotest.test_case "export merge associative" `Quick test_export_merge;
    qt test_export_merge_deterministic;
    Alcotest.test_case "publish across domains" `Quick
      test_publish_across_domains;
  ]

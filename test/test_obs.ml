(* The observability layer: histogram quantile accuracy, host-span
   nesting/ordering (spans are Flight events switched by Obs), the
   zero-allocation disabled path, and the Bench_json round-trip. Obs and
   Flight state is process-global, so every test starts from
   [Obs.reset]/[Flight.reset] and restores [set_enabled false]. *)

let with_obs f =
  Obs.reset ();
  Flight.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ();
      Flight.reset ())
    f

(* log-scale buckets with 16 sub-buckets: <= ~6 % relative error *)
let close_rel ?(tol = 0.07) msg expected actual =
  if expected = 0.0 then Alcotest.(check (float 1e-9)) msg expected actual
  else
    let rel = Float.abs (actual -. expected) /. Float.abs expected in
    if rel > tol then
      Alcotest.failf "%s: expected ~%g, got %g (rel err %.3f > %.3f)" msg
        expected actual rel tol

let test_hist_uniform () =
  with_obs @@ fun () ->
  let h = Obs.hist "test.uniform" in
  for i = 1 to 10_000 do
    Obs.record h (float_of_int i)
  done;
  let s = Obs.hist_summary h in
  Alcotest.(check int) "count" 10_000 s.Obs.hs_count;
  Alcotest.(check (float 1e-9)) "min exact" 1.0 s.Obs.hs_min;
  Alcotest.(check (float 1e-9)) "max exact" 10_000.0 s.Obs.hs_max;
  close_rel ~tol:0.001 "mean exact" 5000.5 s.Obs.hs_mean;
  close_rel "p50" 5000.0 s.Obs.hs_p50;
  close_rel "p95" 9500.0 s.Obs.hs_p95;
  close_rel "p99" 9900.0 s.Obs.hs_p99;
  close_rel "p10" 1000.0 (Obs.hist_quantile h 0.10)

let test_hist_bimodal () =
  with_obs @@ fun () ->
  (* 90 % fast path at ~1 us, 10 % slow path at ~1 ms: the shape of a
     latency distribution with overruns *)
  let h = Obs.hist "test.bimodal" in
  for _ = 1 to 900 do
    Obs.record h 1e-6
  done;
  for _ = 1 to 100 do
    Obs.record h 1e-3
  done;
  let s = Obs.hist_summary h in
  close_rel "p50 in fast mode" 1e-6 s.Obs.hs_p50;
  close_rel "p95 in slow mode" 1e-3 s.Obs.hs_p95;
  close_rel "p99 in slow mode" 1e-3 s.Obs.hs_p99;
  Alcotest.(check (float 1e-12)) "max exact" 1e-3 s.Obs.hs_max;
  (* quantile edges *)
  close_rel "q=0 -> min" 1e-6 (Obs.hist_quantile h 0.0);
  close_rel "q=1 -> max" 1e-3 (Obs.hist_quantile h 1.0)

let test_hist_edge_cases () =
  with_obs @@ fun () ->
  let h = Obs.hist "test.edge" in
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Obs.hist_quantile h 0.5);
  let s = Obs.hist_summary h in
  Alcotest.(check int) "empty count" 0 s.Obs.hs_count;
  (* non-positive and huge values must not crash or distort count *)
  Obs.record h 0.0;
  Obs.record h (-5.0);
  Obs.record h 1e300;
  let s = Obs.hist_summary h in
  Alcotest.(check int) "count with extremes" 3 s.Obs.hs_count;
  Alcotest.(check (float 1e280)) "max kept" 1e300 s.Obs.hs_max

let test_span_nesting () =
  with_obs @@ fun () ->
  Flight.span "outer" (fun () ->
      Flight.span "inner" (fun () ->
          ignore (Sys.opaque_identity (Array.make 10 0)));
      Flight.span "inner2" (fun () -> ()));
  match Flight.spans () with
  | [ inner; inner2; outer ] ->
      (* completion order: inner, inner2, outer *)
      Alcotest.(check string) "first completed" "inner" inner.Flight.ev_label;
      Alcotest.(check string) "second completed" "inner2" inner2.Flight.ev_label;
      Alcotest.(check string) "last completed" "outer" outer.Flight.ev_label;
      Alcotest.(check bool) "span kind" true
        (List.for_all (fun e -> e.Flight.ev_kind = Flight.Span)
           [ inner; inner2; outer ]);
      Alcotest.(check int) "inner depth" 1 inner.Flight.ev_step;
      Alcotest.(check int) "outer depth" 0 outer.Flight.ev_step;
      Alcotest.(check bool) "outer contains inner (start)" true
        (outer.Flight.ev_time <= inner.Flight.ev_time);
      Alcotest.(check bool) "outer at least as long" true
        (outer.Flight.ev_value >= inner.Flight.ev_value);
      Alcotest.(check bool) "durations non-negative" true
        (List.for_all
           (fun e -> e.Flight.ev_value >= 0.0)
           [ inner; inner2; outer ])
  | sps -> Alcotest.failf "expected three spans, got %d" (List.length sps)

(* the host ring keeps the newest 8192 spans, oldest evicted first, and
   the trace and the flame summary say how many it dropped *)
let test_span_ring_eviction () =
  with_obs @@ fun () ->
  for i = 1 to 8200 do
    Flight.span (string_of_int i) (fun () -> ())
  done;
  let sps = Flight.spans () in
  Alcotest.(check int) "ring keeps capacity" 8192 (List.length sps);
  Alcotest.(check string) "oldest surviving" "9" (List.hd sps).Flight.ev_label;
  Alcotest.(check string) "newest" "8200"
    (List.nth sps 8191).Flight.ev_label;
  Alcotest.(check int) "evicted spans counted" 8 (Flight.spans_dropped ());
  (match Bench_json.parse (Flight.spans_chrome ()) with
  | Bench_json.Arr (meta :: _) ->
      Alcotest.(check bool) "trace metadata gives the drop" true
        (Option.bind (Bench_json.member "args" meta) (Bench_json.member "dropped")
        = Some (Bench_json.Int 8))
  | _ -> Alcotest.fail "trace is not a JSON array");
  Alcotest.(check bool) "flame summary gives the drop" true
    (Astring_contains.contains
       (Obs_report.flame_summary ~dropped:(Flight.spans_dropped ()) sps)
       "8 older spans dropped\n");
  Flight.reset ();
  Alcotest.(check int) "reset clears the drop" 0 (Flight.spans_dropped ())

let test_chrome_trace_parses () =
  with_obs @@ fun () ->
  (* a domain whose spans a reset emptied gets no lane *)
  Domain.join (Domain.spawn (fun () -> Flight.span "gone" ignore));
  Flight.reset ();
  Flight.span "a" (fun () -> Flight.span "b with \"quotes\"" (fun () -> ()));
  match Bench_json.parse (Flight.spans_chrome ()) with
  | Bench_json.Arr events ->
      (* process_name + one thread_name lane (single domain) + 2 spans *)
      Alcotest.(check int) "event count" 4 (List.length events);
      let names =
        List.filter_map (fun e -> Bench_json.member "name" e) events
      in
      Alcotest.(check bool) "escaped name round-trips" true
        (List.mem (Bench_json.Str "b with \"quotes\"") names);
      Alcotest.(check bool) "thread lane metadata present" true
        (List.mem (Bench_json.Str "thread_name") names);
      let complete =
        List.filter
          (fun e -> Bench_json.member "ph" e = Some (Bench_json.Str "X"))
          events
      in
      Alcotest.(check int) "two complete events" 2 (List.length complete);
      List.iter
        (fun e ->
          match (Bench_json.member "ts" e, Bench_json.member "dur" e) with
          | Some (Bench_json.Float ts), Some (Bench_json.Float dur) ->
              Alcotest.(check bool) "ts, dur >= 0" true (ts >= 0.0 && dur >= 0.0)
          | _ -> Alcotest.fail "X event without ts/dur")
        complete
  | _ -> Alcotest.fail "trace is not a JSON array"

let test_disabled_path_no_alloc () =
  Obs.reset ();
  Flight.reset ();
  Obs.set_enabled false;
  let c = Obs.counter "test.disabled" in
  let h = Obs.hist "test.disabled_h" in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Obs.add c 1;
    Obs.record h 1.0;
    Flight.span "x" ignore
  done;
  let after = Gc.minor_words () in
  (* 30k disabled calls: any per-call allocation would show as >= 10k
     words; the slack absorbs the boxing of the two Gc readings *)
  Alcotest.(check bool) "no observable allocation" true (after -. before < 256.0);
  Alcotest.(check int) "counter untouched" 0 (Obs.counter_value c);
  Alcotest.(check int) "no spans recorded" 0 (List.length (Flight.spans ()))

let test_counters_and_reset () =
  with_obs @@ fun () ->
  let c = Obs.counter "test.c" in
  Obs.add c 41;
  Obs.incr_counter "test.c";
  Obs.set_gauge "test.g" 2.5;
  Obs.record_named "test.h" 0.5;
  let snap = Obs.snapshot () in
  Alcotest.(check int) "counter via snapshot" 42
    (List.assoc "test.c" snap.Obs.counters);
  Alcotest.(check (float 1e-9)) "gauge via snapshot" 2.5
    (List.assoc "test.g" snap.Obs.gauges);
  Alcotest.(check int) "hist count via snapshot" 1
    (List.assoc "test.h" snap.Obs.hists).Obs.hs_count;
  Obs.reset ();
  let snap = Obs.snapshot () in
  Alcotest.(check int) "counter zeroed, name kept" 0
    (List.assoc "test.c" snap.Obs.counters);
  Alcotest.(check int) "hist zeroed, name kept" 0
    (List.assoc "test.h" snap.Obs.hists).Obs.hs_count;
  Alcotest.(check int) "counter handle survives" 0 (Obs.counter_value c)

let test_bench_json_roundtrip () =
  let doc =
    Bench_json.Obj
      [
        ("name", Bench_json.Str "rt");
        ("steps", Bench_json.Int 1234);
        ("wall_s", Bench_json.Float 0.5);
        ("ok", Bench_json.Bool true);
        ("none", Bench_json.Null);
        ( "hist",
          Bench_json.Arr [ Bench_json.Float 1e-6; Bench_json.Float (-2.5) ] );
        ("nested", Bench_json.Obj [ ("count", Bench_json.Int 100) ]);
        ("note", Bench_json.Str "round\ntrip \"quoted\"");
      ]
  in
  let text = Bench_json.to_string doc in
  let parsed = Bench_json.parse text in
  Alcotest.(check bool) "reparse equals original" true (parsed = doc);
  Alcotest.(check bool) "second serialisation stable" true
    (Bench_json.to_string parsed = text);
  match Option.bind (Bench_json.member "nested" parsed) (Bench_json.member "count") with
  | Some (Bench_json.Int 100) -> ()
  | _ -> Alcotest.fail "nested count missing"

let test_json_parser_rejects () =
  let rejects s =
    match Bench_json.parse s with
    | exception Bench_json.Parse_error _ -> ()
    | _ -> Alcotest.failf "parser accepted %S" s
  in
  rejects "";
  rejects "{";
  rejects "[1,]";
  rejects "{\"a\":}";
  rejects "tru";
  rejects "1 2";
  Alcotest.(check bool) "nested ok" true
    (Bench_json.parse "[{\"a\":[1,2.5,null,true,\"x\"]}]"
    = Bench_json.(Arr [ Obj [ ("a", Arr [ Int 1; Float 2.5; Null; Bool true; Str "x" ]) ] ]))

let test_flame_and_metrics_render () =
  with_obs @@ fun () ->
  Flight.span "root" (fun () -> Flight.span "leaf" (fun () -> ()));
  Obs.incr_counter ~by:3 "render.c";
  Obs.record_named "render.h" 1e-3;
  let flame = Obs_report.flame_summary (Flight.spans ()) in
  Alcotest.(check bool) "flame lists root" true
    (Astring_contains.contains flame "root");
  Alcotest.(check bool) "flame indents leaf" true
    (Astring_contains.contains flame "  leaf");
  let table = Obs_report.metrics_table (Obs.snapshot ()) in
  Alcotest.(check bool) "table lists counter" true
    (Astring_contains.contains table "render.c");
  Alcotest.(check bool) "table lists histogram" true
    (Astring_contains.contains table "render.h")

(* [--profile] is the span summary: every analysis pass of a servo
   check, and the generate / MIR / compile passes of an optimized diff,
   each listed under the span it ran in *)
let test_profile_lists_passes () =
  let lists what f nested =
    with_obs @@ fun () ->
    f ();
    let flame = Obs_report.flame_summary (Flight.spans ()) in
    (* each listed span with its parent: the nearest line above it that
       is indented less *)
    let rows =
      List.filter_map
        (fun line ->
          if String.length line < 40 then None
          else
            let label = String.sub line 0 40 in
            let name = String.trim label in
            Some (String.index label name.[0], name))
        (List.tl (String.split_on_char '\n' flame))
    in
    let rec parents above = function
      | [] -> []
      | (indent, name) :: rest ->
          let above = List.filter (fun (i, _) -> i < indent) above in
          let parent = match above with (_, p) :: _ -> p | [] -> "" in
          (name, parent) :: parents ((indent, name) :: above) rest
    in
    let parents = parents [] rows in
    List.iter
      (fun (parent, n) ->
        Alcotest.(check (option string))
          (Printf.sprintf "%s profile lists %s under %s" what n parent)
          (Some parent) (List.assoc_opt n parents))
      nested
  in
  let built = Servo_system.build () in
  lists "check servo"
    (fun () ->
      ignore
        (Check.run ~project:built.Servo_system.project
           built.Servo_system.controller))
    (List.map
       (fun n -> ("analysis.check", n))
       [ "check.compile"; "check.lint"; "check.range"; "check.concurrency";
         "check.codegen"; "check.misra" ]
    @ [ ("check.codegen", "peert.generate") ]);
  (* a cached compile would time no silvm.compile *)
  Silvm_compile.cache_clear ();
  lists "diff servo --opt"
    (fun () ->
      match
        Diff_subject.make ~config:Servo_system.default_config ~steps:200
          ~opt:true "servo"
      with
      | Ok s -> ignore (Diff_subject.run s)
      | Error _ -> Alcotest.fail "servo is a known model")
    [ ("silvm.diff", "peert.generate"); ("silvm.diff", "silvm.compile");
      ("peert.generate", "mir.fold"); ("peert.generate", "mir.propagate");
      ("peert.generate", "mir.dce") ]

let suite =
  [
    Alcotest.test_case "histogram uniform quantiles" `Quick test_hist_uniform;
    Alcotest.test_case "histogram bimodal quantiles" `Quick test_hist_bimodal;
    Alcotest.test_case "histogram edge cases" `Quick test_hist_edge_cases;
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "span ring eviction" `Quick test_span_ring_eviction;
    Alcotest.test_case "chrome trace parses" `Quick test_chrome_trace_parses;
    Alcotest.test_case "disabled path allocates nothing" `Quick
      test_disabled_path_no_alloc;
    Alcotest.test_case "counters, gauges, reset" `Quick test_counters_and_reset;
    Alcotest.test_case "bench json round-trip" `Quick test_bench_json_roundtrip;
    Alcotest.test_case "json parser rejects malformed" `Quick
      test_json_parser_rejects;
    Alcotest.test_case "flame + metrics render" `Quick
      test_flame_and_metrics_render;
    Alcotest.test_case "profile lists the passes" `Quick
      test_profile_lists_passes;
  ]

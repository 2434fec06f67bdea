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
      Flight.bump 2;
      Flight.span "inner" (fun () ->
          Flight.bump 5;
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
      Alcotest.(check int) "inner per-span count" 5 inner.Flight.ev_arg;
      Alcotest.(check int) "outer per-span count" 2 outer.Flight.ev_arg;
      Alcotest.(check bool) "outer contains inner (start)" true
        (outer.Flight.ev_time <= inner.Flight.ev_time);
      Alcotest.(check bool) "outer at least as long" true
        (outer.Flight.ev_value >= inner.Flight.ev_value);
      Alcotest.(check bool) "durations non-negative" true
        (List.for_all
           (fun e -> e.Flight.ev_value >= 0.0)
           [ inner; inner2; outer ])
  | sps -> Alcotest.failf "expected three spans, got %d" (List.length sps)

(* the host ring keeps the newest 8192 spans, oldest evicted first *)
let test_span_ring_eviction () =
  with_obs @@ fun () ->
  for i = 1 to 8200 do
    Flight.span (string_of_int i) (fun () -> ())
  done;
  let sps = Flight.spans () in
  Alcotest.(check int) "ring keeps capacity" 8192 (List.length sps);
  Alcotest.(check string) "oldest surviving" "9" (List.hd sps).Flight.ev_label;
  Alcotest.(check string) "newest" "8200"
    (List.nth sps 8191).Flight.ev_label

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
    Flight.span_begin "x";
    Flight.bump 1;
    Flight.span_end ()
  done;
  let after = Gc.minor_words () in
  (* 50k disabled calls: any per-call allocation would show as >= 10k
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
  with_obs @@ fun () ->
  Obs.incr_counter ~by:7 "rt.counter";
  Obs.set_gauge "rt.gauge" 3.25;
  for i = 1 to 100 do
    Obs.record_named "rt.hist" (float_of_int i *. 1e-6)
  done;
  let doc =
    Bench_json.bench ~name:"rt" ~steps:1234 ~wall_s:0.5
      ~extra:[ ("note", Bench_json.Str "round\ntrip \"quoted\"") ]
      (Obs.snapshot ())
  in
  let text = Bench_json.to_string doc in
  let parsed = Bench_json.parse text in
  Alcotest.(check bool) "reparse equals original" true (parsed = doc);
  Alcotest.(check bool) "second serialisation stable" true
    (Bench_json.to_string parsed = text);
  (match Bench_json.member "steps_per_s" parsed with
  | Some (Bench_json.Float f) ->
      Alcotest.(check (float 1e-6)) "steps_per_s computed" 2468.0 f
  | _ -> Alcotest.fail "steps_per_s missing");
  (match Bench_json.member "histograms" parsed with
  | Some hists -> (
      match Bench_json.member "rt.hist" hists with
      | Some h -> (
          match Bench_json.member "count" h with
          | Some (Bench_json.Int 100) -> ()
          | _ -> Alcotest.fail "rt.hist count wrong")
      | None -> Alcotest.fail "rt.hist missing")
  | None -> Alcotest.fail "histograms missing");
  match Bench_json.member "git_rev" parsed with
  | Some (Bench_json.Str rev) ->
      Alcotest.(check bool) "git_rev non-empty" true (String.length rev > 0)
  | _ -> Alcotest.fail "git_rev missing"

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
  ]

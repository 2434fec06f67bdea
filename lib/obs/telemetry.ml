(* Live-metrics export on top of the Obs registry: Prometheus-style text
   exposition, and the JSONL heartbeat lines and `stats` records `ecsd
   serve` emits.

   Named [Telemetry] rather than [Metrics]: every library here is built
   with (wrapped false) and lib/control already owns the [Metrics] module
   (control-quality metrics). *)

let wall s =
  match Sys.getenv_opt "ECSD_WALL_ZERO" with
  | None | Some "" -> s
  | Some _ -> 0.0

(* Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*; the registry uses
   dotted names, so map everything else to '_' *)
let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let prometheus () =
  let snap = Obs.snapshot () in
  let b = Buffer.create 1024 in
  let metric ty name value_lines =
    let n = "ecsd_" ^ sanitize name in
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" n ty);
    List.iter
      (fun (suffix, labels, v) ->
        Buffer.add_string b
          (Printf.sprintf "%s%s%s %s\n" n suffix labels (Bench_json.float_str v)))
      value_lines
  in
  List.iter
    (fun (name, v) -> metric "counter" name [ ("", "", float_of_int v) ])
    snap.Obs.counters;
  List.iter (fun (name, v) -> metric "gauge" name [ ("", "", v) ]) snap.Obs.gauges;
  List.iter
    (fun (name, (hs : Obs.hist_summary)) ->
      metric "summary" name
        [
          ("", "{quantile=\"0.5\"}", hs.Obs.hs_p50);
          ("", "{quantile=\"0.95\"}", hs.Obs.hs_p95);
          ("", "{quantile=\"0.99\"}", hs.Obs.hs_p99);
          ("_sum", "", hs.Obs.hs_mean *. float_of_int hs.Obs.hs_count);
          ("_count", "", float_of_int hs.Obs.hs_count);
        ])
    snap.Obs.hists;
  Buffer.contents b

let write_prometheus ~path =
  Out_channel.with_open_text path (fun oc -> output_string oc (prometheus ()))

(* Heartbeat line for serve's stdout. All wall-derived fields go through
   {!wall} so ECSD_WALL_ZERO keeps the stream byte-comparable. *)
let heartbeat_line ~jobs_done ~inflight ~wall_s =
  let job_s = List.assoc_opt "serve.job_s" (Obs.snapshot ()).Obs.hists in
  let job_q f = Bench_json.Float (wall (Option.fold ~none:0.0 ~some:f job_s)) in
  let w = wall wall_s in
  Bench_json.to_string
    (Bench_json.Obj
       [
         ("heartbeat", Bench_json.Bool true);
         ("jobs_done", Bench_json.Int jobs_done);
         ("inflight", Bench_json.Int inflight);
         ("wall_s", Bench_json.Float w);
         ( "jobs_per_s",
           Bench_json.Float
             (if w > 0.0 then float_of_int jobs_done /. w else 0.0) );
         ("job_p50_s", job_q (fun hs -> hs.Obs.hs_p50));
         ("job_p95_s", job_q (fun hs -> hs.Obs.hs_p95));
         ("job_max_s", job_q (fun hs -> hs.Obs.hs_max));
       ])

(* The record of serve's `stats` job: the non-zero counters, the gauges
   and the non-empty histograms' quantiles. A histogram of seconds
   ([serve.job_s], [exec.task_s], ...) holds wall times, so its
   quantiles go through {!wall}; its count does not. *)
let stats ~jobs_done ~wall_s =
  let open Bench_json in
  let snap = Obs.snapshot () in
  [
    ("job", Str "stats");
    ("jobs_done", Int jobs_done);
    ("wall_s", Float (wall wall_s));
    ( "counters",
      Obj
        (List.filter_map
           (fun (k, v) -> if v = 0 then None else Some (k, Int v))
           snap.Obs.counters) );
    ("gauges", Obj (List.map (fun (k, v) -> (k, Float v)) snap.Obs.gauges));
    ( "hists",
      Obj
        (List.filter_map
           (fun (k, hs) ->
             if hs.Obs.hs_count = 0 then None
             else
               let q =
                 if String.ends_with ~suffix:"_s" k then wall else Fun.id
               in
               Some
                 ( k,
                   Obj
                     [
                       ("count", Int hs.Obs.hs_count);
                       ("p50", Float (q hs.Obs.hs_p50));
                       ("p95", Float (q hs.Obs.hs_p95));
                       ("max", Float (q hs.Obs.hs_max));
                     ] ))
           snap.Obs.hists) );
    ("exit", Int 0);
  ]

let fmt_time_s s =
  if s >= 1.0 then Printf.sprintf "%.3f s" s
  else if s >= 1e-3 then Printf.sprintf "%.2f ms" (s *. 1e3)
  else if s >= 1e-6 then Printf.sprintf "%.2f us" (s *. 1e6)
  else Printf.sprintf "%.0f ns" (s *. 1e9)

type agg = {
  mutable calls : int;
  mutable total_s : float;
  mutable max_s : float;
  mutable count : int;
}

let flame_summary events =
  let spans = List.filter (fun e -> e.Flight.ev_kind = Flight.Span) events in
  if spans = [] then "no spans recorded\n"
  else begin
    let tbl : (int * string, agg) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    (* first-seen order, by completion time, gives a stable listing *)
    List.iter
      (fun (e : Flight.event) ->
        let key = (e.ev_step, e.ev_label) in
        let a =
          match Hashtbl.find_opt tbl key with
          | Some a -> a
          | None ->
              let a = { calls = 0; total_s = 0.0; max_s = 0.0; count = 0 } in
              Hashtbl.replace tbl key a;
              order := key :: !order;
              a
        in
        a.calls <- a.calls + 1;
        a.total_s <- a.total_s +. e.ev_value;
        if e.ev_value > a.max_s then a.max_s <- e.ev_value;
        a.count <- a.count + e.ev_arg)
      spans;
    let root_total =
      List.fold_left
        (fun acc (e : Flight.event) ->
          if e.ev_step = 0 then acc +. e.ev_value else acc)
        0.0 spans
    in
    let keys =
      List.sort
        (fun (d1, n1) (d2, n2) ->
          if d1 <> d2 then compare d1 d2
          else
            let t k n = (Hashtbl.find tbl (k, n)).total_s in
            compare (t d2 n2) (t d1 n1))
        (List.rev !order)
    in
    let b = Buffer.create 512 in
    Buffer.add_string b
      (Printf.sprintf "%-40s %10s %12s %12s %12s %7s\n" "span (by depth)"
         "calls" "total" "mean" "max" "share");
    List.iter
      (fun (d, name) ->
        let a = Hashtbl.find tbl (d, name) in
        let label = String.make (2 * d) ' ' ^ name in
        let share =
          if root_total > 0.0 then
            Printf.sprintf "%5.1f %%" (100.0 *. a.total_s /. root_total)
          else "-"
        in
        Buffer.add_string b
          (Printf.sprintf "%-40s %10d %12s %12s %12s %7s\n" label a.calls
             (fmt_time_s a.total_s)
             (fmt_time_s (a.total_s /. float_of_int a.calls))
             (fmt_time_s a.max_s) share))
      keys;
    Buffer.contents b
  end

let metrics_table (snap : Obs.snapshot) =
  let b = Buffer.create 512 in
  (* registered-but-untouched instruments are noise in a run report *)
  let counters = List.filter (fun (_, v) -> v <> 0) snap.Obs.counters in
  let hists =
    List.filter (fun (_, hs) -> hs.Obs.hs_count > 0) snap.Obs.hists
  in
  let snap = { snap with Obs.counters; hists } in
  if snap.Obs.counters <> [] then begin
    Buffer.add_string b "counters:\n";
    List.iter
      (fun (k, v) -> Buffer.add_string b (Printf.sprintf "  %-36s %d\n" k v))
      snap.Obs.counters
  end;
  if snap.Obs.gauges <> [] then begin
    Buffer.add_string b "gauges:\n";
    List.iter
      (fun (k, v) -> Buffer.add_string b (Printf.sprintf "  %-36s %g\n" k v))
      snap.Obs.gauges
  end;
  if snap.Obs.hists <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "histograms:\n  %-34s %8s %10s %10s %10s %10s\n" ""
         "count" "p50" "p95" "p99" "max");
    List.iter
      (fun (k, hs) ->
        Buffer.add_string b
          (Printf.sprintf "  %-34s %8d %10s %10s %10s %10s\n" k
             hs.Obs.hs_count (fmt_time_s hs.Obs.hs_p50)
             (fmt_time_s hs.Obs.hs_p95) (fmt_time_s hs.Obs.hs_p99)
             (fmt_time_s hs.Obs.hs_max)))
      snap.Obs.hists
  end;
  if Buffer.length b = 0 then "no metrics recorded\n" else Buffer.contents b

(* self-profiling view: the profile.* histograms recorded by the
   per-pass/per-phase timing hooks, with aggregate totals — the
   --profile rendering *)
let profile_table (snap : Obs.snapshot) =
  let prefix = "profile." in
  let is_profile k =
    String.length k > String.length prefix
    && String.sub k 0 (String.length prefix) = prefix
  in
  let rows =
    List.filter (fun (k, hs) -> is_profile k && hs.Obs.hs_count > 0)
      snap.Obs.hists
  in
  if rows = [] then "no profile samples recorded (is --profile on?)\n"
  else begin
    let b = Buffer.create 512 in
    Buffer.add_string b
      (Printf.sprintf "%-36s %8s %12s %12s %12s\n" "pass" "calls" "total"
         "mean" "max");
    List.iter
      (fun (k, hs) ->
        let name = String.sub k (String.length prefix)
            (String.length k - String.length prefix)
        in
        let total = hs.Obs.hs_mean *. float_of_int hs.Obs.hs_count in
        Buffer.add_string b
          (Printf.sprintf "%-36s %8d %12s %12s %12s\n" name hs.Obs.hs_count
             (fmt_time_s total) (fmt_time_s hs.Obs.hs_mean)
             (fmt_time_s hs.Obs.hs_max)))
      rows;
    Buffer.contents b
  end

let fmt_time_s s =
  if s >= 1.0 then Printf.sprintf "%.3f s" s
  else if s >= 1e-3 then Printf.sprintf "%.2f ms" (s *. 1e3)
  else if s >= 1e-6 then Printf.sprintf "%.2f us" (s *. 1e6)
  else Printf.sprintf "%.0f ns" (s *. 1e9)

(* one node per path of span names from the outermost span *)
type node = {
  mutable calls : int;
  mutable total_s : float;
  mutable max_s : float;
  kids : (string, node) Hashtbl.t;
}

let node () = { calls = 0; total_s = 0.0; max_s = 0.0; kids = Hashtbl.create 4 }

let flame_summary ?(dropped = 0) events =
  let spans = List.filter (fun e -> e.Flight.ev_kind = Flight.Span) events in
  if spans = [] then "no spans recorded\n"
  else begin
    let root = node () in
    (* A span's parent is the next span one level up to complete after
       it on the same domain. Walking newest first, that is the last
       span seen at the depth above; a span whose parent is still open
       is listed at the top. *)
    let last = Hashtbl.create 16 in
    List.iter
      (fun (e : Flight.event) ->
        let parent =
          Option.value ~default:root
            (Hashtbl.find_opt last (e.ev_track, e.ev_step - 1))
        in
        let n =
          match Hashtbl.find_opt parent.kids e.ev_label with
          | Some n -> n
          | None ->
              let n = node () in
              Hashtbl.replace parent.kids e.ev_label n;
              n
        in
        Hashtbl.replace last (e.ev_track, e.ev_step) n;
        n.calls <- n.calls + 1;
        n.total_s <- n.total_s +. e.ev_value;
        if e.ev_value > n.max_s then n.max_s <- e.ev_value)
      (List.rev spans);
    let root_total =
      List.fold_left
        (fun acc (e : Flight.event) ->
          if e.ev_step = 0 then acc +. e.ev_value else acc)
        0.0 spans
    in
    let b = Buffer.create 512 in
    Buffer.add_string b
      (Printf.sprintf "%-40s %10s %12s %12s %12s %7s\n" "span" "calls"
         "total" "mean" "max" "share");
    (* depth first, each span's children by total time, largest first *)
    let rec print depth parent =
      Hashtbl.fold (fun name n acc -> (name, n) :: acc) parent.kids []
      |> List.sort (fun (x, m) (y, n) ->
             match compare n.total_s m.total_s with 0 -> compare x y | c -> c)
      |> List.iter (fun (name, n) ->
             let share =
               if root_total > 0.0 then
                 Printf.sprintf "%5.1f %%" (100.0 *. n.total_s /. root_total)
               else "-"
             in
             Buffer.add_string b
               (Printf.sprintf "%-40s %10d %12s %12s %12s %7s\n"
                  (String.make (2 * depth) ' ' ^ name)
                  n.calls (fmt_time_s n.total_s)
                  (fmt_time_s (n.total_s /. float_of_int n.calls))
                  (fmt_time_s n.max_s) share);
             print (depth + 1) n)
    in
    print 0 root;
    if dropped > 0 then
      Buffer.add_string b (Printf.sprintf "%d older spans dropped\n" dropped);
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

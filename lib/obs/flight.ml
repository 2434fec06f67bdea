(* Flight recorder: fixed-capacity, per-domain ring buffer of binary trace
   events, cheap enough to leave armed through whole campaigns.

   Design notes, because the determinism bar is unusual:

   - Each domain owns one ring (Domain.DLS); the owning domain is the only
     writer, so recording takes no lock and never allocates on the hot path
     (all slots are preallocated unboxed arrays, structure-of-arrays).

   - Events belong to a logical *track* (the campaign seed / job id), not to
     the domain that happened to execute them. A run calls [begin_track]
     before stepping; every event it records carries the track id and a
     per-track sequence number. When a run fails, [capture] walks the ring
     *on the executing domain*, newest first, through the current track's
     sequence numbers, so only this recording of the track id is kept (not
     a retried or earlier run of the same id). Because eviction is
     positional (slot i is simply overwritten), the surviving
     events of track S are always the last [min n_S cap] events S recorded —
     independent of whatever other tracks previously ran on the same domain.
     That is what makes forensics bundles byte-identical whatever [--jobs]
     is: the same seed records the same events in the same order, and the
     capture window depends only on the track's own history.

   - Engine-level events (compile-cache hits/misses, closure compilation)
     are attributed to the pseudo-track [engine_track] = -1. Cache races are
     scheduling-dependent, so they must never leak into a per-run forensics
     bundle.

   - Bundles carry only virtual time (step index, simulated seconds), never
     wall-clock, so byte-comparison across runs and job counts is exact.

   - Host spans (the tool timing itself) are events of the same ring type,
     kept in a second per-domain ring: on the track ring they would move
     the positional eviction that decides what a capture keeps. *)

type kind = Step | Signal | Fault | Engine | Mark | Span

let kind_name = function
  | Step -> "step"
  | Signal -> "signal"
  | Fault -> "fault"
  | Engine -> "engine"
  | Mark -> "mark"
  | Span -> "span"

(* slot encoding: 0 = empty; recorders store 1=step 2=signal 3=fault
   4=engine 5=mark 6=span directly *)
let kind_of_code = function
  | 1 -> Step
  | 2 -> Signal
  | 3 -> Fault
  | 4 -> Engine
  | 5 -> Mark
  | _ -> Span

type event = {
  ev_kind : kind;
  ev_track : int;
  ev_seq : int;  (* per-track sequence number, 0-based *)
  ev_step : int;  (* simulation step index, -1 if not applicable *)
  ev_time : float;  (* simulated seconds; host seconds for a Span *)
  ev_value : float;
  ev_arg : int;  (* port index / fired flag, event-kind specific *)
  ev_label : string;
}

type ring = {
  cap : int;
  kinds : int array;  (* 0 = empty slot *)
  tracks : int array;
  seqs : int array;
  steps : int array;
  times : float array;
  values : float array;
  args : int array;
  labels : string array;
  mutable next : int;  (* next slot to overwrite *)
  mutable track : int;  (* current logical track *)
  mutable track_name : string;
  mutable seq : int;  (* next seq for the current track *)
  mutable eng_seq : int;  (* next seq for the engine pseudo-track *)
}

let engine_track = -1
let on = ref false
let enabled () = !on
let set_enabled b = on := b

(* read at ring creation; set it before any domain records *)
let default_capacity = ref 4096

let ring_create cap =
  {
    cap;
    kinds = Array.make cap 0;
    tracks = Array.make cap 0;
    seqs = Array.make cap 0;
    steps = Array.make cap 0;
    times = Array.make cap 0.0;
    values = Array.make cap 0.0;
    args = Array.make cap 0;
    labels = Array.make cap "";
    next = 0;
    track = 0;
    track_name = "";
    seq = 0;
    eng_seq = 0;
  }

let ring_key = Domain.DLS.new_key (fun () -> ring_create !default_capacity)
let ring () = Domain.DLS.get ring_key

let set_capacity n =
  if n < 1 then invalid_arg "Flight.set_capacity";
  default_capacity := n;
  Domain.DLS.set ring_key (ring_create n)

let capacity () = (ring ()).cap

let begin_track ~id ~name =
  if !on then begin
    let r = ring () in
    r.track <- id;
    r.track_name <- name;
    r.seq <- 0
  end

(* hot path: one bounds check avoided per field via unsafe stores; the slot
   index is (next mod cap) by construction *)
let record r code track seq step time value arg label =
  let i = r.next in
  Array.unsafe_set r.kinds i code;
  Array.unsafe_set r.tracks i track;
  Array.unsafe_set r.seqs i seq;
  Array.unsafe_set r.steps i step;
  Array.unsafe_set r.times i time;
  Array.unsafe_set r.values i value;
  Array.unsafe_set r.args i arg;
  Array.unsafe_set r.labels i label;
  let j = i + 1 in
  r.next <- (if j = r.cap then 0 else j)

let record_track r code step time value arg label =
  let s = r.seq in
  r.seq <- s + 1;
  record r code r.track s step time value arg label

let step_mark ~step ~time label =
  if !on then record_track (ring ()) 1 step time 0.0 0 label

let signal ~step ~time ~port ~value label =
  if !on then record_track (ring ()) 2 step time value port label

(* batched variants: the caller fetched the domain's ring once and
   checked [enabled] itself — per-event cost is then just the stores *)
type recorder = ring

let recorder () = ring ()
let step_mark_r r ~step ~time label = record_track r 1 step time 0.0 0 label

let signal_r r ~step ~time ~port ~value label =
  record_track r 2 step time value port label

let fault ?(step = -1) ~time ~fired label =
  if !on then
    record_track (ring ()) 3 step time 0.0 (if fired then 1 else 0) label

let engine label =
  if !on then begin
    let r = ring () in
    let s = r.eng_seq in
    r.eng_seq <- s + 1;
    record r 4 engine_track s (-1) 0.0 0.0 0 label
  end

let mark ?(step = -1) ?(time = 0.0) ?(value = 0.0) label =
  if !on then record_track (ring ()) 5 step time value 0 label

let event_at r i =
  {
    ev_kind = kind_of_code r.kinds.(i);
    ev_track = r.tracks.(i);
    ev_seq = r.seqs.(i);
    ev_step = r.steps.(i);
    ev_time = r.times.(i);
    ev_value = r.values.(i);
    ev_arg = r.args.(i);
    ev_label = r.labels.(i);
  }

(* -- re-recording a stretch of a track -------------------------------- *)

type segment = {
  sg_from : int;  (* the first seq of the stretch *)
  sg_count : int;  (* events recorded in it *)
  sg_events : ring;  (* those still on the ring, by seq from slot 0 *)
}

let track_seq () = if !on then (ring ()).seq else 0

(* Newest first, so the walk meets this recording's events before any
   an earlier recording of the same track id left on the ring, and stops
   at the first event out of the sequence. The survivors are copied into
   a ring of their own size: unboxed, half the words of event records. *)
let since from =
  if not !on then { sg_from = from; sg_count = 0; sg_events = ring_create 0 }
  else begin
    let r = ring () in
    let slots = ref [] and want = ref (r.seq - 1) and i = ref r.next in
    let walked = ref 0 in
    while !want >= from && !walked < r.cap do
      i := (if !i = 0 then r.cap - 1 else !i - 1);
      if r.kinds.(!i) <> 0 && r.tracks.(!i) = r.track then
        if r.seqs.(!i) = !want then begin
          slots := !i :: !slots;
          decr want
        end
        else want := from - 1;
      incr walked
    done;
    let sg = ring_create (List.length !slots) in
    List.iter
      (fun i ->
        record sg r.kinds.(i) r.tracks.(i) r.seqs.(i) r.steps.(i) r.times.(i)
          r.values.(i) r.args.(i) r.labels.(i))
      !slots;
    { sg_from = from; sg_count = r.seq - from; sg_events = sg }
  end

(* Only the stretch's survivors are written again; the sequence numbers
   still count the evicted ones, so the bundle's dropped count holds. *)
let replay sg =
  if !on && sg.sg_count > 0 then begin
    let r = ring () and e = sg.sg_events in
    let base = r.seq in
    for k = 0 to e.cap - 1 do
      record r e.kinds.(k) r.track
        (base + e.seqs.(k) - sg.sg_from)
        e.steps.(k) e.times.(k) e.values.(k) e.args.(k) e.labels.(k)
    done;
    r.seq <- base + sg.sg_count
  end

(* -- capture ------------------------------------------------------------- *)

type bundle = {
  b_track : int;
  b_name : string;
  b_reason : string;
  b_dropped : int;  (* events of this track evicted before capture *)
  b_events : event list;  (* seq ascending *)
}

let cap_mutex = Mutex.create ()
let cap_tbl : (int, bundle) Hashtbl.t = Hashtbl.create 8

(* A bundle is the current recording of the track, [since 0]: an earlier
   recording of the same id (a retried seed, a serve worker's previous
   job) is never mixed in. First capture per track wins: a run's first
   divergence is the forensic moment; later captures of the same track
   (retries, later failures) are ignored so the bundle is stable. *)
let capture ~reason =
  if !on then begin
    let r = ring () in
    let sg = since 0 in
    let b =
      {
        b_track = r.track;
        b_name = r.track_name;
        b_reason = reason;
        b_dropped = sg.sg_count - sg.sg_events.cap;
        b_events = List.init sg.sg_events.cap (event_at sg.sg_events);
      }
    in
    Mutex.lock cap_mutex;
    if not (Hashtbl.mem cap_tbl b.b_track) then
      Hashtbl.replace cap_tbl b.b_track b;
    Mutex.unlock cap_mutex
  end

let captures () =
  Mutex.lock cap_mutex;
  let l = Hashtbl.fold (fun _ b acc -> b :: acc) cap_tbl [] in
  Mutex.unlock cap_mutex;
  List.sort (fun a b -> compare a.b_track b.b_track) l

let clear_captures () =
  Mutex.lock cap_mutex;
  Hashtbl.reset cap_tbl;
  Mutex.unlock cap_mutex

(* -- host spans ---------------------------------------------------------- *)

(* Spans time the tool itself. Each domain keeps its open spans on a
   fixed stack and records a closed one into its own host ring, created
   on the domain's first span (so a run without Obs allocates none) and
   registered once, under a mutex, so {!spans} can read it after the
   domain has joined. *)

let host_capacity = 8192
let max_depth = 64

type host = {
  hr : ring;  (* track = the domain id, seq = spans closed *)
  stack_name : string array;
  stack_t0 : float array;
  stack_cnt : int array;
  mutable depth : int;
}

let host_mutex = Mutex.create ()
let hosts : host list ref = ref []

let host_key =
  Domain.DLS.new_key (fun () ->
      let hr = ring_create host_capacity in
      hr.track <- (Domain.self () :> int);
      let h =
        {
          hr;
          stack_name = Array.make max_depth "";
          stack_t0 = Array.make max_depth 0.0;
          stack_cnt = Array.make max_depth 0;
          depth = 0;
        }
      in
      Mutex.protect host_mutex (fun () -> hosts := h :: !hosts);
      h)

let host () = Domain.DLS.get host_key

let span_begin name =
  if Obs.enabled () then begin
    let h = host () in
    let d = h.depth in
    if d < max_depth then begin
      h.stack_name.(d) <- name;
      h.stack_cnt.(d) <- 0;
      h.stack_t0.(d) <- Obs.now_ns ()
    end;
    h.depth <- d + 1
  end

(* one Span event: time = start and value = duration, in host seconds;
   step = nesting depth, arg = the bump count *)
let span_end () =
  if Obs.enabled () then begin
    let h = host () in
    if h.depth > 0 then begin
      let d = h.depth - 1 in
      h.depth <- d;
      if d < max_depth then begin
        let t0 = h.stack_t0.(d) in
        record_track h.hr 6 d (t0 *. 1e-9)
          ((Obs.now_ns () -. t0) *. 1e-9)
          h.stack_cnt.(d) h.stack_name.(d)
      end
    end
  end

let span name f =
  if not (Obs.enabled ()) then f ()
  else begin
    span_begin name;
    Fun.protect ~finally:span_end f
  end

let bump n =
  if Obs.enabled () then begin
    let h = host () in
    let d = h.depth - 1 in
    if d >= 0 && d < max_depth then h.stack_cnt.(d) <- h.stack_cnt.(d) + n
  end

(* the last [host_capacity] spans of a host ring, oldest first *)
let host_events h =
  let r = h.hr in
  let n = min r.seq r.cap in
  List.init n (fun k -> event_at r ((r.next - n + k + r.cap) mod r.cap))

let host_rings () =
  List.sort
    (fun a b -> compare a.hr.track b.hr.track)
    (Mutex.protect host_mutex (fun () -> !hosts))

let spans () = List.concat_map host_events (host_rings ())

let reset () =
  clear_captures ();
  Domain.DLS.set ring_key (ring_create !default_capacity);
  List.iter
    (fun h ->
      h.hr.next <- 0;
      h.hr.seq <- 0;
      h.depth <- 0)
    (host_rings ())

(* -- export -------------------------------------------------------------- *)

let event_json e =
  Bench_json.Obj
    [
      ("kind", Bench_json.Str (kind_name e.ev_kind));
      ("track", Bench_json.Int e.ev_track);
      ("seq", Bench_json.Int e.ev_seq);
      ("step", Bench_json.Int e.ev_step);
      ("time", Bench_json.Float e.ev_time);
      ("value", Bench_json.Float e.ev_value);
      ("arg", Bench_json.Int e.ev_arg);
      ("label", Bench_json.Str e.ev_label);
    ]

let bundle_jsonl b buf =
  Buffer.add_string buf
    (Bench_json.to_string
       (Bench_json.Obj
          [
            ("bundle", Bench_json.Int b.b_track);
            ("name", Bench_json.Str b.b_name);
            ("reason", Bench_json.Str b.b_reason);
            ("events", Bench_json.Int (List.length b.b_events));
            ("dropped", Bench_json.Int b.b_dropped);
          ]));
  Buffer.add_char buf '\n';
  List.iter
    (fun e ->
      Buffer.add_string buf (Bench_json.to_string (event_json e));
      Buffer.add_char buf '\n')
    b.b_events

(* one JSONL document for all captured bundles, sorted by track id:
   byte-identical however the tracks were scheduled *)
let captures_jsonl () =
  let buf = Buffer.create 4096 in
  List.iter (fun b -> bundle_jsonl b buf) (captures ());
  Buffer.contents buf

let str s = Bench_json.to_string (Bench_json.Str s)

(* The one Chrome-trace writer (JSON array form): the process metadata,
   then per lane its thread name and events — a Span as a complete ("X")
   event, anything else as an instant event — at microseconds after
   [origin]. *)
let chrome ~process ~origin lanes =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  let first = ref true in
  let emit s =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf s
  in
  emit
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
        \"args\":{%s}}"
       process);
  List.iter
    (fun (tid, lane, events) ->
      emit
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\
            \"args\":{\"name\":%s}}"
           tid (str lane));
      List.iter
        (fun e ->
          let ts = (e.ev_time -. origin) *. 1e6 in
          emit
            (match e.ev_kind with
            | Span ->
                (* host time: nanosecond resolution is all there is *)
                Printf.sprintf
                  "{\"name\":%s,\"cat\":\"span\",\"ph\":\"X\",\"ts\":%.3f,\
                   \"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"depth\":%d,\
                   \"count\":%d}}"
                  (str e.ev_label) ts (e.ev_value *. 1e6) tid e.ev_step
                  e.ev_arg
            | _ ->
                Printf.sprintf
                  "{\"name\":%s,\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\
                   \"ts\":%s,\"pid\":1,\"tid\":%d,\"args\":{\"seq\":%d,\
                   \"step\":%d,\"value\":%s,\"arg\":%d}}"
                  (str e.ev_label) (kind_name e.ev_kind)
                  (Bench_json.float_str ts) tid e.ev_seq e.ev_step
                  (Bench_json.float_str e.ev_value)
                  e.ev_arg))
        events)
    lanes;
  Buffer.add_string buf "]\n";
  Buffer.contents buf

(* bundles: one lane per track (tid = track + 2 keeps tids positive),
   simulated time *)
let captures_chrome () =
  chrome ~process:"\"name\":\"ecsd flight recorder\"" ~origin:0.0
    (List.map
       (fun b ->
         (b.b_track + 2, Printf.sprintf "track %d %s" b.b_track b.b_name,
          b.b_events))
       (captures ()))

(* host spans: one lane per domain, host time from the earliest span,
   which [wall_start] places on the wall clock *)
let spans_chrome () =
  let lanes =
    List.filter_map
      (fun h ->
        match host_events h with
        | [] -> None
        | evs -> Some (h.hr.track, evs))
      (host_rings ())
    |> List.mapi (fun i (dom, evs) ->
           (i + 1, Printf.sprintf "domain %d" dom, evs))
  in
  let now = Obs.now_ns () *. 1e-9 in
  let origin =
    List.fold_left
      (fun acc (_, _, evs) ->
        List.fold_left (fun acc e -> Float.min acc e.ev_time) acc evs)
      now lanes
  in
  chrome
    ~process:
      (Printf.sprintf "\"name\":\"ecsd\",\"wall_start\":%.6f"
         (Unix.gettimeofday () -. (now -. origin)))
    ~origin lanes

let dump path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* Write FLIGHT_<name>.jsonl + FLIGHT_<name>_trace.json when any bundles were
   captured; returns the pair of paths. *)
let write_captures ~prefix =
  if captures () = [] then None
  else begin
    let jsonl_path = prefix ^ ".jsonl" in
    let trace_path = prefix ^ "_trace.json" in
    dump jsonl_path (captures_jsonl ());
    dump trace_path (captures_chrome ());
    Some (jsonl_path, trace_path)
  end

let write_spans ~path = dump path (spans_chrome ())

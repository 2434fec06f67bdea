(* [ecsd serve]: job lines to result records, run on a domain pool (see
   the interface). *)

open Bench_json

type fields = (string * Bench_json.t) list

let usage =
  "faultsim SCENARIO [SEEDS [T_END]]  |  diff MODEL [STEPS [SCENARIO [SEED \
   [ENGINE]]]]  |  stats  (SCENARIO '-' = none; ENGINE \
   compiled|interp|both)"

let exit_code = function
  | Supervise.Timeout _ -> 3
  | Supervise.Crashed (Supervise.Bad_request _) -> 2
  | Supervise.Crashed _ -> 4
  | Supervise.Shed -> 6

let error_fields err =
  [
    ("job", Str (match err with Supervise.Shed -> "shed" | _ -> "error"));
    ("class", Str (Supervise.error_class err));
    ("error", Str (Supervise.error_message err));
    ("exit", Int (exit_code err));
  ]

(* runtime request errors (unknown scenario/model, sizes out of range)
   are bad requests: classified, the worker survives *)
let scenario_or_fail s =
  match Fault_scenario.find s with
  | Ok scn -> scn
  | Error e -> raise (Supervise.Bad_request e)

(* job [id]'s seed [s] records under track [(id + 1) lsl 32 + s]: past
   every job's own track [id], and apart from every other job's seeds *)
let run_faultsim ~config ~id scn_ref seeds t_end =
  let scenario = scenario_or_fail scn_ref in
  let subject, _ = Servo_system.faultsim_subject ~config ~scenario () in
  let r =
    Fault_campaign.run ~t_end ~seeds ~track_base:((id + 1) lsl 32) ~scenario
      subject
  in
  let recovered = Fault_campaign.all_recovered r in
  [
    ("job", Str "faultsim");
    ("scenario", Str r.Fault_campaign.scenario.Fault_scenario.sname);
    ("seeds", Int seeds);
    ("t_end", Float r.Fault_campaign.t_end);
    ("all_detected", Bool (Fault_campaign.all_detected r));
    ("all_recovered", Bool recovered);
    ( "wdog_bites",
      Int
        (List.fold_left
           (fun a x -> a + x.Fault_campaign.wdog_bites)
           0 r.Fault_campaign.runs) );
    ("wall_s", Float r.Fault_campaign.wall_s);
    ("exit", Int (if recovered then 0 else 1));
  ]

let run_diff ~config model steps scn_ref seed engine =
  let scenario = Option.map scenario_or_fail scn_ref in
  match Diff_subject.make ~config ~steps ~engine ?scenario model with
  | Error (Diff_subject.Unknown_model m) ->
      raise (Supervise.Bad_request (Printf.sprintf "unknown model %S" m))
  | Ok subject ->
      let report = Diff_subject.run ~seed subject in
      [
        ("job", Str "diff");
        ("model", Str (Diff_subject.name subject));
        ("engine", Str (Diff_subject.engine_name engine));
        ("steps_run", Int report.Silvm_diff.steps_run);
        ( "scenario",
          match scenario with
          | Some s -> Str s.Fault_scenario.sname
          | None -> Null );
        ( "divergence",
          Diff_subject.divergence_json report.Silvm_diff.divergence );
        ("exit", Int (if report.Silvm_diff.divergence = None then 0 else 1));
      ]

(* Malformed lines are rejected at parse time and never reach the
   supervised envelope; sizes are validated by the campaign driver and
   the diff subject when the job runs. Omitted trailing arguments take
   their defaults. *)
let parse ~config ~id ~stats line =
  let usage what = Error (Printf.sprintf "%s (expected: %s)" what usage) in
  let arg what conv s k =
    match conv s with
    | Some v -> k v
    | None -> usage (Printf.sprintf "bad %s %S" what s)
  in
  let nth args i default = Option.value (List.nth_opt args i) ~default in
  match
    String.split_on_char ' ' line |> List.filter (fun s -> String.trim s <> "")
  with
  | [ "stats" ] -> Ok stats
  | "faultsim" :: scn :: args when List.length args <= 2 ->
      arg "seed count" int_of_string_opt (nth args 0 "5") @@ fun seeds ->
      arg "t_end" float_of_string_opt (nth args 1 "2.0") @@ fun t_end ->
      Ok (fun () -> run_faultsim ~config ~id scn seeds t_end)
  | "diff" :: model :: args when List.length args <= 4 -> (
      arg "step count" int_of_string_opt (nth args 0 "1000") @@ fun steps ->
      let scn = match nth args 1 "-" with "-" -> None | s -> Some s in
      arg "seed" int_of_string_opt (nth args 2 "1") @@ fun seed ->
      let eng = nth args 3 "compiled" in
      match List.assoc_opt eng Diff_subject.engines with
      | Some engine ->
          Ok (fun () -> run_diff ~config model steps scn seed engine)
      | None ->
          usage (Printf.sprintf "bad engine %S (compiled|interp|both)" eng))
  | _ -> usage "bad job line"

let job ?killed ~id ~policy ~config ~stats line =
  Flight.begin_track ~id ~name:line;
  match parse ~config ~id ~stats line with
  | Error msg ->
      error_fields (Supervise.Crashed (Supervise.Bad_request msg))
  | Ok thunk -> (
      (* the supervised envelope: deadline, kill-on-second-signal;
         never raises, so the worker always survives the job *)
      let o = Supervise.supervise ~policy ?killed ~label:line thunk in
      match o.Supervise.result with
      | Ok fields -> fields
      | Error err -> error_fields err)

(* ---- the queue ---- *)

let split data =
  match String.rindex_opt data '\n' with
  | None -> ([], data)
  | Some nl ->
      ( String.split_on_char '\n' (String.sub data 0 nl)
        |> List.map String.trim
        |> List.filter (fun l -> l <> "" && l.[0] <> '#'),
        String.sub data (nl + 1) (String.length data - nl - 1) )

(* [ready] holds the records of finished jobs whose predecessors are
   still running, so the output is a function of the input whatever the
   pool schedule does *)
type emitter = {
  out : string -> unit;
  heartbeat : int;
  t0 : float;
  lock : Mutex.t;
  ready : (int, string) Hashtbl.t;
  mutable next : int;  (* the id output next *)
  mutable pending : int;
}

let emitter ~heartbeat out =
  {
    out;
    heartbeat;
    t0 = Obs.now_ns ();
    lock = Mutex.create ();
    ready = Hashtbl.create 64;
    next = 0;
    pending = 0;
  }

let locked e f = Mutex.protect e.lock (fun () -> f e)
let wall_s e = (Obs.now_ns () -. e.t0) *. 1e-9

(* every completed record is either output or waiting in [ready] *)
let finished e = e.next + Hashtbl.length e.ready

let admit e =
  locked e @@ fun e ->
  e.pending <- e.pending + 1;
  e.pending - 1

let complete e id record =
  locked e @@ fun e ->
  Hashtbl.replace e.ready id record;
  while Hashtbl.mem e.ready e.next do
    e.out (Hashtbl.find e.ready e.next);
    Hashtbl.remove e.ready e.next;
    e.next <- e.next + 1
  done;
  e.pending <- e.pending - 1;
  (* one JSON line among the results, told apart by its "heartbeat"
     field (result lines carry "id") *)
  if e.heartbeat > 0 && finished e mod e.heartbeat = 0 then
    e.out
      (Telemetry.heartbeat_line ~jobs_done:(finished e) ~inflight:e.pending
         ~wall_s:(wall_s e))

let record id fields = to_string (Obj (("id", Int id) :: fields))

let loop ?(draining = Atomic.make false) ?killed ~config ~jobs ~heartbeat
    ~policy ~queue ~out input =
  let e = emitter ~heartbeat out in
  let pool =
    Exec_pool.create ?workers:(if jobs >= 1 then Some jobs else None) ()
  in
  (* a queue job, so it serialises with the real work in submission
     order *)
  let stats () =
    Telemetry.stats ~jobs_done:(locked e finished) ~wall_s:(wall_s e)
  in
  (* a shed record streams back in order like any result, so the client
     sees the backpressure at once and can re-submit *)
  let admit_line id line =
    let backlog = admit e in
    if queue > 0 && backlog >= queue then begin
      Supervise.record_shed ();
      complete e id (record id (error_fields Supervise.Shed))
    end
    else
      Exec_pool.submit pool (fun () ->
          let t_start = Obs.now_ns () in
          let fields = job ?killed ~id ~policy ~config ~stats line in
          Obs.record_named "serve.job_s" ((Obs.now_ns () -. t_start) *. 1e-9);
          (* publish before completing, so the heartbeat taken there
             (and any later `stats` job) sees this job's latency *)
          Obs.publish ();
          complete e id (record id fields))
  in
  let rec admit_all id = function
    | line :: rest when not (Atomic.get draining) ->
        admit_line id line;
        admit_all (id + 1) rest
    | _ -> id
  in
  (* select, so a drain is noticed within 200 ms even with no input
     flowing *)
  let chunk = Bytes.create 4096 in
  let rec read id tail =
    if not (Atomic.get draining) then
      match Unix.select [ input ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read id tail
      | [], _, _ -> read id tail
      | _ -> (
          match Unix.read input chunk 0 (Bytes.length chunk) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> read id tail
          | 0 -> ignore (admit_all id (fst (split (tail ^ "\n"))))
          | n ->
              let lines, tail = split (tail ^ Bytes.sub_string chunk 0 n) in
              read (admit_all id lines) tail)
  in
  read 0 "";
  if Atomic.get draining then begin
    Printf.eprintf
      "draining: intake stopped, %d job(s) in flight (signal again to shed \
       them)\n%!"
      (locked e (fun e -> e.pending));
    (* so the flight bundle records what every job was doing *)
    Flight.capture ~reason:"serve: drain on signal"
  end;
  Exec_pool.shutdown pool

(* One serve request line to its result record (see the interface). *)

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
  | Supervise.Transient _ -> 4
  | Supervise.Poisoned _ -> 5
  | Supervise.Shed -> 6

let error_fields ~job ~attempts err =
  [
    ("job", Str job);
    ("class", Str (Supervise.error_class err));
    ("error", Str (Supervise.error_message err));
    ("attempts", Int attempts);
    ("exit", Int (exit_code err));
  ]

(* runtime request errors (unknown scenario/model, sizes out of range)
   are bad requests: classified, never retried, worker survives *)
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

let run ?killed ~id ~policy ~config ~stats line =
  Flight.begin_track ~id ~name:line;
  match parse ~config ~id ~stats line with
  | Error msg ->
      error_fields ~job:"error" ~attempts:0
        (Supervise.Crashed (Supervise.Bad_request msg))
  | Ok thunk -> (
      (* the supervised envelope: deadline, retry/backoff, chaos,
         kill-on-second-signal; never raises, so the worker always
         survives the job *)
      let o = Supervise.supervise ~policy ?killed ~label:line thunk in
      match o.Supervise.result with
      | Ok fields ->
          if o.Supervise.attempts > 1 then
            fields @ [ ("attempts", Int o.Supervise.attempts) ]
          else fields
      | Error (Supervise.Shed as err) ->
          error_fields ~job:"shed" ~attempts:o.Supervise.attempts err
      | Error err ->
          error_fields ~job:"error" ~attempts:o.Supervise.attempts err)

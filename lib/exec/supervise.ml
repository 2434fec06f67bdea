(* Supervised job execution: the error taxonomy and deadline
   enforcement.

   Campaigns and `ecsd serve` wrap every job in [supervise]: the job
   runs under a {!Cancel} token (its deadline polled at the engines'
   step-loop fuel points), and every failure is classified into the
   taxonomy instead of escaping -- one raising seed can no longer abort
   a whole campaign, and a wedged serve job dies at its deadline with
   the worker surviving to take the next job.

   A job is a deterministic simulation: a seed that fails once fails
   the same way on every attempt, so there is no retry. Only deadline
   expiry depends on the wall clock.

   The module is named [Supervise] (not [Supervisor]) because the
   PEERT layer already owns the top-level [Supervisor] module -- the
   generated safe-state statechart -- and every library here builds
   with (wrapped false). *)

type error = Timeout of float | Crashed of exn | Shed

exception Bad_request of string

let error_class = function
  | Timeout _ -> "timeout"
  | Crashed (Bad_request _) -> "bad_request"
  | Crashed _ -> "crashed"
  | Shed -> "shed"

let error_message = function
  | Timeout d -> Printf.sprintf "deadline of %gs exceeded" d
  | Crashed (Bad_request msg) -> msg
  | Crashed e -> Printexc.to_string e
  | Shed -> "shed by backpressure or shutdown"

type policy = { deadline_s : float option }

let default_policy = { deadline_s = None }

type 'a outcome = { result : ('a, error) result }

let c_timeouts = Obs.counter "supervisor.timeouts"
let c_crashes = Obs.counter "supervisor.crashes"
let c_shed = Obs.counter "supervisor.shed"

let record_shed () = Obs.add c_shed 1

let supervise ?(policy = default_policy) ?killed ~label f =
  let tok = Cancel.make ?deadline_s:policy.deadline_s ?killed () in
  match Cancel.with_token tok f with
  | v -> { result = Ok v }
  | exception Cancel.Cancelled Cancel.Deadline ->
      Obs.add c_timeouts 1;
      Flight.mark (label ^ ": timeout");
      { result = Error (Timeout (Option.value policy.deadline_s ~default:0.0)) }
  | exception Cancel.Cancelled Cancel.Killed ->
      Obs.add c_shed 1;
      { result = Error Shed }
  | exception e ->
      Obs.add c_crashes 1;
      Flight.mark (label ^ ": crashed");
      { result = Error (Crashed e) }

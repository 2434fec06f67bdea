(* Supervised job execution: the error taxonomy, deadline enforcement,
   bounded retry with deterministic backoff, and the seeded
   orchestrator-chaos injector.

   Campaigns and `ecsd serve` wrap every job in [supervise]: the job
   runs under a {!Cancel} token (its deadline polled at the engines'
   step-loop fuel points), transient failures are retried with
   exponential backoff and seeded jitter, repeat offenders are
   quarantined as [Poisoned], and everything else is classified into
   the taxonomy instead of escaping -- one raising seed can no longer
   abort a whole campaign, and a wedged serve job dies at its deadline
   with the worker surviving to take the next job.

   Everything that influences a job's *outcome* is a deterministic
   function of (seed/label, attempt): chaos decisions and jitter come
   from a splitmix64 hash, never from wall clock or scheduling, so a
   supervised campaign report is byte-identical whatever --jobs is.
   Only wall-clock effects (actual backoff sleeps, deadline expiry)
   are nondeterministic, and those never feed report bytes.

   The module is named [Supervise] (not [Supervisor]) because the
   PEERT layer already owns the top-level [Supervisor] module -- the
   generated safe-state statechart -- and every library here builds
   with (wrapped false). *)

type error =
  | Timeout of float  (** the per-attempt deadline, seconds *)
  | Crashed of exn
  | Transient of string  (** transient failure with no retry budget *)
  | Poisoned of { attempts : int; last : string }
      (** quarantined: still transient after every allowed attempt *)
  | Shed  (** refused admission or killed by shutdown *)

exception Transient_failure of string
exception Bad_request of string

let error_class = function
  | Timeout _ -> "timeout"
  | Crashed (Bad_request _) -> "bad_request"
  | Crashed _ -> "crashed"
  | Transient _ -> "transient"
  | Poisoned _ -> "poisoned"
  | Shed -> "shed"

let error_message = function
  | Timeout d -> Printf.sprintf "deadline of %gs exceeded" d
  | Crashed (Bad_request msg) -> msg
  | Crashed e -> Printexc.to_string e
  | Transient msg -> msg
  | Poisoned { attempts; last } ->
      Printf.sprintf "quarantined after %d attempts: %s" attempts last
  | Shed -> "shed by backpressure or shutdown"

type policy = {
  deadline_s : float option;
  retries : int;
  backoff_base_s : float;
  backoff_max_s : float;
  jitter_seed : int;
}

let default_policy =
  {
    deadline_s = None;
    retries = 2;
    backoff_base_s = 0.01;
    backoff_max_s = 0.5;
    jitter_seed = 1;
  }

type 'a outcome = { result : ('a, error) result; attempts : int }

(* ---- deterministic randomness: splitmix64 over (seed, label, attempt).
   [Hashtbl.hash] on strings is deterministic for a given runtime, and
   the same hash is computed on every domain, so decisions derived here
   cannot depend on scheduling. ---- *)

(* uniform in [0,1), 53 mantissa bits *)
let rand_unit ~seed ~label ~attempt =
  let z =
    Int64.add
      (Int64.mul (Int64.of_int seed) 0x9e3779b97f4a7c15L)
      (Int64.of_int ((Hashtbl.hash label * 2654435761) + attempt))
  in
  Splitmix.unit_float (Splitmix.mix z)

let backoff_s policy ~label ~attempt =
  let nominal =
    Float.min policy.backoff_max_s
      (policy.backoff_base_s *. Float.pow 2.0 (float_of_int attempt))
  in
  (* jitter in [0.5, 1.5) x nominal: desynchronises retry herds while
     staying reproducible from (jitter_seed, label, attempt) *)
  Float.min policy.backoff_max_s
    (nominal *. (0.5 +. rand_unit ~seed:policy.jitter_seed ~label ~attempt))

(* ---- orchestrator chaos: the fault taxonomy turned on the executor
   itself. Seeded by ECSD_CHAOS_SEED (rate ECSD_CHAOS_RATE, default
   0.2); every injection decision is a pure function of (seed, label,
   attempt). ---- *)

module Chaos = struct
  type kind = Worker_crash | Job_delay | Spurious_transient

  let kind_name = function
    | Worker_crash -> "worker-crash"
    | Job_delay -> "job-delay"
    | Spurious_transient -> "spurious-transient"

  exception Chaos_crash of string

  (* None = env not read yet; Some None = chaos off *)
  let cfg : (int * float) option option ref = ref None

  let configure ~seed ~rate =
    if rate < 0.0 || rate > 1.0 then
      invalid_arg "Supervise.Chaos.configure: rate must be in [0,1]";
    cfg := Some (Some (seed, rate))

  let disable () = cfg := Some None

  let config () =
    match !cfg with
    | Some c -> c
    | None ->
        let c =
          match Sys.getenv_opt "ECSD_CHAOS_SEED" with
          | None | Some "" -> None
          | Some s -> (
              match int_of_string_opt s with
              | None ->
                  invalid_arg
                    (Printf.sprintf "ECSD_CHAOS_SEED must be an integer, got %S"
                       s)
              | Some seed ->
                  let rate =
                    match Sys.getenv_opt "ECSD_CHAOS_RATE" with
                    | None | Some "" -> 0.2
                    | Some r -> (
                        match float_of_string_opt r with
                        | Some f when f >= 0.0 && f <= 1.0 -> f
                        | _ ->
                            invalid_arg
                              (Printf.sprintf
                                 "ECSD_CHAOS_RATE must be a float in [0,1], \
                                  got %S"
                                 r))
                  in
                  Some (seed, rate))
        in
        cfg := Some c;
        c

  let enabled () = config () <> None

  let decide ~label ~attempt =
    match config () with
    | None -> None
    | Some (seed, rate) ->
        (* distinct streams for the gate and the class pick, both
           disjoint from the backoff jitter stream *)
        if rand_unit ~seed:((seed * 3) + 1) ~label ~attempt >= rate then None
        else
          let v = rand_unit ~seed:((seed * 5) + 2) ~label ~attempt in
          if v < 0.4 then Some Job_delay
          else if v < 0.8 then Some Spurious_transient
          else Some Worker_crash

  let c_injected = Obs.counter "chaos.injected"

  (* run [f] through this attempt's chaos decision: a delay stalls the
     job (exercising deadlines and queue depth without changing its
     result), a spurious transient exercises the retry path, a worker
     crash exercises Crashed recording *)
  let apply ~label ~attempt f =
    match decide ~label ~attempt with
    | None -> f ()
    | Some k -> (
        Obs.add c_injected 1;
        Flight.mark (Printf.sprintf "chaos:%s attempt %d" (kind_name k) attempt);
        match k with
        | Job_delay ->
            Unix.sleepf
              (0.001 +. (0.004 *. rand_unit ~seed:7 ~label ~attempt));
            f ()
        | Spurious_transient ->
            raise
              (Transient_failure
                 (Printf.sprintf "chaos: spurious transient failure (attempt %d)"
                    attempt))
        | Worker_crash ->
            raise (Chaos_crash (Printf.sprintf "chaos: worker crash in %s" label)))
end

(* ---- the supervised run ---- *)

let c_retries = Obs.counter "supervisor.retries"
let c_timeouts = Obs.counter "supervisor.timeouts"
let c_crashes = Obs.counter "supervisor.crashes"
let c_transients = Obs.counter "supervisor.transients"
let c_poisoned = Obs.counter "supervisor.poisoned"
let c_shed = Obs.counter "supervisor.shed"
let h_backoff = Obs.hist "supervisor.backoff_s"

let record_shed () = Obs.add c_shed 1

let supervise ?(policy = default_policy) ?killed ~label f =
  let rec attempt k =
    match
      (* a fresh token per attempt: the deadline budgets one attempt,
         not the retry chain *)
      let tok = Cancel.make ?deadline_s:policy.deadline_s ?killed () in
      Cancel.with_token tok (fun () -> Chaos.apply ~label ~attempt:k f)
    with
    | v -> { result = Ok v; attempts = k + 1 }
    | exception Cancel.Cancelled Cancel.Deadline ->
        Obs.add c_timeouts 1;
        Flight.mark (label ^ ": timeout");
        {
          result = Error (Timeout (Option.value policy.deadline_s ~default:0.0));
          attempts = k + 1;
        }
    | exception Cancel.Cancelled Cancel.Killed ->
        Obs.add c_shed 1;
        { result = Error Shed; attempts = k + 1 }
    | exception Transient_failure msg ->
        Obs.add c_transients 1;
        if k < policy.retries then begin
          Obs.add c_retries 1;
          let d = backoff_s policy ~label ~attempt:k in
          Obs.record h_backoff d;
          Flight.mark (Printf.sprintf "%s: retry %d after %.3fs" label (k + 1) d);
          Unix.sleepf d;
          attempt (k + 1)
        end
        else if k = 0 then { result = Error (Transient msg); attempts = 1 }
        else begin
          Obs.add c_poisoned 1;
          Flight.mark (label ^ ": poisoned");
          { result = Error (Poisoned { attempts = k + 1; last = msg }); attempts = k + 1 }
        end
    | exception e ->
        Obs.add c_crashes 1;
        Flight.mark (label ^ ": crashed");
        { result = Error (Crashed e); attempts = k + 1 }
  in
  attempt 0

(* Cooperative cancellation for long-running jobs.

   A token carries an absolute deadline and a shared kill flag; the
   step loops of the execution engines ([Sim.step], [Silvm_app.step],
   the campaign runner) call {!poll} once per step -- their natural
   fuel points -- and a supervisor installs a token around the job with
   {!with_token}. Cancellation is therefore cooperative and prompt to
   within one step, which is exactly the granularity at which the
   engines can be abandoned without corrupting shared state: between
   steps every mutable structure they touch is domain-local and
   reset-able.

   Cost discipline matches the rest of ecsd_obs: with no token
   installed, {!poll} is one domain-local read and a branch; with a
   token it adds an atomic load of the kill flag, and the monotonic
   clock is consulted only every [fuel_quantum] polls, so even the
   sub-microsecond compiled-SIL step loop stays under the supervision
   overhead budget. *)

type reason = Deadline | Killed

exception Cancelled of reason

type token = {
  deadline_ns : float;  (* absolute, Obs.now_ns scale; infinity = none *)
  killed : bool Atomic.t;
  mutable fuel : int;  (* polls until the next clock check *)
}

(* 64 polls per clock read: at the compiled engine's ~1 us step this
   bounds deadline-detection latency to well under a millisecond while
   amortising the clock read to noise *)
let fuel_quantum = 64

let make ?deadline_s ?killed () =
  {
    deadline_ns =
      (match deadline_s with
      | Some d when d > 0.0 -> Obs.now_ns () +. (d *. 1e9)
      | _ -> infinity);
    killed = (match killed with Some k -> k | None -> Atomic.make false);
    fuel = fuel_quantum;
  }

let kill t = Atomic.set t.killed true

(* the ambient token of the calling domain, if any *)
let key : token option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let check t =
  if Atomic.get t.killed then raise (Cancelled Killed);
  if t.deadline_ns < infinity then begin
    t.fuel <- t.fuel - 1;
    if t.fuel <= 0 then begin
      t.fuel <- fuel_quantum;
      if Obs.now_ns () > t.deadline_ns then raise (Cancelled Deadline)
    end
  end

let poll () =
  match !(Domain.DLS.get key) with None -> () | Some t -> check t

let with_token t f =
  let slot = Domain.DLS.get key in
  let saved = !slot in
  slot := Some t;
  Fun.protect ~finally:(fun () -> slot := saved) f

let active () = !(Domain.DLS.get key) <> None

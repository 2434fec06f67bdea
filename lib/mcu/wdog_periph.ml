type t = {
  machine : Machine.t;
  timeout_cycles : int;
  mutable active : bool;
  mutable epoch : int;
  mutable bite_cb : unit -> unit;
  mutable bite_count : int;
  bite : Machine.event;  (* its argument: the epoch it was armed in *)
}

let arm t =
  t.epoch <- t.epoch + 1;
  Machine.schedule t.machine ~after:t.timeout_cycles t.bite t.epoch

(* only the newest arming may bite; refreshes invalidate the rest *)
let on_bite_event t epoch =
  if t.active && t.epoch = epoch then begin
    t.bite_count <- t.bite_count + 1;
    t.bite_cb ();
    if t.active then arm t
  end

let create machine ~timeout () =
  if timeout <= 0.0 then invalid_arg "Wdog_periph.create: timeout";
  (* the handler needs the watchdog, the watchdog its event *)
  let fire = ref ignore in
  let t =
    {
      machine;
      timeout_cycles = Machine.cycles_of_time machine timeout;
      active = false;
      epoch = 0;
      bite_cb = (fun () -> ());
      bite_count = 0;
      bite = Machine.on_event machine (fun epoch -> !fire epoch);
    }
  in
  fire := on_bite_event t;
  t

let enable t =
  if not t.active then begin
    t.active <- true;
    arm t
  end

let disable t =
  t.active <- false;
  t.epoch <- t.epoch + 1

let refresh t = if t.active then arm t
let on_bite t f = t.bite_cb <- f
let bites t = t.bite_count
let enabled t = t.active
let timeout_cycles t = t.timeout_cycles

let save t =
  let active = t.active and epoch = t.epoch and bite_count = t.bite_count in
  fun () ->
    t.active <- active;
    t.epoch <- epoch;
    t.bite_count <- bite_count

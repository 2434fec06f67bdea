type t = {
  machine : Machine.t;
  baud : int;
  byte_cycles : int;  (* one 10-bit frame *)
  tx_fifo : int array;  (* a ring of the queued bytes *)
  mutable tx_head : int;
  mutable tx_count : int;
  mutable tx_shifting : bool;
  mutable tx_wire : int -> unit;
  mutable rx_cb : int -> unit;
  mutable rx_data : int;
  mutable rx_full : bool;
  mutable rx_overruns : int;
  mutable tx_lost : int;
  tx_done : Machine.event;  (* its argument: the byte that left *)
  rx_done : Machine.event;  (* its argument: the byte that arrived *)
}

let shift_next t =
  if t.tx_count = 0 then t.tx_shifting <- false
  else begin
    let byte = t.tx_fifo.(t.tx_head) in
    t.tx_head <- (t.tx_head + 1) mod Array.length t.tx_fifo;
    t.tx_count <- t.tx_count - 1;
    t.tx_shifting <- true;
    Machine.schedule t.machine ~after:t.byte_cycles t.tx_done byte
  end

(* the frame is now fully on the wire *)
let on_tx_done t byte =
  t.tx_wire byte;
  shift_next t

let on_rx_done t b =
  if t.rx_full then t.rx_overruns <- t.rx_overruns + 1;
  t.rx_data <- b land 0xFF;
  t.rx_full <- true;
  t.rx_cb t.rx_data

let create machine ?(fifo_depth = 64) ~baud () =
  if baud <= 0 then invalid_arg "Sci_periph.create: baud";
  (* the handlers need the channel, the channel its events *)
  let tx = ref ignore and rx = ref ignore in
  let t =
    {
      machine;
      baud;
      byte_cycles =
        (let f_cpu = (Machine.traits machine).Mcu_db.f_cpu_hz in
         int_of_float (Float.round (10.0 /. float_of_int baud *. f_cpu)));
      tx_fifo = Array.make fifo_depth 0;
      tx_head = 0;
      tx_count = 0;
      tx_shifting = false;
      tx_wire = (fun _ -> ());
      rx_cb = (fun _ -> ());
      rx_data = 0;
      rx_full = false;
      rx_overruns = 0;
      tx_lost = 0;
      tx_done = Machine.on_event machine (fun b -> !tx b);
      rx_done = Machine.on_event machine (fun b -> !rx b);
    }
  in
  tx := on_tx_done t;
  rx := on_rx_done t;
  t

let baud t = t.baud
let byte_cycles t = t.byte_cycles
let byte_seconds t = 10.0 /. float_of_int t.baud
let on_tx_byte t f = t.tx_wire <- f

let send_byte t b =
  if b < 0 || b > 255 then invalid_arg "Sci_periph.send_byte: byte range";
  let depth = Array.length t.tx_fifo in
  if t.tx_count >= depth then begin
    t.tx_lost <- t.tx_lost + 1;
    false
  end
  else begin
    t.tx_fifo.((t.tx_head + t.tx_count) mod depth) <- b;
    t.tx_count <- t.tx_count + 1;
    if not t.tx_shifting then shift_next t;
    true
  end

let send_sub t buf ~pos ~len =
  let sent = ref 0 in
  for i = pos to pos + len - 1 do
    if send_byte t (Bytes.get_uint8 buf i) then incr sent
  done;
  !sent

let tx_busy t = t.tx_shifting || t.tx_count > 0
let tx_lost t = t.tx_lost
let deliver_byte t b = Machine.schedule t.machine ~after:t.byte_cycles t.rx_done b
let on_rx t f = t.rx_cb <- f

let read_data t =
  t.rx_full <- false;
  t.rx_data

let rx_overruns t = t.rx_overruns

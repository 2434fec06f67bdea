type t = {
  machine : Machine.t;
  baud : int;
  fifo_depth : int;
  tx_fifo : int Queue.t;
  mutable tx_shifting : bool;
  mutable tx_wire : int -> unit;
  mutable rx_cb : int -> unit;
  mutable rx_data : int;
  mutable rx_full : bool;
  mutable rx_overruns : int;
  mutable tx_lost : int;
}

let create machine ?(fifo_depth = 64) ~baud () =
  if baud <= 0 then invalid_arg "Sci_periph.create: baud";
  {
    machine;
    baud;
    fifo_depth;
    tx_fifo = Queue.create ();
    tx_shifting = false;
    tx_wire = (fun _ -> ());
    rx_cb = (fun _ -> ());
    rx_data = 0;
    rx_full = false;
    rx_overruns = 0;
    tx_lost = 0;
  }

let baud t = t.baud

let byte_cycles t =
  let f_cpu = (Machine.traits t.machine).Mcu_db.f_cpu_hz in
  int_of_float (Float.round (10.0 /. float_of_int t.baud *. f_cpu))

let byte_seconds t = 10.0 /. float_of_int t.baud

let rec shift_next t =
  match Queue.take_opt t.tx_fifo with
  | None -> t.tx_shifting <- false
  | Some byte ->
      t.tx_shifting <- true;
      Machine.schedule t.machine ~after:(byte_cycles t) (fun () ->
          (* the frame is now fully on the wire *)
          t.tx_wire byte;
          shift_next t)

let on_tx_byte t f = t.tx_wire <- f

let send_byte t b =
  if b < 0 || b > 255 then invalid_arg "Sci_periph.send_byte: byte range";
  if Queue.length t.tx_fifo >= t.fifo_depth then begin
    t.tx_lost <- t.tx_lost + 1;
    false
  end
  else begin
    Queue.add b t.tx_fifo;
    if not t.tx_shifting then shift_next t;
    true
  end

let send_bytes t bytes =
  List.fold_left (fun acc b -> if send_byte t b then acc + 1 else acc) 0 bytes

let tx_busy t = t.tx_shifting || not (Queue.is_empty t.tx_fifo)
let tx_lost t = t.tx_lost

let deliver_byte t b =
  Machine.schedule t.machine ~after:(byte_cycles t) (fun () ->
      if t.rx_full then t.rx_overruns <- t.rx_overruns + 1;
      t.rx_data <- b land 0xFF;
      t.rx_full <- true;
      t.rx_cb t.rx_data)

let on_rx t f = t.rx_cb <- f

let read_data t =
  t.rx_full <- false;
  t.rx_data

let rx_overruns t = t.rx_overruns

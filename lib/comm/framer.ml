(* link-level metrics, aggregated over every framer in the process *)
let c_rx_bytes = Obs.counter "comm.rx_bytes"
let c_frames_ok = Obs.counter "comm.frames_ok"
let c_crc_errors = Obs.counter "comm.crc_errors"
let c_dropped_bytes = Obs.counter "comm.dropped_bytes"

type state = Hunting | In_frame | In_escape

type t = {
  on_packet : Packet.t -> unit;
  mutable state : state;
  buf : Bytes.t;  (* the unstuffed frame so far: header, payload, CRC *)
  mutable count : int;
  mutable expected : int;  (* the frame's length once the header is in, else -1 *)
  frame : Packet.t;  (* what [on_packet] receives *)
  mutable crc_errors : int;
  mutable dropped : int;
  mutable ok : int;
}

let create ~on_packet =
  {
    on_packet;
    state = Hunting;
    buf = Bytes.create (3 + Packet.max_payload + 2);
    count = 0;
    expected = -1;
    frame = Packet.create ();
    crc_errors = 0;
    dropped = 0;
    ok = 0;
  }

let restart t =
  t.count <- 0;
  t.expected <- -1

let finish_frame t =
  restart t;
  t.state <- Hunting;
  let len = Bytes.get_uint8 t.buf 2 in
  if Crc16.of_sub t.buf ~pos:0 ~len:(3 + len) = Bytes.get_uint16_be t.buf (3 + len)
  then begin
    t.ok <- t.ok + 1;
    Obs.add c_frames_ok 1;
    let f = t.frame in
    f.Packet.ptype <- Bytes.get_uint8 t.buf 0;
    f.Packet.seq <- Bytes.get_uint8 t.buf 1;
    f.Packet.len <- len;
    Bytes.blit t.buf 3 f.Packet.payload 0 len;
    t.on_packet f
  end
  else begin
    t.crc_errors <- t.crc_errors + 1;
    Obs.add c_crc_errors 1
  end

let accept t byte =
  Bytes.set_uint8 t.buf t.count byte;
  t.count <- t.count + 1;
  (* the third header byte is the payload length; the frame is complete at
     3 + len + 2 unstuffed bytes *)
  if t.count = 3 then t.expected <- 3 + byte + 2;
  if t.count = t.expected then finish_frame t

let feed t byte =
  let byte = byte land 0xFF in
  Obs.add c_rx_bytes 1;
  match t.state with
  | Hunting ->
      if byte = Packet.sof then begin
        t.state <- In_frame;
        restart t
      end
      else begin
        t.dropped <- t.dropped + 1;
        Obs.add c_dropped_bytes 1
      end
  | In_frame ->
      if byte = Packet.sof then begin
        (* unterminated frame: count it lost, resynchronise *)
        if t.count > 0 then begin
          t.crc_errors <- t.crc_errors + 1;
          Obs.add c_crc_errors 1
        end;
        t.state <- In_frame;
        restart t
      end
      else if byte = Packet.esc then t.state <- In_escape
      else accept t byte
  | In_escape ->
      t.state <- In_frame;
      accept t (byte lxor 0x20)

let feed_sub t buf ~pos ~len =
  for i = pos to pos + len - 1 do
    feed t (Bytes.get_uint8 buf i)
  done

let feed_all t buf = feed_sub t buf ~pos:0 ~len:(Bytes.length buf)
let crc_errors t = t.crc_errors
let dropped_bytes t = t.dropped
let packets_ok t = t.ok

let reset t =
  t.state <- Hunting;
  restart t

type t = {
  mutable ptype : int;
  mutable seq : int;
  mutable len : int;
  payload : Bytes.t;
}

let sof = 0x7E
let esc = 0x7D
let ptype_sensor = 0x01
let ptype_actuator = 0x02
let ptype_event = 0x03
let ptype_sync = 0x04
let max_payload = 255

(* SOF, then every header, payload and CRC byte stuffed *)
let max_wire = 1 + (2 * (3 + max_payload + 2))

let create () =
  { ptype = 0; seq = 0; len = 0; payload = Bytes.make max_payload '\000' }

let make ~ptype ~seq s =
  let n = String.length s in
  if n > max_payload then invalid_arg "Packet.make: payload too long";
  let p = create () in
  p.ptype <- ptype;
  p.seq <- seq;
  p.len <- n;
  Bytes.blit_string s 0 p.payload 0 n;
  p

let blit ~src ~dst =
  dst.ptype <- src.ptype;
  dst.seq <- src.seq;
  dst.len <- src.len;
  Bytes.blit src.payload 0 dst.payload 0 src.len

let check_byte b =
  if b < 0 || b > 255 then invalid_arg "Packet: byte out of range"

(* write a frame byte at [o], escaped if it is a flag; the next offset *)
let put buf o b =
  if b = sof || b = esc then begin
    Bytes.set_uint8 buf o esc;
    Bytes.set_uint8 buf (o + 1) (b lxor 0x20);
    o + 2
  end
  else begin
    Bytes.set_uint8 buf o b;
    o + 1
  end

(* the CRC of the header and payload *)
let crc p =
  let c = ref Crc16.init in
  c := Crc16.update !c p.ptype;
  c := Crc16.update !c p.seq;
  c := Crc16.update !c p.len;
  for i = 0 to p.len - 1 do
    c := Crc16.update !c (Bytes.get_uint8 p.payload i)
  done;
  !c

let encode_into p buf =
  check_byte p.ptype;
  check_byte p.seq;
  if p.len < 0 || p.len > max_payload then
    invalid_arg "Packet.encode: payload too long";
  Bytes.set_uint8 buf 0 sof;
  let o = ref 1 in
  o := put buf !o p.ptype;
  o := put buf !o p.seq;
  o := put buf !o p.len;
  for i = 0 to p.len - 1 do
    o := put buf !o (Bytes.get_uint8 p.payload i)
  done;
  let crc = crc p in
  o := put buf !o ((crc lsr 8) land 0xFF);
  put buf !o (crc land 0xFF)

let encode p =
  let buf = Bytes.create max_wire in
  Bytes.sub buf 0 (encode_into p buf)

let wire_length p = encode_into p (Bytes.create max_wire)

let set_u16 p off v = Bytes.set_uint16_be p.payload off (v land 0xFFFF)

let get_u16 p off =
  if off < 0 || off + 2 > p.len then
    invalid_arg "Packet.get_u16: payload too short";
  Bytes.get_uint16_be p.payload off

let u16_to_signed v = if v land 0x8000 <> 0 then v - 0x10000 else v
let signed_to_u16 v = v land 0xFFFF

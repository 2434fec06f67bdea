(* PIL link: CRC, packet framing, receive state machine. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_crc_known_vector () =
  (* CRC-16/CCITT-FALSE of "123456789" is 0x29B1 *)
  check_int "check value" 0x29B1 (Crc16.of_string "123456789")

let bytes l = Bytes.of_seq (Seq.map Char.chr (List.to_seq l))
let pkt ptype seq payload = Packet.make ~ptype ~seq (Bytes.to_string (bytes payload))
let ints p = List.init p.Packet.len (fun i -> Bytes.get_uint8 p.Packet.payload i)

let same p q =
  p.Packet.ptype = q.Packet.ptype && p.Packet.seq = q.Packet.seq && ints p = ints q

(* the framer hands out its own frame: keep a copy *)
let copy p =
  let c = Packet.create () in
  Packet.blit ~src:p ~dst:c;
  c

let test_crc_sensitivity () =
  let a = Crc16.of_string "\001\002\003" and b = Crc16.of_string "\001\002\004" in
  check_bool "differs on single bit" true (a <> b);
  let c = Crc16.of_string "\002\001\003" in
  check_bool "order sensitive" true (a <> c)

let roundtrip pkt =
  let got = ref None in
  let f = Framer.create ~on_packet:(fun p -> got := Some (copy p)) in
  Framer.feed_all f (Packet.encode pkt);
  !got

let test_packet_roundtrip () =
  let pkt = pkt Packet.ptype_sensor 7 [ 1; 2; 250 ] in
  match roundtrip pkt with
  | Some p ->
      check_int "type" pkt.Packet.ptype p.Packet.ptype;
      check_int "seq" pkt.Packet.seq p.Packet.seq;
      Alcotest.(check (list int)) "payload" (ints pkt) (ints p)
  | None -> Alcotest.fail "no packet decoded"

let test_stuffing_roundtrip () =
  (* payload containing both the flag and the escape byte *)
  let pkt = pkt Packet.ptype_actuator 0x7E [ 0x7E; 0x7D; 0x00; 0x7E ] in
  let wire = Packet.encode pkt in
  (* no unescaped flags after the first byte *)
  check_bool "no inner SOF" true
    (not (Bytes.contains_from wire 1 (Char.chr Packet.sof)));
  match roundtrip pkt with
  | Some p -> Alcotest.(check (list int)) "payload" (ints pkt) (ints p)
  | None -> Alcotest.fail "no packet decoded"

let test_corruption_detected () =
  let pkt = pkt 1 1 [ 10; 20; 30 ] in
  let wire = Packet.encode pkt in
  (* flip a payload bit *)
  let corrupted = Bytes.copy wire in
  Bytes.set_uint8 corrupted 5 (Bytes.get_uint8 wire 5 lxor 0x40);
  let got = ref None in
  let f = Framer.create ~on_packet:(fun p -> got := Some p) in
  Framer.feed_all f corrupted;
  check_bool "dropped" true (!got = None);
  check_int "crc error counted" 1 (Framer.crc_errors f)

let test_resync_after_garbage () =
  let pkt = pkt 2 9 [ 5 ] in
  let got = ref 0 in
  let f = Framer.create ~on_packet:(fun _ -> incr got) in
  Framer.feed_all f (bytes [ 0x12; 0x34; 0x56 ]);
  Framer.feed_all f (Packet.encode pkt);
  check_int "recovered" 1 !got;
  check_int "garbage counted" 3 (Framer.dropped_bytes f)

let test_back_to_back_packets () =
  let p1 = pkt 1 1 [ 1; 2 ] in
  let p2 = pkt 2 2 [ 3; 4 ] in
  let got = ref [] in
  let f = Framer.create ~on_packet:(fun p -> got := copy p :: !got) in
  Framer.feed_all f (Bytes.cat (Packet.encode p1) (Packet.encode p2));
  check_int "both decoded" 2 (List.length !got);
  check_int "ok counter" 2 (Framer.packets_ok f)

let test_truncated_frame_resync () =
  let p1 = pkt 1 1 [ 1; 2; 3; 4 ] in
  let wire = Packet.encode p1 in
  let truncated = Bytes.sub wire 0 (Bytes.length wire - 3) in
  let got = ref 0 in
  let f = Framer.create ~on_packet:(fun _ -> incr got) in
  Framer.feed_all f truncated;
  (* a fresh complete frame right after must still decode *)
  Framer.feed_all f (Packet.encode p1);
  check_int "recovered after truncation" 1 !got

let test_payload_helpers () =
  let p = Packet.create () in
  Bytes.set_uint8 p.Packet.payload 0 0xAB;
  Packet.set_u16 p 1 0x11234;
  p.Packet.len <- 3;
  Alcotest.(check (list int))
    "layout, masked to 16 bits" [ 0xAB; 0x12; 0x34 ] (ints p);
  check_int "u16" 0x1234 (Packet.get_u16 p 1);
  check_bool "reads stop at len" true
    (match Packet.get_u16 p 2 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_int "signed" (-1) (Packet.u16_to_signed 0xFFFF);
  check_int "unsigned" 0xFFFF (Packet.signed_to_u16 (-1))

let test_encode_validation () =
  (match Packet.encode (pkt 300 0 [ 1 ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "byte range unchecked");
  (match Packet.make ~ptype:1 ~seq:0 (String.make 300 '\000') with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "payload length unchecked");
  let p = Packet.create () in
  p.Packet.len <- 300;
  match Packet.encode p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "payload length unchecked at encode"

let test_wire_length () =
  let pkt = pkt 1 0 [ 1; 2; 3; 4 ] in
  (* SOF + type + seq + len + 4 payload + 2 crc = 10 when nothing stuffs *)
  check_bool "at least raw size" true (Packet.wire_length pkt >= 10)

let gen_packet =
  QCheck2.Gen.(
    let* ptype = int_range 0 255 in
    let* seq = int_range 0 255 in
    let* payload = list_size (int_range 0 64) (int_range 0 255) in
    return (pkt ptype seq payload))

let prop_roundtrip =
  QCheck2.Test.make ~name:"encode/decode roundtrip for arbitrary packets"
    ~count:300 gen_packet (fun pkt ->
      match roundtrip pkt with
      | Some p ->
          p.Packet.ptype = pkt.Packet.ptype
          && p.Packet.seq = pkt.Packet.seq
          && ints p = ints pkt
      | None -> false)

let prop_byte_at_a_time =
  QCheck2.Test.make ~name:"framer is incremental (byte-at-a-time = batch)"
    ~count:100 gen_packet (fun pkt ->
      let got = ref None in
      let f = Framer.create ~on_packet:(fun p -> got := Some (copy p)) in
      Bytes.iter (fun b -> Framer.feed f (Char.code b)) (Packet.encode pkt);
      match !got with Some p -> same p pkt | None -> false)

(* ---- fault injection through the Faulty channel wrapper ---- *)

(* payload derived from the sequence number, so a delivered packet can
   be checked against what was actually sent *)
let pattern_packet seq =
  pkt Packet.ptype_sensor (seq land 0xFF)
    (List.init 6 (fun i -> ((seq * 7) + (i * 31)) land 0xFF))

let is_genuine p = same p (pattern_packet p.Packet.seq)

(* acceptance bar: >= 1e5 frames at 1% per-byte corruption, and not one
   of them mis-parses -- every delivered packet is byte-identical to a
   sent one, everything else is dropped and counted *)
let test_no_misparse_under_corruption () =
  let frames = 100_000 in
  let delivered = ref 0 and misparsed = ref 0 in
  let f =
    Framer.create ~on_packet:(fun p ->
        incr delivered;
        if not (is_genuine p) then incr misparsed)
  in
  let chan =
    Faulty.create
      { Faulty.clean with Faulty.corrupt_rate = 0.01; seed = 20260806 }
      ~sink:(fun b -> Framer.feed f b)
  in
  for seq = 0 to frames - 1 do
    Faulty.send_all chan (Packet.encode (pattern_packet seq))
  done;
  Faulty.flush chan;
  check_int "no mis-parsed frame" 0 !misparsed;
  check_bool "corruption actually injected" true (Faulty.corrupted chan > 10_000);
  check_bool "damaged frames rejected" true (Framer.crc_errors f > 0);
  (* ~12 wire bytes/frame at 1%: most frames still get through *)
  check_bool "most frames survive" true (!delivered > frames / 2);
  check_bool "some frames lost" true (!delivered < frames)

(* drops: the framer must resynchronise on the next start flag. First the
   precise claim — an isolated drop, wherever it lands in the frame, loses
   at most that frame plus the one already in flight; the next clean frame
   always decodes *)
let test_resync_isolated_drop () =
  let wire seq = Packet.encode (pattern_packet seq) in
  let damaged = wire 1 in
  let n = Bytes.length damaged in
  for pos = 0 to n - 1 do
    let got = ref [] in
    let f = Framer.create ~on_packet:(fun p -> got := p.Packet.seq :: !got) in
    Framer.feed_all f (wire 0);
    Framer.feed_sub f damaged ~pos:0 ~len:pos;
    Framer.feed_sub f damaged ~pos:(pos + 1) ~len:(n - pos - 1);
    Framer.feed_all f (wire 2);
    Framer.feed_all f (wire 3);
    let seqs = List.rev !got in
    check_bool
      (Printf.sprintf "frames around a drop at byte %d decode" pos)
      true
      (List.mem 0 seqs && List.mem 2 seqs && List.mem 3 seqs)
  done

(* and the aggregate claim under random drops: each drop event costs at
   most two frames (the damaged one and the one being hunted through), so
   delivery never falls below sent - 2*drops *)
let test_resync_after_random_drops () =
  let got = ref [] in
  let f = Framer.create ~on_packet:(fun p -> got := p.Packet.seq :: !got) in
  let chan =
    Faulty.create
      { Faulty.clean with Faulty.drop_rate = 0.005; seed = 7 }
      ~sink:(fun b -> Framer.feed f b)
  in
  let sent = 2_000 in
  for seq = 0 to sent - 1 do
    Faulty.send_all chan (Packet.encode (pattern_packet seq))
  done;
  Faulty.flush chan;
  let drops = Faulty.dropped chan in
  check_bool "bytes were dropped" true (drops > 20);
  check_bool
    (Printf.sprintf "at most two frames lost per drop (%d delivered, %d drops)"
       (List.length !got) drops)
    true
    (List.length !got >= sent - (2 * drops))

(* duplicated and reordered bytes: never a mis-parse, only rejections *)
let test_dup_and_delay_never_misparse () =
  let misparsed = ref 0 and delivered = ref 0 in
  let f =
    Framer.create ~on_packet:(fun p ->
        incr delivered;
        if not (is_genuine p) then incr misparsed)
  in
  let chan =
    Faulty.create
      { Faulty.clean with Faulty.dup_rate = 0.01; delay_rate = 0.01; seed = 99 }
      ~sink:(fun b -> Framer.feed f b)
  in
  for seq = 0 to 19_999 do
    Faulty.send_all chan (Packet.encode (pattern_packet seq))
  done;
  Faulty.flush chan;
  check_int "no mis-parsed frame" 0 !misparsed;
  check_bool "faults injected" true
    (Faulty.duplicated chan > 0 && Faulty.delayed chan > 0);
  check_bool "most frames survive" true (!delivered > 10_000)

(* the identity channel is exactly transparent *)
let test_clean_channel_transparent () =
  let got = ref 0 in
  let f = Framer.create ~on_packet:(fun p ->
      if is_genuine p then incr got) in
  let chan = Faulty.create Faulty.clean ~sink:(fun b -> Framer.feed f b) in
  for seq = 0 to 99 do
    Faulty.send_all chan (Packet.encode (pattern_packet seq))
  done;
  check_int "all delivered" 100 !got;
  check_int "no faults" 0
    (Faulty.corrupted chan + Faulty.dropped chan + Faulty.duplicated chan
   + Faulty.delayed chan)

let suite =
  [
    Alcotest.test_case "crc known vector" `Quick test_crc_known_vector;
    Alcotest.test_case "crc sensitivity" `Quick test_crc_sensitivity;
    Alcotest.test_case "packet roundtrip" `Quick test_packet_roundtrip;
    Alcotest.test_case "stuffing" `Quick test_stuffing_roundtrip;
    Alcotest.test_case "corruption detected" `Quick test_corruption_detected;
    Alcotest.test_case "resync after garbage" `Quick test_resync_after_garbage;
    Alcotest.test_case "back-to-back" `Quick test_back_to_back_packets;
    Alcotest.test_case "truncated resync" `Quick test_truncated_frame_resync;
    Alcotest.test_case "payload helpers" `Quick test_payload_helpers;
    Alcotest.test_case "encode validation" `Quick test_encode_validation;
    Alcotest.test_case "wire length" `Quick test_wire_length;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_byte_at_a_time;
    Alcotest.test_case "fault: 1e5 frames at 1% corruption, no mis-parse"
      `Slow test_no_misparse_under_corruption;
    Alcotest.test_case "fault: resync within one frame of an isolated drop"
      `Quick test_resync_isolated_drop;
    Alcotest.test_case "fault: bounded loss under random drops" `Quick
      test_resync_after_random_drops;
    Alcotest.test_case "fault: dup/reorder never mis-parse" `Quick
      test_dup_and_delay_never_misparse;
    Alcotest.test_case "fault: clean channel transparent" `Quick
      test_clean_channel_transparent;
  ]

open C_ast

let comm_runtime_unit ~api ~hal ~name ~serial_bean ~n_sensors ~n_actuators =
  (* the serial primitives differ between the two block-set variants *)
  let send_char, recv_stmt, rx_handler, hal_header =
    match api with
    | Periph_blocks.Pe ->
        ( serial_bean ^ "_SendChar",
          Printf.sprintf "if (%s_RecvChar(&b) != ERR_OK) return;" serial_bean,
          serial_bean ^ "_OnRxChar",
          "PE_Types.h" )
    | Autosar ->
        ( "CddUart_Transmit",
          "if (CddUart_Receive(&b) != E_OK) return;",
          "CddUart_RxNotification_" ^ serial_bean,
          "Mcal.h" )
  in
  let rt =
    Printf.sprintf
      {|/* PIL communication runtime: HDLC-style framing over %s.
 * Sensor packets (type 0x01) carry %d u16 values; after unpacking, one
 * model step runs and an actuator packet (type 0x02) with %d u16 values
 * is returned. Mirrors the host-side protocol of the simulator PC. */

#define PIL_SOF 0x7E
#define PIL_ESC 0x7D
#define PIL_TYPE_SENSOR 0x01
#define PIL_TYPE_ACTUATOR 0x02

extern volatile uint16_t pil_sensor_buf[%d];
extern volatile uint16_t pil_actuator_buf[%d];

static uint8_t pil_rx_frame[3 + 2 * %d + 2];
static uint8_t pil_rx_count;
static uint8_t pil_rx_in_frame;
static uint8_t pil_rx_escaped;
static uint8_t pil_seq;

static uint16_t pil_crc16(const uint8_t *p, uint8_t n) {
  uint16_t crc = 0xFFFFu;
  uint8_t i, b;
  for (i = 0; i < n; ++i) {
    crc ^= (uint16_t)p[i] << 8;
    for (b = 0; b < 8; ++b)
      crc = (crc & 0x8000u) ? (uint16_t)((crc << 1) ^ 0x1021u) : (uint16_t)(crc << 1);
  }
  return crc;
}

static void pil_send_byte_stuffed(uint8_t b) {
  if (b == PIL_SOF || b == PIL_ESC) {
    %s(PIL_ESC);
    %s(b ^ 0x20);
  } else {
    %s(b);
  }
}

static void pil_send_actuators(void) {
  uint8_t hdr[3];
  uint8_t payload[2 * %d];
  uint16_t crc;
  uint8_t i;
  hdr[0] = PIL_TYPE_ACTUATOR; hdr[1] = pil_seq; hdr[2] = 2 * %d;
  for (i = 0; i < %d; ++i) {
    payload[2 * i] = (uint8_t)(pil_actuator_buf[i] >> 8);
    payload[2 * i + 1] = (uint8_t)(pil_actuator_buf[i] & 0xFF);
  }
  crc = 0xFFFFu;
  { uint8_t j; uint16_t c = pil_crc16(hdr, 3);
    /* continue the CRC over the payload */
    for (j = 0; j < 2 * %d; ++j) {
      c ^= (uint16_t)payload[j] << 8;
      { uint8_t b2; for (b2 = 0; b2 < 8; ++b2)
          c = (c & 0x8000u) ? (uint16_t)((c << 1) ^ 0x1021u) : (uint16_t)(c << 1); }
    }
    crc = c; }
  %s(PIL_SOF);
  { uint8_t j;
    for (j = 0; j < 3; ++j) pil_send_byte_stuffed(hdr[j]);
    for (j = 0; j < 2 * %d; ++j) pil_send_byte_stuffed(payload[j]); }
  pil_send_byte_stuffed((uint8_t)(crc >> 8));
  pil_send_byte_stuffed((uint8_t)(crc & 0xFF));
}

static void pil_handle_frame(void) {
  uint8_t len = pil_rx_frame[2];
  uint16_t crc, got;
  uint8_t i;
  if (pil_rx_frame[0] != PIL_TYPE_SENSOR) return;
  if (len != 2 * %d) return;
  crc = pil_crc16(pil_rx_frame, (uint8_t)(3 + len));
  got = ((uint16_t)pil_rx_frame[3 + len] << 8) | pil_rx_frame[3 + len + 1];
  if (crc != got) return;
  pil_seq = pil_rx_frame[1];
  for (i = 0; i < %d; ++i)
    pil_sensor_buf[i] =
      ((uint16_t)pil_rx_frame[3 + 2 * i] << 8) | pil_rx_frame[3 + 2 * i + 1];
  /* one control period: step the model, reply with the actuators */
  %s_step();
  pil_send_actuators();
}

void %s(void) {
  uint8_t b;
  %s
  if (b == PIL_SOF) { pil_rx_in_frame = 1; pil_rx_count = 0; pil_rx_escaped = 0; return; }
  if (!pil_rx_in_frame) return;
  if (b == PIL_ESC) { pil_rx_escaped = 1; return; }
  if (pil_rx_escaped) { b ^= 0x20; pil_rx_escaped = 0; }
  if (pil_rx_count < sizeof pil_rx_frame) pil_rx_frame[pil_rx_count++] = b;
  if (pil_rx_count >= 3 && pil_rx_count == (uint8_t)(3 + pil_rx_frame[2] + 2)) {
    pil_rx_in_frame = 0;
    pil_handle_frame();
  }
}|}
      serial_bean n_sensors n_actuators
      (Stdlib.max 1 n_sensors) (Stdlib.max 1 n_actuators) n_sensors
      send_char send_char send_char n_actuators n_actuators n_actuators
      n_actuators send_char n_actuators n_sensors n_sensors name rx_handler
      recv_stmt
  in
  {
    unit_name = "pil_rt.c";
    items =
      [ Include_local (name ^ ".h"); Include_local hal_header ]
      @ (match api with
        | Periph_blocks.Pe ->
            Target.hal_protos hal
              [ serial_bean ^ "_SendChar"; serial_bean ^ "_RecvChar" ]
        | Autosar -> [])
      @ [ Raw_item rt ];
  }

let generate ?(opt = false) ~name ~project comp =
  let serial_bean =
    match
      List.find_opt
        (fun b -> match b.Bean.config with Bean.Serial _ -> true | _ -> false)
        (Bean_project.beans project)
    with
    | Some b -> b.Bean.bname
    | None ->
        raise
          (Target.Codegen_error
             "PIL target needs an AsynchroSerial bean for the communication line")
  in
  let a = Target.generate ~mode:Blockgen.Pil ~opt ~name ~project comp in
  let api = Periph_blocks.model_api comp.Compile.model in
  let n_sensors = List.length a.Target.schedule.Target.sensor_slots in
  let n_actuators = List.length a.Target.schedule.Target.actuator_slots in
  let rt =
    comm_runtime_unit ~api ~hal:a.Target.hal ~name ~serial_bean ~n_sensors
      ~n_actuators
  in
  { a with Target.hal = a.Target.hal @ [ rt ] }

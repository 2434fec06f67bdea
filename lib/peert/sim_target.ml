open C_ast

type report = {
  plant_loc : int;
  runtime_loc : int;
  n_blocks : int;
  sim_step : float;
}

type artifacts = {
  plant_h : C_ast.cunit;
  plant_c : C_ast.cunit;
  sim_main_c : C_ast.cunit;
  makefile : string;
  report : report;
}

(* The plant code generation mirrors Target.generate's structure but
   admits continuous blocks through Plantgen and has no bean project. *)
let generate ~name ?(baud = 115200) ?n_sensors ?n_actuators ?sim_step comp =
  let m = comp.Compile.model in
  let dt = match sim_step with Some s -> s | None -> comp.Compile.base_dt in
  let all_blocks = Model.blocks m in
  List.iter
    (fun b ->
      let spec = Model.spec_of m b in
      if not (Plantgen.supported_sim spec) then
        Target.(
          raise
            (Codegen_error
               (Printf.sprintf "block %s (%s) has no simulator realisation"
                  (Model.block_name m b) spec.Block.kind))))
    all_blocks;
  let bname b = Blockgen.sanitize (Model.block_name m b) in
  let b_struct = name ^ "_B" and dw_struct = name ^ "_DW" in
  let u_struct = name ^ "_U" and y_struct = name ^ "_Y" in
  let sig_field b p = Printf.sprintf "%s_o%d" (bname b) p in
  let sig_expr (b, p) = Field (Var b_struct, sig_field b p) in
  let srcs = Compile.signal_sources comp in
  let b_fields = ref [] and dw_fields = ref [] in
  let init_stmts = ref [] and step_stmts = ref [] and update_stmts = ref [] in
  let cty_of = C_ast.cty_of_dtype in
  let n_in_ports = ref 0 and n_out_ports = ref 0 in
  List.iter
    (fun b ->
      let spec = Model.spec_of m b in
      let bi = Model.blk_index b in
      (match spec.Block.kind with
      | "Inport" ->
          n_in_ports :=
            Stdlib.max !n_in_ports (Param.int spec.Block.params "index" + 1)
      | "Outport" ->
          n_out_ports :=
            Stdlib.max !n_out_ports (Param.int spec.Block.params "index" + 1)
      | _ -> ());
      let out_dtypes = Array.to_list comp.Compile.out_types.(bi) in
      let out_tys = List.map cty_of out_dtypes in
      List.iteri (fun p ty -> b_fields := (ty, sig_field b p) :: !b_fields) out_tys;
      let gctx =
        {
          Blockgen.mode = Blockgen.Hw;
          name = bname b;
          ins = Array.to_list (Array.map sig_expr srcs.(bi));
          outs = List.init spec.Block.n_out (fun p -> sig_expr (b, p));
          out_tys;
          out_dtypes;
          dt;
          state = (fun f -> Field (Var dw_struct, bname b ^ "_" ^ f));
          ext_in = (fun i -> Field (Var u_struct, Printf.sprintf "in%d" i));
          ext_out = (fun i -> Field (Var y_struct, Printf.sprintf "out%d" i));
          pil_slot = None;
        }
      in
      let gen = Plantgen.emit ~dt gctx spec in
      List.iter
        (fun (ty, f) -> dw_fields := (ty, bname b ^ "_" ^ f) :: !dw_fields)
        gen.Blockgen.state_fields;
      init_stmts := !init_stmts @ gen.Blockgen.init;
      (* the simulator runs single rate: everything steps every dt *)
      step_stmts := !step_stmts @ gen.Blockgen.step;
      update_stmts := !update_stmts @ gen.Blockgen.update)
    (Array.to_list comp.Compile.order);
  let ext_in_fields = List.init !n_in_ports (fun i -> (Double_t, Printf.sprintf "in%d" i)) in
  let ext_out_fields =
    List.init !n_out_ports (fun i -> (Double_t, Printf.sprintf "out%d" i))
  in
  let plant_h =
    {
      unit_name = name ^ "_plant.h";
      items =
        [
          Include "stdint.h";
          Include "math.h";
          Struct_def (b_struct ^ "_t", List.rev !b_fields);
          Struct_def (dw_struct ^ "_t", List.rev !dw_fields);
          Struct_def (u_struct ^ "_t", ext_in_fields);
          Struct_def (y_struct ^ "_t", ext_out_fields);
          Raw_item
            (String.concat "\n"
               [
                 Printf.sprintf "extern %s_t %s;" u_struct u_struct;
                 Printf.sprintf "extern %s_t %s;" y_struct y_struct;
               ]);
          Proto (func Void (name ^ "_plant_initialize") [] []);
          Proto (func Void (name ^ "_plant_step") [] []);
        ];
    }
  in
  let plant_c =
    {
      unit_name = name ^ "_plant.c";
      items =
        [
          Include_local (name ^ "_plant.h");
          Global { gty = Named (b_struct ^ "_t"); gname = b_struct; ginit = None;
                   volatile = false; static = false };
          Global { gty = Named (dw_struct ^ "_t"); gname = dw_struct; ginit = None;
                   volatile = false; static = false };
          Global { gty = Named (u_struct ^ "_t"); gname = u_struct; ginit = None;
                   volatile = false; static = false };
          Global { gty = Named (y_struct ^ "_t"); gname = y_struct; ginit = None;
                   volatile = false; static = false };
          Global { gty = Double_t; gname = "model_time"; ginit = Some (flt 0.0);
                   volatile = false; static = true };
        ]
        @ Blockgen.used_helpers (Blockgen.cast_helpers ())
            (!init_stmts @ !step_stmts @ !update_stmts)
        @ [
          Func_def
            (func ~comment:"plant initial conditions" Void
               (name ^ "_plant_initialize") []
               (!init_stmts @ [ Assign (Var "model_time", flt 0.0) ]));
          Func_def
            (func
               ~comment:
                 (Printf.sprintf
                    "one %g s simulator step: outputs, then state advance" dt)
               Void (name ^ "_plant_step") []
               (!step_stmts @ !update_stmts
               @ [ Assign (Var "model_time",
                           Bin ("+", Var "model_time", flt dt)) ]));
        ];
    }
  in
  let ns = match n_sensors with Some n -> n | None -> !n_out_ports in
  let na = match n_actuators with Some n -> n | None -> !n_in_ports in
  let runtime =
    Printf.sprintf
      {|/* POSIX real-time loop and RS-232 host side of the PIL protocol.
 * Replaces the closed xPC target (paper section 8): open serial support,
 * clock_nanosleep pacing, overridable sensor/actuator mapping. */
#define _GNU_SOURCE
#include <stdio.h>
#include <stdint.h>
#include <fcntl.h>
#include <termios.h>
#include <time.h>
#include <unistd.h>
#include "%s_plant.h"

#define SIM_STEP_NS %dL
#define N_SENSORS %d
#define N_ACTUATORS %d
#define SOF 0x7E
#define ESC 0x7D

static uint16_t crc16(const uint8_t *p, int n) {
  uint16_t crc = 0xFFFFu; int i, b;
  for (i = 0; i < n; ++i) {
    crc ^= (uint16_t)p[i] << 8;
    for (b = 0; b < 8; ++b)
      crc = (crc & 0x8000u) ? (uint16_t)((crc << 1) ^ 0x1021u) : (uint16_t)(crc << 1);
  }
  return crc;
}

/* Default mapping: plant Outport k -> sensor slot k (raw cast), actuator
 * slot k -> plant Inport k scaled 1/65535. Override for real scalings. */
void sim_read_sensors(uint16_t *buf) {
%s}

void sim_apply_actuators(const uint16_t *buf) {
%s}

static int open_serial(const char *dev) {
  int fd = open(dev, O_RDWR | O_NOCTTY | O_NONBLOCK);
  struct termios tio;
  if (fd < 0) return -1;
  tcgetattr(fd, &tio);
  cfmakeraw(&tio);
  cfsetispeed(&tio, B%d);
  cfsetospeed(&tio, B%d);
  tcsetattr(fd, TCSANOW, &tio);
  return fd;
}

static void send_stuffed(int fd, uint8_t b) {
  uint8_t esc[2] = { ESC, (uint8_t)(b ^ 0x20) };
  if (b == SOF || b == ESC) { ssize_t r = write(fd, esc, 2); (void)r; }
  else { ssize_t r = write(fd, &b, 1); (void)r; }
}

static void send_sensor_packet(int fd, uint8_t seq) {
  uint16_t sensors[N_SENSORS];
  uint8_t frame[3 + 2 * N_SENSORS];
  uint16_t crc; int i;
  uint8_t sof = SOF;
  sim_read_sensors(sensors);
  frame[0] = 0x01; frame[1] = seq; frame[2] = 2 * N_SENSORS;
  for (i = 0; i < N_SENSORS; ++i) {
    frame[3 + 2 * i] = (uint8_t)(sensors[i] >> 8);
    frame[4 + 2 * i] = (uint8_t)(sensors[i] & 0xFF);
  }
  crc = crc16(frame, 3 + 2 * N_SENSORS);
  { ssize_t r = write(fd, &sof, 1); (void)r; }
  for (i = 0; i < 3 + 2 * N_SENSORS; ++i) send_stuffed(fd, frame[i]);
  send_stuffed(fd, (uint8_t)(crc >> 8));
  send_stuffed(fd, (uint8_t)(crc & 0xFF));
}

/* Non-blocking receive of one actuator packet; returns 1 when applied. */
static int poll_actuator_packet(int fd) {
  static uint8_t buf[3 + 2 * N_ACTUATORS + 2];
  static int count = -1, escaped = 0;
  uint8_t b;
  while (read(fd, &b, 1) == 1) {
    if (b == SOF) { count = 0; escaped = 0; continue; }
    if (count < 0) continue;
    if (b == ESC) { escaped = 1; continue; }
    if (escaped) { b ^= 0x20; escaped = 0; }
    if (count < (int)sizeof buf) buf[count++] = b;
    if (count >= 3 && count == 3 + buf[2] + 2) {
      uint16_t crc = crc16(buf, 3 + buf[2]);
      uint16_t got = ((uint16_t)buf[3 + buf[2]] << 8) | buf[4 + buf[2]];
      count = -1;
      if (buf[0] == 0x02 && buf[2] == 2 * N_ACTUATORS && crc == got) {
        uint16_t acts[N_ACTUATORS]; int i;
        for (i = 0; i < N_ACTUATORS; ++i)
          acts[i] = ((uint16_t)buf[3 + 2 * i] << 8) | buf[4 + 2 * i];
        sim_apply_actuators(acts);
        return 1;
      }
    }
  }
  return 0;
}

int main(int argc, char **argv) {
  const char *dev = argc > 1 ? argv[1] : "/dev/ttyS0";
  int fd = open_serial(dev);
  struct timespec next;
  uint8_t seq = 0;
  if (fd < 0) { perror("serial"); return 1; }
  %s_plant_initialize();
  clock_gettime(CLOCK_MONOTONIC, &next);
  for (;;) {
    send_sensor_packet(fd, seq++);
    %s_plant_step();
    poll_actuator_packet(fd);
    next.tv_nsec += SIM_STEP_NS;
    while (next.tv_nsec >= 1000000000L) { next.tv_nsec -= 1000000000L; ++next.tv_sec; }
    clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &next, NULL);
  }
  return 0;
}|}
      name
      (int_of_float (dt *. 1e9))
      ns na
      (String.concat ""
         (List.init ns (fun i ->
              if i < !n_out_ports then
                Printf.sprintf "  buf[%d] = (uint16_t)%s_Y.out%d;\n" i name i
              else Printf.sprintf "  buf[%d] = 0;\n" i)))
      (String.concat ""
         (List.init na (fun i ->
              if i < !n_in_ports then
                Printf.sprintf "  %s_U.in%d = (double)buf[%d] / 65535.0;\n" name i i
              else Printf.sprintf "  (void)buf[%d];\n" i)))
      baud baud name name
  in
  let sim_main_c = { unit_name = "sim_main.c"; items = [ Raw_item runtime ] } in
  let makefile =
    String.concat "\n"
      [
        Printf.sprintf "# Linux simulator target for model %s" name;
        "CC = gcc";
        "CFLAGS = -O2 -Wall -lm -lrt";
        Printf.sprintf "sim: sim_main.c %s_plant.c" name;
        Printf.sprintf "\t$(CC) -o $@ sim_main.c %s_plant.c $(CFLAGS)" name;
        "";
      ]
  in
  let plant_src = C_print.print_unit plant_c ^ C_print.print_unit plant_h in
  {
    plant_h;
    plant_c;
    sim_main_c;
    makefile;
    report =
      {
        plant_loc = C_print.loc plant_src;
        runtime_loc = C_print.loc runtime;
        n_blocks = List.length all_blocks;
        sim_step = dt;
      };
  }

let write_to_dir a ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write_unit u =
    let path = Filename.concat dir u.unit_name in
    let oc = open_out path in
    output_string oc (C_print.print_unit u);
    close_out oc;
    path
  in
  let paths = List.map write_unit [ a.plant_h; a.plant_c; a.sim_main_c ] in
  let mk = Filename.concat dir "Makefile" in
  let oc = open_out mk in
  output_string oc a.makefile;
  close_out oc;
  paths @ [ mk ]

(* Named fault scenarios: the built-in abuse set for the servo case
   study plus a small line-based [.fault] file format, so campaigns can
   be described next to the model instead of in code. *)

type t = { sname : string; faults : Fault.t list }

let v ?slot ?every ~at ~duration kind = Fault.make ?slot ?every ~at ~duration kind

(* The fault window opens at 0.9 s — after the last set-point step of
   the default servo schedule, with the loop settled at 150 rad/s — and
   closes early enough for the supervisor to recover well before the
   2 s campaign horizon. *)
let builtins =
  [
    { sname = "encoder-dropout";
      faults = [ v ~at:0.9 ~duration:0.15 Fault.Sensor_dropout ] };
    { sname = "sensor-stuck";
      faults = [ v ~at:0.9 ~duration:0.15 Fault.Sensor_stuck ] };
    { sname = "noise-burst";
      faults = [ v ~at:0.9 ~duration:0.2 (Fault.Sensor_noise 40) ] };
    { sname = "encoder-glitch";
      faults = [ v ~at:0.9 ~duration:0.2 (Fault.Encoder_glitch 500) ] };
    { sname = "actuator-jam";
      faults = [ v ~at:0.9 ~duration:0.2 (Fault.Actuator_jam 1.0) ] };
    { sname = "overrun-burst";
      faults = [ v ~at:0.9 ~duration:0.1 (Fault.Overrun 600_000) ] };
    { sname = "wdog-suppress";
      faults = [ v ~at:0.9 ~duration:0.1 Fault.Wdog_suppress ] };
  ]

let builtin name = List.find_opt (fun s -> s.sname = name) builtins

(* ---- the .fault line format ---- *)

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let parse_line lineno line =
  let err fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" lineno m)) fmt in
  match split_ws line with
  | [] -> Ok None
  | kind_word :: rest ->
      let kv =
        List.filter_map
          (fun tok ->
            match String.index_opt tok '=' with
            | Some i ->
                Some
                  ( String.sub tok 0 i,
                    String.sub tok (i + 1) (String.length tok - i - 1) )
            | None -> None)
          rest
      in
      let bad = List.filter (fun tok -> not (String.contains tok '=')) rest in
      if bad <> [] then err "stray token %S (expected key=value)" (List.hd bad)
      else
        let fget k =
          match List.assoc_opt k kv with
          | None -> Ok None
          | Some s -> (
              match float_of_string_opt s with
              | Some x when Float.is_finite x -> Ok (Some x)
              | Some _ -> err "%s=%s is not a finite number" k s
              | None -> err "%s=%S is not a number" k s)
        in
        (* an integer field: a whole number in int range, and >= 0
           unless [signed] (a sensor offset) *)
        let to_int ?(signed = false) k x =
          if
            Float.is_integer x
            && x >= (if signed then -0x1p62 else 0.0)
            && x < 0x1p62
          then Ok (int_of_float x)
          else
            err "%s=%g is not a whole number in [%s, 2^62)" k x
              (if signed then "-2^62" else "0")
        in
        let ( let* ) = Result.bind in
        let* at = fget "at" in
        let* duration = fget "duration" in
        let* slot = fget "slot" in
        let* value = fget "value" in
        let* every = fget "every" in
        let known = [ "at"; "duration"; "slot"; "value"; "every" ] in
        (match List.find_opt (fun (k, _) -> not (List.mem k known)) kv with
        | Some (k, _) -> err "unknown key %S" k
        | None ->
            let need_value mk =
              match value with
              | Some x -> Ok (mk x)
              | None -> err "kind %S needs value=" kind_word |> Result.map (fun _ -> assert false)
            in
            let need_int ?signed mk =
              let* x = need_value Fun.id in
              Result.map mk (to_int ?signed "value" x)
            in
            let* kind =
              match kind_word with
              | "stuck" -> Ok Fault.Sensor_stuck
              | "dropout" -> Ok Fault.Sensor_dropout
              | "wdog-suppress" -> Ok Fault.Wdog_suppress
              | "offset" -> need_int ~signed:true (fun n -> Fault.Sensor_offset n)
              | "noise" -> need_int (fun n -> Fault.Sensor_noise n)
              | "glitch" -> need_int (fun n -> Fault.Encoder_glitch n)
              | "saturation" -> need_value (fun x -> Fault.Actuator_saturation x)
              | "jam" -> need_value (fun x -> Fault.Actuator_jam x)
              | "load" -> need_value (fun x -> Fault.Load_torque x)
              | "overrun" -> need_int (fun n -> Fault.Overrun n)
              | "comm" ->
                  need_value (fun x ->
                      Fault.Comm { Faulty.clean with Faulty.corrupt_rate = x })
              | k -> err "unknown fault kind %S" k |> Result.map (fun _ -> assert false)
            in
            let* at =
              match at with Some a -> Ok a | None -> err "missing at=" |> Result.map (fun _ -> 0.0)
            in
            let* duration =
              match duration with
              | Some d -> Ok d
              | None -> err "missing duration=" |> Result.map (fun _ -> 0.0)
            in
            let* slot =
              match slot with Some s -> to_int "slot" s | None -> Ok 0
            in
            (match Fault.make ~slot ?every ~at ~duration kind with
            | f -> Ok (Some f)
            | exception Invalid_argument m -> err "%s" m))

let of_string ~name text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok { sname = name; faults = List.rev acc }
    | line :: rest -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go (lineno + 1) acc rest
        else
          match parse_line lineno line with
          | Ok (Some f) -> go (lineno + 1) (f :: acc) rest
          | Ok None -> go (lineno + 1) acc rest
          | Error e -> Error e)
  in
  match go 1 [] lines with
  | Ok { faults = []; _ } -> Error "scenario declares no faults"
  | r -> r

let load path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      let name = Filename.remove_extension (Filename.basename path) in
      Result.map_error
        (fun e -> Printf.sprintf "%s: %s" path e)
        (of_string ~name text)

let find ref_ =
  match builtin ref_ with
  | Some s -> Ok s
  | None ->
      if Sys.file_exists ref_ then load ref_
      else
        Error
          (Printf.sprintf
             "no scenario %S: not a built-in (%s) and not a file" ref_
             (String.concat ", " (List.map (fun s -> s.sname) builtins)))

let onset ?(only = fun _ -> true) s =
  List.fold_left
    (fun acc f -> if only f.Fault.kind then Float.min acc (Fault.onset f) else acc)
    infinity s.faults

let clear_time s ~horizon =
  List.fold_left
    (fun acc f -> Float.max acc (Fault.clear_time f ~horizon))
    0.0 s.faults

let active_names s ~time =
  List.filter_map
    (fun f -> if Fault.active f ~time then Some (Fault.name f) else None)
    s.faults

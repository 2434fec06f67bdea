type kind = Timer_ch | Adc_ch | Pwm_ch | Dac_ch | Sci_port | Pin of string | Qdec_unit

type t = {
  mcu : Mcu_db.t;
  table : (string, string) Hashtbl.t;  (* resource key -> owner *)
}

let create mcu = { mcu; table = Hashtbl.create 16 }
let mcu t = t.mcu

let capacity t = function
  | Timer_ch -> t.mcu.Mcu_db.timer.Mcu_db.timer_channels
  | Adc_ch -> t.mcu.Mcu_db.adc.Mcu_db.adc_channels
  | Pwm_ch -> t.mcu.Mcu_db.pwm.Mcu_db.pwm_channels
  | Dac_ch -> t.mcu.Mcu_db.dac.Mcu_db.dac_channels
  | Sci_port -> t.mcu.Mcu_db.sci_count
  | Qdec_unit -> if t.mcu.Mcu_db.has_qdec then 1 else 0
  | Pin _ -> 1

let describe kind idx =
  match kind with
  | Timer_ch -> Printf.sprintf "timer channel %d" idx
  | Adc_ch -> Printf.sprintf "ADC channel %d" idx
  | Pwm_ch -> Printf.sprintf "PWM channel %d" idx
  | Dac_ch -> Printf.sprintf "DAC channel %d" idx
  | Sci_port -> Printf.sprintf "SCI port %d" idx
  | Qdec_unit -> "quadrature decoder"
  | Pin p -> Printf.sprintf "pin %s" p

let key kind idx =
  match kind with
  | Timer_ch -> Printf.sprintf "timer:%d" idx
  | Adc_ch -> Printf.sprintf "adc:%d" idx
  | Pwm_ch -> Printf.sprintf "pwm:%d" idx
  | Dac_ch -> Printf.sprintf "dac:%d" idx
  | Sci_port -> Printf.sprintf "sci:%d" idx
  | Qdec_unit -> "qdec:0"
  | Pin p -> "pin:" ^ p

let claim t ~owner kind ?unit_index () =
  (match kind with
  | Pin p when not (List.mem p t.mcu.Mcu_db.pins) ->
      Error (Printf.sprintf "%s has no pin %s" t.mcu.Mcu_db.name p)
  | _ -> Ok ())
  |> function
  | Error e -> Error e
  | Ok () -> (
      let cap = capacity t kind in
      if cap = 0 then
        Error
          (Printf.sprintf "%s offers no %s" t.mcu.Mcu_db.name (describe kind 0))
      else
        let try_claim idx =
          let k = key kind idx in
          match Hashtbl.find_opt t.table k with
          | Some other ->
              Error
                (Printf.sprintf "%s already claimed by bean %s"
                   (describe kind idx) other)
          | None ->
              Hashtbl.replace t.table k owner;
              Ok idx
        in
        match unit_index with
        | Some idx ->
            if idx < 0 || idx >= cap then
              Error
                (Printf.sprintf "%s does not exist on %s (capacity %d)"
                   (describe kind idx) t.mcu.Mcu_db.name cap)
            else try_claim idx
        | None ->
            let rec first i =
              if i >= cap then
                Error
                  (Printf.sprintf "all %d units of %s are in use" cap
                     (describe kind 0))
              else
                match try_claim i with Ok idx -> Ok idx | Error _ -> first (i + 1)
            in
            first 0)

let release_owner t owner =
  let keys =
    Hashtbl.fold (fun k o acc -> if o = owner then k :: acc else acc) t.table []
  in
  List.iter (Hashtbl.remove t.table) keys

let claims t =
  Hashtbl.fold (fun k o acc -> (k, o) :: acc) t.table []
  |> List.sort Stdlib.compare

let init = 0xFFFF

(* the register after shifting each high byte through the polynomial *)
let table =
  Array.init 256 (fun hi ->
      let crc = ref (hi lsl 8) in
      for _ = 1 to 8 do
        crc :=
          if !crc land 0x8000 <> 0 then ((!crc lsl 1) lxor 0x1021) land 0xFFFF
          else (!crc lsl 1) land 0xFFFF
      done;
      !crc)

let update crc byte =
  ((crc lsl 8) land 0xFFFF) lxor table.(((crc lsr 8) lxor byte) land 0xFF)

let of_sub b ~pos ~len =
  let crc = ref init in
  for i = pos to pos + len - 1 do
    crc := update !crc (Bytes.get_uint8 b i)
  done;
  !crc

let of_string s = of_sub (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

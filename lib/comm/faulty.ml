type config = {
  corrupt_rate : float;
  drop_rate : float;
  dup_rate : float;
  delay_rate : float;
  seed : int;
}

let clean =
  { corrupt_rate = 0.0; drop_rate = 0.0; dup_rate = 0.0; delay_rate = 0.0;
    seed = 1 }

type t = {
  cfg : config;
  sink : int -> unit;
  state : int64 ref;
  mutable held : int;  (** a byte delayed past its successor, or -1 *)
  mutable corrupted : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
}

let uniform t = Splitmix.unit_float (Splitmix.next t.state)

let create cfg ~sink =
  {
    cfg;
    sink;
    state = ref (Int64.of_int cfg.seed);
    held = -1;
    corrupted = 0;
    dropped = 0;
    duplicated = 0;
    delayed = 0;
  }

let flush t =
  let h = t.held in
  if h >= 0 then begin
    t.held <- -1;
    t.sink h
  end

let emit t b =
  t.sink b;
  (* a held-back byte goes out right after the byte that overtook it *)
  flush t

let send t b =
  let b =
    if t.cfg.corrupt_rate > 0.0 && uniform t < t.cfg.corrupt_rate then begin
      t.corrupted <- t.corrupted + 1;
      b lxor 0x55
    end
    else b
  in
  if t.cfg.drop_rate > 0.0 && uniform t < t.cfg.drop_rate then
    t.dropped <- t.dropped + 1
  else if t.cfg.dup_rate > 0.0 && uniform t < t.cfg.dup_rate then begin
    t.duplicated <- t.duplicated + 1;
    emit t b;
    emit t b
  end
  else if
    t.cfg.delay_rate > 0.0 && t.held < 0 && uniform t < t.cfg.delay_rate
  then begin
    t.delayed <- t.delayed + 1;
    t.held <- b
  end
  else emit t b

let send_sub t buf ~pos ~len =
  for i = pos to pos + len - 1 do
    send t (Bytes.get_uint8 buf i)
  done

let send_all t buf = send_sub t buf ~pos:0 ~len:(Bytes.length buf)

let corrupted t = t.corrupted
let dropped t = t.dropped
let duplicated t = t.duplicated
let delayed t = t.delayed

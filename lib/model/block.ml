type out_type =
  | Fixed_type of Dtype.t
  | Same_as of int
  | Type_fn of (Dtype.t option array -> Dtype.t option)

type ctx = {
  base_dt : float;
  block_dt : float;
  fire : int -> unit;
  in_dtypes : Dtype.t array;
  out_dtypes : Dtype.t array;
}

type beh = {
  ncstates : int;
  out : minor:bool -> time:float -> Value.t array -> Value.t array;
  update : time:float -> Value.t array -> unit;
  deriv : time:float -> Value.t array -> float array;
  get_cstate : unit -> float array;
  set_cstate : float array -> unit;
  reset : unit -> unit;
  save : unit -> unit -> unit;
}

type spec = {
  kind : string;
  params : Param.t;
  n_in : int;
  n_out : int;
  feedthrough : bool array;
  out_types : out_type array;
  sample : Sample_time.spec;
  event_outs : string array;
  make : ctx -> beh;
}

let no_beh_state =
  {
    ncstates = 0;
    out = (fun ~minor:_ ~time:_ _ -> [||]);
    update = (fun ~time:_ _ -> ());
    deriv = (fun ~time:_ _ -> [||]);
    get_cstate = (fun () -> [||]);
    set_cstate = (fun _ -> ());
    reset = (fun () -> ());
    save = (fun () () -> ());
  }

let stateless ~kind ?(params = []) ~n_in ~n_out ?out_types
    ?(sample = Sample_time.Inherited) f =
  let out_types =
    match out_types with
    | Some ts -> ts
    | None ->
        if n_in = 0 then Array.make n_out (Fixed_type Dtype.Double)
        else Array.make n_out (Same_as 0)
  in
  {
    kind;
    params;
    n_in;
    n_out;
    feedthrough = Array.make n_in true;
    out_types;
    sample;
    event_outs = [||];
    make =
      (fun ctx ->
        { no_beh_state with out = (fun ~minor:_ ~time:_ ins -> f ctx ins) });
  }

let pp_spec ppf s =
  Format.fprintf ppf "%s(%s) %d->%d [%a]" s.kind (Param.to_string s.params)
    s.n_in s.n_out Sample_time.pp_spec s.sample

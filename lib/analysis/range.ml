type t = {
  comp : Compile.t;
  clamped : Itv.t option array array;
  raw : Itv.t option array array;
}

let dt_of comp b =
  match Compile.resolved_of comp b with
  | Sample_time.R_discrete { period; _ } -> period
  | _ -> comp.Compile.base_dt

let dtype_range dt =
  Itv.make (Dtype.min_float_value dt) (Dtype.max_float_value dt)

let hull_pt i v = Itv.hull i (Itv.point v)

(* Transfer function: raw output intervals of one block from its input
   intervals. [None] is bottom (not yet computed); unknown kinds go to
   the full range of their declared output type, which is sound. *)
let transfer comp b (ins : Itv.t option array) : Itv.t option array =
  let m = comp.Compile.model in
  let spec = Model.spec_of m b in
  let params = spec.Block.params in
  let bi = Model.blk_index b in
  let n_out = spec.Block.n_out in
  let out_dt p = comp.Compile.out_types.(bi).(p) in
  let pf name = Param.float params name in
  let all_out i = Array.make n_out (Some i) in
  let need p k = match ins.(p) with Some i -> k i | None -> Array.make n_out None in
  let dt = dt_of comp b in
  let top_of_type = Array.init n_out (fun p -> Some (dtype_range (out_dt p))) in
  if n_out = 0 then [||]
  else
    let open Itv in
    match spec.Block.kind with
    | "Constant" -> all_out (point (pf "value"))
    | "Step" -> all_out (hull (point (pf "before")) (point (pf "after")))
    | "Ramp" ->
        (* 0 until the start time, then slope * (t - start) *)
        let slope = pf "slope" in
        all_out
          (if slope > 0.0 then make 0.0 infinity
           else if slope < 0.0 then make neg_infinity 0.0
           else point 0.0)
    | "Sine" ->
        let amp = Float.abs (pf "amp") and bias = pf "bias" in
        all_out (make (bias -. amp) (bias +. amp))
    | "Pulse" -> all_out (hull_pt (point (pf "amp")) 0.0)
    | "SetpointSchedule" ->
        (* the schedule outputs 0.0 before the first breakpoint *)
        let values = Param.floats params "values" in
        all_out (Array.fold_left hull_pt (point 0.0) values)
    | "UniformNoise" -> all_out (make (pf "lo") (pf "hi"))
    | "Clock" -> all_out (make 0.0 infinity)
    | "Inport" -> top_of_type
    | "Outport" | "ZOH" | "Merge2" | "Cast" | "Abs" | "Neg" | "Min" | "Max"
    | "Sum" | "Gain" | "Product" | "Divide" | "MathFn" | "Switch"
    | "Saturation" | "Quantizer" | "DeadZone" | "Sign" | "CoulombFriction"
    | "Backlash" | "UnitDelay" | "DelayN" | "DiscreteDerivative"
    | "RateLimiter" | "MovingAverage" | "EncoderSpeed" -> (
        match spec.Block.kind with
        | "Outport" | "ZOH" | "Cast" -> need 0 (fun i -> all_out i)
        | "Merge2" ->
            need 0 (fun a -> need 1 (fun b -> all_out (hull a b)))
        | "Abs" -> need 0 (fun i -> all_out (abs i))
        | "Neg" -> need 0 (fun i -> all_out (neg i))
        | "Min" ->
            need 0 (fun a ->
                need 1 (fun b ->
                    all_out (make (Float.min a.lo b.lo) (Float.min a.hi b.hi))))
        | "Max" ->
            need 0 (fun a ->
                need 1 (fun b ->
                    all_out (make (Float.max a.lo b.lo) (Float.max a.hi b.hi))))
        | "Sum" ->
            let signs = Param.string params "signs" in
            let acc = ref (Some (point 0.0)) in
            String.iteri
              (fun p sign ->
                match (!acc, ins.(p)) with
                | Some a, Some i ->
                    acc := Some (if sign = '-' then sub a i else add a i)
                | _ -> acc := None)
              signs;
            (match !acc with Some i -> all_out i | None -> Array.make n_out None)
        | "Gain" -> need 0 (fun i -> all_out (mul (point (pf "k")) i))
        | "Product" ->
            let acc = ref (Some (point 1.0)) in
            Array.iteri
              (fun _ i ->
                match (!acc, i) with
                | Some a, Some b -> acc := Some (mul a b)
                | _ -> acc := None)
              ins;
            (match !acc with Some i -> all_out i | None -> Array.make n_out None)
        | "Divide" -> need 0 (fun a -> need 1 (fun b -> all_out (div a b)))
        | "MathFn" -> (
            match Param.string params "fn" with
            | "sin" | "cos" -> all_out (make (-1.0) 1.0)
            | "exp" -> need 0 (fun i -> all_out (make (exp i.lo) (exp i.hi)))
            | "sqrt" ->
                need 0 (fun i -> all_out (make 0.0 (sqrt (Float.max 0.0 i.hi))))
            | "log" ->
                need 0 (fun i ->
                    if i.lo > 0.0 then all_out (make (log i.lo) (log i.hi))
                    else all_out top)
            | _ -> top_of_type)
        | "Switch" -> need 0 (fun a -> need 2 (fun b -> all_out (hull a b)))
        | "Saturation" -> all_out (make (pf "lo") (pf "hi"))
        | "Quantizer" ->
            let q = pf "interval" in
            need 0 (fun i -> all_out (make (i.lo -. (q /. 2.0)) (i.hi +. (q /. 2.0))))
        | "DeadZone" ->
            let lo = pf "lo" and hi = pf "hi" in
            need 0 (fun i ->
                all_out (make (Float.min 0.0 (i.lo -. lo)) (Float.max 0.0 (i.hi -. hi))))
        | "Sign" -> all_out (make (-1.0) 1.0)
        | "CoulombFriction" ->
            let l = Float.abs (pf "level") in
            need 0 (fun i -> all_out (make (i.lo -. l) (i.hi +. l)))
        | "Backlash" ->
            let w = pf "width" in
            need 0 (fun i -> all_out (hull_pt (make (i.lo -. w) (i.hi +. w)) 0.0))
        | "UnitDelay" ->
            let init = point (pf "init") in
            all_out (match ins.(0) with Some i -> hull init i | None -> init)
        | "DelayN" ->
            if Param.int params "n" = 0 then need 0 (fun i -> all_out i)
            else
              all_out
                (match ins.(0) with
                | Some i -> hull_pt i 0.0
                | None -> point 0.0)
        | "DiscreteDerivative" ->
            let k = Float.abs (pf "k") in
            need 0 (fun i ->
                let h = hull_pt i 0.0 in
                let w = k *. (h.hi -. h.lo) /. dt in
                all_out (make (-.w) w))
        | "RateLimiter" | "MovingAverage" ->
            need 0 (fun i -> all_out (hull_pt i 0.0))
        | "EncoderSpeed" ->
            (* wrap-aware 16-bit count difference: |delta| <= 2^15 *)
            let cpr = Param.int params "counts_per_rev" in
            let k = 2.0 *. Float.pi /. float_of_int cpr in
            let w = 32768.0 *. k /. dt in
            all_out (make (-.w) w)
        | _ -> assert false)
    | "DiscreteIntegrator" ->
        all_out (hull_pt (make (pf "lo") (pf "hi")) (pf "init"))
    | "Pid" -> all_out (make (pf "u_min") (pf "u_max"))
    | "FixPid" ->
        (* the Q-format accumulator clamps u/out_scale to +-2.0 *)
        let s = pf "out_scale" in
        all_out
          (make (Float.max (pf "u_min") (-2.0 *. s))
             (Float.min (pf "u_max") (2.0 *. s)))
    | "Compare" | "Logic" -> all_out (make 0.0 1.0)
    | "Relay" ->
        all_out (hull (point (pf "on_value")) (point (pf "off_value")))
    | kind -> (
        match Periph_blocks.classify kind with
        | Some (Adc, _) -> (
            match Param.int_opt params "max_code" with
            | Some mc -> all_out (make 0.0 (float_of_int mc))
            | None -> top_of_type)
        | Some (Pwm, _) -> all_out (make 0.0 1.0)
        | Some ((Timer_int | Bit_io_in | Quad_dec), _) | None -> top_of_type)

(* The fixpoint engine is the shared [Dataflow.Round_robin] solver
   (Gauss–Seidel chaotic iteration in block order): one lattice row of
   per-port intervals per block, with the round-counter widening hook
   carrying the original policy — a bound still moving after the graph
   diameter has been exceeded is in a feedback loop and goes straight
   to the type bound. *)
module Row = struct
  type t = Itv.t option array

  let equal = ( = )
end

module Fix = Dataflow.Round_robin (Row)

let analyze comp =
  let m = comp.Compile.model in
  let n = Model.n_blocks m in
  let blocks = Array.of_list (Model.blocks m) in
  let pos = Array.make n 0 in
  Array.iteri (fun i b -> pos.(Model.blk_index b) <- i) blocks;
  let input_itvs get b =
    let spec = Model.spec_of m b in
    Array.init spec.Block.n_in (fun p ->
        match Model.driver m (b, p) with
        | Some (sb, sp) -> (get pos.(Model.blk_index sb)).(sp)
        | None -> None)
  in
  let clamp_port b p (i : Itv.t) =
    let dt = comp.Compile.out_types.(Model.blk_index b).(p) in
    (* an integer-typed port stores a rounding of the computed value;
       [floor, ceil] covers truncation and round-to-nearest alike *)
    let i =
      if Dtype.is_integer dt then Itv.make (Float.floor i.lo) (Float.ceil i.hi)
      else i
    in
    Itv.clamp ~bounds:(dtype_range dt) i
  in
  let widen_after = n + 2 in
  let max_rounds = (2 * n) + 8 in
  let step ~round ~get i =
    let b = blocks.(i) in
    let cur = get i in
    let outs = transfer comp b (input_itvs get b) in
    let next = Array.copy cur in
    Array.iteri
      (fun p o ->
        match o with
        | None -> ()
        | Some iv ->
            let iv = clamp_port b p iv in
            let joined =
              match cur.(p) with None -> iv | Some c -> Itv.hull c iv
            in
            if cur.(p) <> Some joined then
              next.(p) <-
                Some
                  (if round <= widen_after then joined
                   else
                     let c =
                       match cur.(p) with Some c -> c | None -> joined
                     in
                     clamp_port b p (Itv.widen ~old:c joined)))
      outs;
    next
  in
  let solution =
    Fix.solve ~max_rounds
      {
        Fix.n;
        init =
          (fun i ->
            Array.make (Model.spec_of m blocks.(i)).Block.n_out None);
        transfer = step;
      }
  in
  let clamped = Array.make n [||] in
  let raw = Array.make n [||] in
  Array.iteri (fun i b -> clamped.(Model.blk_index b) <- solution i) blocks;
  (* one final pass records the pre-clamp intervals consistently with
     the fixpoint inputs *)
  Array.iter
    (fun b ->
      raw.(Model.blk_index b) <- transfer comp b (input_itvs solution b))
    blocks;
  { comp; clamped; raw }

let interval t (b, p) = t.clamped.(Model.blk_index b).(p)
let raw_interval t (b, p) = t.raw.(Model.blk_index b).(p)

let findings t =
  let comp = t.comp in
  let m = comp.Compile.model in
  let acc = ref [] in
  let emit f = acc := f :: !acc in
  List.iter
    (fun b ->
      let bi = Model.blk_index b in
      let spec = Model.spec_of m b in
      let name = Model.block_name m b in
      (* FXP001 / FXP003: raw range vs bounded port type *)
      Array.iteri
        (fun p r ->
          match r with
          | None -> ()
          | Some r ->
              let dt = comp.Compile.out_types.(bi).(p) in
              let bounds = dtype_range dt in
              let says rule verb effect =
                emit
                  (Diag.make ~rule ~subject:name
                     (Printf.sprintf "output %d range %s %s %s range %s; %s" p
                        (Itv.to_string r) verb (Dtype.to_string dt)
                        (Itv.to_string bounds) effect))
              in
              (* an unbounded (float) type never saturates *)
              match Itv.classify ~bounds r with
              | Itv.Always ->
                  says "FXP003" "lies entirely outside"
                    "the cast always saturates"
              | Itv.May -> says "FXP001" "exceeds" "generated code saturates"
              | Itv.Never -> ())
        t.raw.(bi);
      (* FXP002: fixed-point PID normalisation *)
      (if spec.Block.kind = "FixPid" then
         let s = Param.float spec.Block.params "in_scale" in
         let qmin, qmax = Pid.Fixpoint.sig_range in
         List.iteri
           (fun p input ->
             match
               match Model.driver m (b, p) with
               | Some (sb, sp) -> interval t (sb, sp)
               | None -> None
             with
             | None -> ()
             | Some i ->
                 if i.hi /. s > qmax || i.lo /. s < qmin then
                   emit
                     (Diag.make ~rule:"FXP002" ~subject:name
                        (Printf.sprintf
                           "input %s (%d) range %s exceeds Q%d at in_scale \
                            %g: representable span is [%g, %g]"
                           input p (Itv.to_string i)
                           Pid.Fixpoint.sig_frac_bits s
                           (qmin *. s) (qmax *. s))))
           [ "sp"; "pv" ]);
      (* FXP004: divisor range containing zero *)
      if spec.Block.kind = "Divide" then
        match Model.driver m (b, 1) with
        | Some (sb, sp) -> (
            match interval t (sb, sp) with
            | Some i when i.lo <= 0.0 && i.hi >= 0.0 ->
                emit
                  (Diag.make ~rule:"FXP004" ~subject:name
                     (Printf.sprintf "divisor range %s contains zero"
                        (Itv.to_string i)))
            | _ -> ())
        | None -> ())
    (Model.blocks m);
  List.rev !acc

(* Metrics, multicore edition (timed spans are Flight events, switched by
   [on] here). Hot-path discipline: every mutating entry point starts with
   an [if not !on] bail-out that touches no heap, reads no clock and takes
   no lock, so a disabled build pays one load + branch per call site.

   Collection state is *domain-local*: each domain owns a private sink
   (counters, gauges, histograms) reached through [Domain.DLS], so worker
   domains of the campaign pool record without any synchronisation. Cold
   paths move data between domains: a worker calls [publish] to fold its
   sink into the process-wide [published] aggregate (one mutex, coarse
   granularity — once per campaign job), and every read API (snapshot,
   counter_value, ...) reports the current domain's sink merged with the
   published aggregate. Merging
   is defined by {!Export.merge}: commutative and associative on
   counters and histogram buckets, so totals are independent of which
   domain ran which job. *)

let on = ref false
let enabled () = !on
let set_enabled b = on := b
let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* ---------- registry: names <-> dense ids, process-wide ---------- *)

type counter = { c_id : int; c_name : string }
type hist = { h_id : int; h_name : string }

let reg_mutex = Mutex.create ()
let counter_reg : (string, counter) Hashtbl.t = Hashtbl.create 32
let hist_reg : (string, hist) Hashtbl.t = Hashtbl.create 16
let counter_names : string list ref = ref [] (* newest first, by id desc *)
let hist_names : string list ref = ref []
let n_counter_ids = ref 0
let n_hist_ids = ref 0

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let counter name =
  locked reg_mutex @@ fun () ->
  match Hashtbl.find_opt counter_reg name with
  | Some c -> c
  | None ->
      let c = { c_id = !n_counter_ids; c_name = name } in
      incr n_counter_ids;
      counter_names := name :: !counter_names;
      Hashtbl.replace counter_reg name c;
      c

let hist name =
  locked reg_mutex @@ fun () ->
  match Hashtbl.find_opt hist_reg name with
  | Some h -> h
  | None ->
      let h = { h_id = !n_hist_ids; h_name = name } in
      incr n_hist_ids;
      hist_names := name :: !hist_names;
      Hashtbl.replace hist_reg name h;
      h

let all_counters () =
  locked reg_mutex @@ fun () ->
  List.rev_map (fun n -> Hashtbl.find counter_reg n) !counter_names

let all_hists () =
  locked reg_mutex @@ fun () ->
  List.rev_map (fun n -> Hashtbl.find hist_reg n) !hist_names

(* ---------- histograms ----------

   Bucket = (clamped binary exponent, 16 linear sub-buckets of the
   mantissa): frexp gives m in [0.5,1) and e with v = m * 2^e; index
   (e+64)*16 + floor((m-0.5)*32) covers ~2^-64 .. 2^63 with <= ~6 %
   relative quantile error. Bucket 0 doubles as the underflow/<=0 bin. *)

let n_sub = 16
let n_exp = 128
let n_buckets = n_sub * n_exp (* 2048 *)

type hcell = {
  buckets : int array;
  mutable hc_count : int;
  mutable hc_sum : float;
  mutable hc_min : float;
  mutable hc_max : float;
}

let hcell_create () =
  {
    buckets = Array.make n_buckets 0;
    hc_count = 0;
    hc_sum = 0.0;
    hc_min = infinity;
    hc_max = neg_infinity;
  }

let hcell_clear c =
  Array.fill c.buckets 0 n_buckets 0;
  c.hc_count <- 0;
  c.hc_sum <- 0.0;
  c.hc_min <- infinity;
  c.hc_max <- neg_infinity

let hcell_fold ~into src =
  for i = 0 to n_buckets - 1 do
    into.buckets.(i) <- into.buckets.(i) + src.buckets.(i)
  done;
  into.hc_count <- into.hc_count + src.hc_count;
  into.hc_sum <- into.hc_sum +. src.hc_sum;
  if src.hc_min < into.hc_min then into.hc_min <- src.hc_min;
  if src.hc_max > into.hc_max then into.hc_max <- src.hc_max

let hcell_copy c =
  {
    buckets = Array.copy c.buckets;
    hc_count = c.hc_count;
    hc_sum = c.hc_sum;
    hc_min = c.hc_min;
    hc_max = c.hc_max;
  }

(* ---------- per-domain sink ---------- *)

type sink = {
  mutable counts : int array; (* indexed by counter id *)
  mutable hcells : hcell option array; (* indexed by hist id *)
  sk_gauges : (string, float ref) Hashtbl.t;
}

let sink_create () =
  {
    counts = Array.make 64 0;
    hcells = Array.make 16 None;
    sk_gauges = Hashtbl.create 8;
  }

let sink_clear s =
  Array.fill s.counts 0 (Array.length s.counts) 0;
  Array.iter (function Some c -> hcell_clear c | None -> ()) s.hcells;
  Hashtbl.reset s.sk_gauges

let sink_key = Domain.DLS.new_key (fun () -> sink_create ())
let local () = Domain.DLS.get sink_key

(* the cross-domain aggregate, fed by [publish] *)
let published = sink_create ()
let pub_mutex = Mutex.create ()

let grow_pow2 need len =
  let n = ref (max 16 len) in
  while !n <= need do
    n := !n * 2
  done;
  !n

let counts_cell s id =
  let len = Array.length s.counts in
  if id >= len then begin
    let a = Array.make (grow_pow2 id len) 0 in
    Array.blit s.counts 0 a 0 len;
    s.counts <- a
  end;
  s.counts

let hcell_of s id =
  let len = Array.length s.hcells in
  if id >= len then begin
    let a = Array.make (grow_pow2 id len) None in
    Array.blit s.hcells 0 a 0 len;
    s.hcells <- a
  end;
  match s.hcells.(id) with
  | Some c -> c
  | None ->
      let c = hcell_create () in
      s.hcells.(id) <- Some c;
      c

(* ---------- counters / gauges ---------- *)

let add c n =
  if !on then begin
    let counts = counts_cell (local ()) c.c_id in
    counts.(c.c_id) <- counts.(c.c_id) + n
  end

let read_count s id = if id < Array.length s.counts then s.counts.(id) else 0

let counter_value c =
  read_count (local ()) c.c_id
  + locked pub_mutex (fun () -> read_count published c.c_id)

let incr_counter ?(by = 1) name = add (counter name) by

let set_gauge name v =
  if !on then
    let s = local () in
    match Hashtbl.find_opt s.sk_gauges name with
    | Some r -> r := v
    | None -> Hashtbl.replace s.sk_gauges name (ref v)

(* ---------- histogram recording ---------- *)

let bucket_of v =
  if v <= 0.0 || Float.is_nan v then 0
  else begin
    let m, e = Float.frexp v in
    if e < -63 then 0
    else if e > 63 then n_buckets - 1
    else begin
      let sub = int_of_float ((m -. 0.5) *. 32.0) in
      let sub = if sub < 0 then 0 else if sub > 15 then 15 else sub in
      ((e + 64) * n_sub) + sub
    end
  end

(* midpoint of the bucket's value range *)
let bucket_value i =
  let e = (i / n_sub) - 64 in
  let sub = i mod n_sub in
  Float.ldexp (0.5 +. ((float_of_int sub +. 0.5) /. 32.0)) e

let record h v =
  if !on then begin
    let c = hcell_of (local ()) h.h_id in
    let i = bucket_of v in
    c.buckets.(i) <- c.buckets.(i) + 1;
    c.hc_count <- c.hc_count + 1;
    c.hc_sum <- c.hc_sum +. v;
    if v < c.hc_min then c.hc_min <- v;
    if v > c.hc_max then c.hc_max <- v
  end

let record_named name v = record (hist name) v

(* merged view of one histogram: own sink (+) published *)
let hcell_view h =
  let merged = hcell_create () in
  let s = local () in
  (if h.h_id < Array.length s.hcells then
     match s.hcells.(h.h_id) with
     | Some c -> hcell_fold ~into:merged c
     | None -> ());
  locked pub_mutex (fun () ->
      if h.h_id < Array.length published.hcells then
        match published.hcells.(h.h_id) with
        | Some c -> hcell_fold ~into:merged c
        | None -> ());
  merged

let hcell_quantile c q =
  if c.hc_count = 0 then 0.0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let target =
      let r = int_of_float (Float.round (q *. float_of_int c.hc_count)) in
      if r < 1 then 1 else r
    in
    let acc = ref 0 and i = ref 0 and result = ref c.hc_max in
    (try
       while !i < n_buckets do
         acc := !acc + c.buckets.(!i);
         if !acc >= target then begin
           result := bucket_value !i;
           raise Exit
         end;
         incr i
       done
     with Exit -> ());
    (* exact bounds beat the bucket midpoint at the extremes *)
    if !result < c.hc_min then c.hc_min
    else if !result > c.hc_max then c.hc_max
    else !result
  end

type hist_summary = {
  hs_count : int;
  hs_min : float;
  hs_max : float;
  hs_mean : float;
  hs_p50 : float;
  hs_p95 : float;
  hs_p99 : float;
}

let hcell_summary c =
  if c.hc_count = 0 then
    {
      hs_count = 0; hs_min = 0.0; hs_max = 0.0; hs_mean = 0.0;
      hs_p50 = 0.0; hs_p95 = 0.0; hs_p99 = 0.0;
    }
  else
    {
      hs_count = c.hc_count;
      hs_min = c.hc_min;
      hs_max = c.hc_max;
      hs_mean = c.hc_sum /. float_of_int c.hc_count;
      hs_p50 = hcell_quantile c 0.50;
      hs_p95 = hcell_quantile c 0.95;
      hs_p99 = hcell_quantile c 0.99;
    }

let hist_summary h = hcell_summary (hcell_view h)
let hist_quantile h q = hcell_quantile (hcell_view h) q

(* ---------- exports: immutable sink snapshots with a deterministic,
   associative merge — the unit the campaign pool moves between
   domains ---------- *)

module Export = struct
  type t = {
    e_counters : (string * int) list; (* sorted by name, nonzero only *)
    e_gauges : (string * float) list; (* sorted by name *)
    e_hists : (string * hcell) list; (* sorted by name, nonempty only *)
  }

  let empty = { e_counters = []; e_gauges = []; e_hists = [] }

  let of_sink s =
    let cs =
      List.filter_map
        (fun c ->
          let v = read_count s c.c_id in
          if v = 0 then None else Some (c.c_name, v))
        (all_counters ())
    in
    let hs =
      List.filter_map
        (fun h ->
          if h.h_id < Array.length s.hcells then
            match s.hcells.(h.h_id) with
            | Some c when c.hc_count > 0 -> Some (h.h_name, hcell_copy c)
            | _ -> None
          else None)
        (all_hists ())
    in
    let by_name (a, _) (b, _) = String.compare a b in
    {
      e_counters = List.sort by_name cs;
      e_gauges =
        Hashtbl.fold (fun k r acc -> (k, !r) :: acc) s.sk_gauges []
        |> List.sort by_name;
      e_hists = List.sort by_name hs;
    }

  let of_local () = of_sink (local ())
  let of_published () = locked pub_mutex (fun () -> of_sink published)

  (* merge two sorted-by-name assoc lists with [f] on collisions *)
  let rec union f xs ys =
    match (xs, ys) with
    | [], l | l, [] -> l
    | (kx, vx) :: xt, (ky, vy) :: yt ->
        let c = String.compare kx ky in
        if c < 0 then (kx, vx) :: union f xt ys
        else if c > 0 then (ky, vy) :: union f xs yt
        else (kx, f vx vy) :: union f xt yt

  let merge a b =
    {
      e_counters = union ( + ) a.e_counters b.e_counters;
      e_gauges = union Float.max a.e_gauges b.e_gauges;
      e_hists =
        union
          (fun x y ->
            let m = hcell_copy x in
            hcell_fold ~into:m y;
            m)
          a.e_hists b.e_hists;
    }

  let counters e = e.e_counters
  let gauges e = e.e_gauges
  let hists e = List.map (fun (n, c) -> (n, hcell_summary c)) e.e_hists

  (* fold an export into a sink (registry ids resolved by name) *)
  let absorb_into s e =
    List.iter
      (fun (n, v) ->
        let c = counter n in
        let counts = counts_cell s c.c_id in
        counts.(c.c_id) <- counts.(c.c_id) + v)
      e.e_counters;
    List.iter
      (fun (n, v) ->
        match Hashtbl.find_opt s.sk_gauges n with
        | Some r -> r := Float.max !r v
        | None -> Hashtbl.replace s.sk_gauges n (ref v))
      e.e_gauges;
    List.iter
      (fun (n, src) ->
        let h = hist n in
        hcell_fold ~into:(hcell_of s h.h_id) src)
      e.e_hists

  let absorb e = locked pub_mutex (fun () -> absorb_into published e)
end

let publish () =
  let s = local () in
  let e = Export.of_sink s in
  sink_clear s;
  Export.absorb e

(* ---------- snapshot / reset ---------- *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  hists : (string * hist_summary) list;
}

let snapshot () =
  (* all registered names (zeros included, as before), own + published *)
  let merged = Export.merge (Export.of_local ()) (Export.of_published ()) in
  let by_name (a, _) (b, _) = String.compare a b in
  let cs =
    List.map
      (fun c ->
        ( c.c_name,
          match List.assoc_opt c.c_name merged.Export.e_counters with
          | Some v -> v
          | None -> 0 ))
      (all_counters ())
    |> List.sort by_name
  in
  let hs =
    List.map
      (fun h ->
        ( h.h_name,
          match List.assoc_opt h.h_name merged.Export.e_hists with
          | Some c -> hcell_summary c
          | None -> hcell_summary (hcell_create ()) ))
      (all_hists ())
    |> List.sort by_name
  in
  { counters = cs; gauges = merged.Export.e_gauges; hists = hs }

let reset () =
  sink_clear (local ());
  locked pub_mutex (fun () -> sink_clear published)

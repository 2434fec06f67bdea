type summary = {
  n : int;
  mean : float;
  stdev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let mean l =
  match l with
  | [] -> invalid_arg "Stats.mean: empty"
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let stdev l =
  match l with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean l in
      let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 l in
      sqrt (ss /. float_of_int (List.length l - 1))

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if n = 1 then sorted.(0)
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let summarize l =
  match l with
  | [] -> invalid_arg "Stats.summarize: empty"
  | _ ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      {
        n = Array.length a;
        mean = mean l;
        stdev = stdev l;
        min = a.(0);
        max = a.(Array.length a - 1);
        p50 = percentile a 0.5;
        p95 = percentile a 0.95;
        p99 = percentile a 0.99;
      }

let summary_or_zero = function
  | [] ->
      { n = 0; mean = 0.0; stdev = 0.0; min = 0.0; max = 0.0; p50 = 0.0;
        p95 = 0.0; p99 = 0.0 }
  | l -> summarize l

let jitter l =
  match l with
  | [] -> 0.0
  | x :: _ ->
      let mn = List.fold_left Float.min x l in
      let mx = List.fold_left Float.max x l in
      mx -. mn

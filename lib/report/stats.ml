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

(* the folds run over flat float arrays in sample order, so no running
   total is boxed *)
let sum a =
  let s = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    s := !s +. a.(i)
  done;
  !s

let mean_a a = sum a /. float_of_int (Array.length a)

let stdev_a a =
  let n = Array.length a in
  if n < 2 then 0.0
  else begin
    let m = mean_a a in
    let ss = ref 0.0 in
    for i = 0 to n - 1 do
      ss := !ss +. ((a.(i) -. m) ** 2.0)
    done;
    sqrt (!ss /. float_of_int (n - 1))
  end

let mean l =
  match l with
  | [] -> invalid_arg "Stats.mean: empty"
  | _ -> mean_a (Array.of_list l)

let stdev l = stdev_a (Array.of_list l)

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

(* [Float.compare]'s order, NaN first, on unboxed operands *)
let[@inline] lt (x : float) y = x < y || (x <> x && y = y)

(* an ascending heap sort in that order: [Array.sort Float.compare] boxes
   both operands of every comparison *)
let sort_floats (a : float array) =
  let sift root len =
    let r = ref root and continue = ref true in
    while !continue do
      let c = (2 * !r) + 1 in
      if c >= len then continue := false
      else begin
        let c = if c + 1 < len && lt a.(c) a.(c + 1) then c + 1 else c in
        if lt a.(!r) a.(c) then begin
          let x = a.(!r) in
          a.(!r) <- a.(c);
          a.(c) <- x;
          r := c
        end
        else continue := false
      end
    done
  in
  let n = Array.length a in
  for root = (n / 2) - 1 downto 0 do
    sift root n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift 0 last
  done

let summarize l =
  match l with
  | [] -> invalid_arg "Stats.summarize: empty"
  | _ ->
      let a = Array.of_list l in
      let mean = mean_a a and stdev = stdev_a a in
      sort_floats a;
      {
        n = Array.length a;
        mean;
        stdev;
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
      let a = Array.of_list l in
      let mn = ref x and mx = ref x in
      for i = 0 to Array.length a - 1 do
        mn := Float.min !mn a.(i);
        mx := Float.max !mx a.(i)
      done;
      !mx -. !mn

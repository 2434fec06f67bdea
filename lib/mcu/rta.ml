type task = { tname : string; period : float; wcet : float; prio : int }

type verdict = { task : task; response : float; schedulable : bool }

let validate tasks =
  List.iter
    (fun t ->
      if t.period <= 0.0 || t.wcet <= 0.0 then
        invalid_arg (Printf.sprintf "Rta: task %s has non-positive parameters" t.tname))
    tasks;
  let prios = List.map (fun t -> t.prio) tasks in
  if List.length (List.sort_uniq Stdlib.compare prios) <> List.length prios then
    invalid_arg "Rta: duplicate priorities"

let utilization tasks =
  List.fold_left (fun acc t -> acc +. (t.wcet /. t.period)) 0.0 tasks

let rm_bound n =
  if n <= 0 then invalid_arg "Rta.rm_bound";
  float_of_int n *. ((2.0 ** (1.0 /. float_of_int n)) -. 1.0)

let higher_prio tasks t = List.filter (fun j -> j.prio < t.prio) tasks
let lower_prio tasks t = List.filter (fun j -> j.prio > t.prio) tasks

(* Fixed-point iteration with divergence cut-off at 1000 periods. *)
let iterate ~horizon f x0 =
  let rec go x n =
    if n > 10000 || x > horizon then infinity
    else
      let x' = f x in
      if Float.abs (x' -. x) < 1e-12 then x' else go x' (n + 1)
  in
  go x0 0

let preemptive tasks =
  validate tasks;
  List.map
    (fun t ->
      let hp = higher_prio tasks t in
      (* over-utilised priority levels have unbounded backlogs; the
         single-job fixed point would be misleading there *)
      let level_u = utilization (t :: hp) in
      if level_u > 1.0 then
        { task = t; response = infinity; schedulable = false }
      else
      let f r =
        t.wcet
        +. List.fold_left
             (fun acc j -> acc +. (Float.ceil (r /. j.period) *. j.wcet))
             0.0 hp
      in
      let response = iterate ~horizon:(1000.0 *. t.period) f t.wcet in
      { task = t; response; schedulable = response <= t.period +. 1e-12 })
    tasks

let non_preemptive tasks =
  validate tasks;
  List.map
    (fun t ->
      let hp = higher_prio tasks t in
      (* once a lower-priority job has started it runs to completion *)
      let blocking =
        List.fold_left (fun acc j -> Float.max acc j.wcet) 0.0 (lower_prio tasks t)
      in
      let level_u = utilization (t :: hp) in
      if level_u > 1.0 then
        { task = t; response = infinity; schedulable = false }
      else
      let horizon = 1000.0 *. t.period in
      (* a later job of the level-i busy period can respond later than
         the first (Davis, Burns, Bril & Lukkien 2007), so every job q
         of it is analysed: queueing until job q starts, with q earlier
         jobs of its own ahead; its execution follows unpreempted *)
      let busy =
        iterate ~horizon
          (fun w ->
            blocking
            +. List.fold_left
                 (fun acc j -> acc +. (Float.ceil (w /. j.period) *. j.wcet))
                 0.0 (t :: hp))
          t.wcet
      in
      let start q =
        iterate ~horizon
          (fun w ->
            blocking
            +. (float_of_int q *. t.wcet)
            +. List.fold_left
                 (fun acc j ->
                   acc +. ((Float.floor (w /. j.period) +. 1.0) *. j.wcet))
                 0.0 hp)
          (blocking +. (float_of_int q *. t.wcet))
      in
      let response =
        if not (Float.is_finite busy) then infinity
        else
          List.init (int_of_float (Float.ceil (busy /. t.period))) (fun q ->
              start q -. (float_of_int q *. t.period) +. t.wcet)
          |> List.fold_left Float.max 0.0
      in
      { task = t; response; schedulable = response <= t.period +. 1e-12 })
    tasks

let analyze ~preemptive:p tasks =
  let verdicts = if p then preemptive tasks else non_preemptive tasks in
  match List.find_opt (fun v -> not v.schedulable) verdicts with
  | None -> Ok verdicts
  | Some v ->
      Error
        (Printf.sprintf
           "task %s misses its deadline: worst-case response %.6g s > period %.6g s"
           v.task.tname v.response v.task.period)

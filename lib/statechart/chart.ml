type 'ctx state_def = {
  sname : string;
  parent : string option;
  initial : bool;
  history : bool;
  on_entry : 'ctx -> unit;
  on_exit : 'ctx -> unit;
}

type 'ctx transition_def = {
  src : string;
  dst : string;
  trigger : string option;
  guard : 'ctx -> bool;
  effect : 'ctx -> unit;
}

type 'ctx t = {
  states : (string, 'ctx state_def) Hashtbl.t;
  children : (string, string list) Hashtbl.t;  (* parent -> children *)
  roots : string list;
  transitions : 'ctx transition_def list;
  mutable leaf : string option;
  mutable path : string list;
      (* the active path, leaf first: [path_to_root] of [leaf], cached
         whenever the leaf changes; [] while stopped *)
  last_child : (string, string) Hashtbl.t;
      (* per composite: the child that was active when it last exited *)
}

let state ?parent ?(initial = false) ?(history = false)
    ?(on_entry = fun _ -> ()) ?(on_exit = fun _ -> ()) sname =
  { sname; parent; initial; history; on_entry; on_exit }

let transition ?trigger ?(guard = fun _ -> true) ?(effect = fun _ -> ()) ~src
    ~dst () =
  { src; dst; trigger; guard; effect }

let create state_defs transition_defs =
  let states = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if Hashtbl.mem states s.sname then
        invalid_arg (Printf.sprintf "Chart.create: duplicate state %s" s.sname);
      Hashtbl.replace states s.sname s)
    state_defs;
  let check_exists what n =
    if not (Hashtbl.mem states n) then
      invalid_arg (Printf.sprintf "Chart.create: %s references unknown state %s" what n)
  in
  List.iter
    (fun s -> match s.parent with Some p -> check_exists s.sname p | None -> ())
    state_defs;
  List.iter
    (fun tr ->
      check_exists "transition src" tr.src;
      check_exists "transition dst" tr.dst)
    transition_defs;
  (* detect parent cycles *)
  List.iter
    (fun s ->
      let rec walk seen n =
        if List.mem n seen then
          invalid_arg (Printf.sprintf "Chart.create: parent cycle through %s" n);
        match (Hashtbl.find states n).parent with
        | Some p -> walk (n :: seen) p
        | None -> ()
      in
      walk [] s.sname)
    state_defs;
  let children = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
          Hashtbl.replace children p
            (Hashtbl.find_opt children p |> Option.value ~default:[] |> fun l ->
             l @ [ s.sname ])
      | None -> ())
    state_defs;
  let roots = List.filter_map (fun s -> if s.parent = None then Some s.sname else None) state_defs in
  (* every composite state (and the root) needs exactly one initial child *)
  let check_initial name kids =
    let inits = List.filter (fun k -> (Hashtbl.find states k).initial) kids in
    match inits with
    | [ _ ] -> ()
    | [] -> invalid_arg (Printf.sprintf "Chart.create: %s has no initial child" name)
    | _ -> invalid_arg (Printf.sprintf "Chart.create: %s has several initial children" name)
  in
  check_initial "the chart root" roots;
  Hashtbl.iter check_initial children;
  { states; children; roots; transitions = transition_defs; leaf = None;
    path = []; last_child = Hashtbl.create 8 }

let path_to_root t name =
  let rec go acc n =
    match (Hashtbl.find t.states n).parent with
    | Some p -> go (p :: acc) p
    | None -> acc
  in
  name :: List.rev (go [] name)
(* leaf first, then ancestors up to root *)

let initial_child t name =
  match Hashtbl.find_opt t.children name with
  | None | Some [] -> None
  | Some kids -> List.find_opt (fun k -> (Hashtbl.find t.states k).initial) kids

(* Descend from a state to its innermost initial leaf, running entries;
   history composites resume their recorded child instead. *)
let rec enter_down t ctx name =
  let def = Hashtbl.find t.states name in
  def.on_entry ctx;
  let next =
    if def.history then
      match Hashtbl.find_opt t.last_child name with
      | Some k -> Some k
      | None -> initial_child t name
    else initial_child t name
  in
  match next with
  | Some k -> enter_down t ctx k
  | None ->
      t.leaf <- Some name;
      t.path <- path_to_root t name

let start t ctx =
  match List.find_opt (fun r -> (Hashtbl.find t.states r).initial) t.roots with
  | Some r -> enter_down t ctx r
  | None -> invalid_arg "Chart.start: no initial root state"

let active_leaf t =
  match t.leaf with Some l -> l | None -> failwith "Chart: not started"

let active_path t =
  match t.leaf with Some _ -> t.path | None -> failwith "Chart: not started"

let is_in t name =
  let rec mem = function
    | [] -> false
    | s :: rest -> String.equal s name || mem rest
  in
  mem (active_path t)

let fire t ctx tr =
  (* Exit from the leaf up to (excluding) the LCA of src-path and dst. *)
  let dst_path = path_to_root t tr.dst in
  let leaf_path = active_path t in
  let lca =
    List.find_opt (fun a -> List.mem a dst_path) leaf_path
  in
  (* Self- and descendant-targets re-enter the source: exit the LCA too
     when it is the active leaf itself. *)
  let stop_at = if lca = Some (active_leaf t) then
      (Hashtbl.find t.states (active_leaf t)).parent
    else lca
  in
  let rec exit_up n =
    if Some n <> stop_at then begin
      let def = Hashtbl.find t.states n in
      def.on_exit ctx;
      (* record the exited child for the parent's shallow history *)
      (match def.parent with
      | Some p -> Hashtbl.replace t.last_child p n
      | None -> ());
      match def.parent with Some p -> exit_up p | None -> ()
    end
  in
  exit_up (active_leaf t);
  tr.effect ctx;
  (* Enter from below the LCA down to dst, then to dst's initial leaf. *)
  let entry_chain =
    let rec below acc = function
      | [] -> acc
      | x :: rest ->
          if Some x = lca then acc else below (x :: acc) rest
    in
    below [] dst_path
  in
  let rec enter_chain = function
    | [] -> ()
    | [ last ] -> enter_down t ctx last
    | x :: rest ->
        (Hashtbl.find t.states x).on_entry ctx;
        enter_chain rest
  in
  (match entry_chain with
  | [] -> enter_down t ctx tr.dst
  | chain -> enter_chain chain)

let enabled t ctx event =
  (* innermost source wins: search the active path leaf-outward *)
  let path = active_path t in
  let rec search = function
    | [] -> None
    | s :: rest -> (
        match
          List.find_opt
            (fun tr -> tr.src = s && tr.trigger = event && tr.guard ctx)
            t.transitions
        with
        | Some tr -> Some tr
        | None -> search rest)
  in
  search path

let rec run_eventless t ctx fired =
  if fired > 32 then failwith "Chart: eventless transition livelock";
  match enabled t ctx None with
  | Some tr ->
      fire t ctx tr;
      run_eventless t ctx (fired + 1)
  | None -> fired > 0

let tick t ctx = run_eventless t ctx 0

let dispatch t ctx event =
  match enabled t ctx (Some event) with
  | Some tr ->
      fire t ctx tr;
      ignore (run_eventless t ctx 1);
      true
  | None -> ignore (run_eventless t ctx 0); false

let reset t =
  t.leaf <- None;
  t.path <- [];
  Hashtbl.reset t.last_child

let save t =
  let leaf = t.leaf and path = t.path and last = Hashtbl.copy t.last_child in
  fun () ->
    t.leaf <- leaf;
    t.path <- path;
    Hashtbl.reset t.last_child;
    Hashtbl.iter (Hashtbl.replace t.last_child) last

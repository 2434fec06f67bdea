type blk = int
type group = int

exception Model_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Model_error s)) fmt

type entry = {
  spec : Block.spec;
  bname : string;
  mutable egroup : group option;
}

type t = {
  mname : string;
  entries : (blk, entry) Hashtbl.t;
  mutable next_blk : int;
  mutable order : blk list;  (* reversed insertion order *)
  wires : (blk * int, blk * int) Hashtbl.t;  (* dst -> src *)
  events : (blk * int, group) Hashtbl.t;
  group_names : (group, string) Hashtbl.t;
  mutable next_group : int;
  by_name : (string, blk) Hashtbl.t;
}

let create mname =
  {
    mname;
    entries = Hashtbl.create 32;
    next_blk = 0;
    order = [];
    wires = Hashtbl.create 64;
    events = Hashtbl.create 8;
    group_names = Hashtbl.create 4;
    next_group = 0;
    by_name = Hashtbl.create 32;
  }

let name t = t.mname

let entry t b =
  match Hashtbl.find_opt t.entries b with
  | Some e -> e
  | None -> err "model %s: unknown block id %d" t.mname b

let add t ?name spec =
  let id = t.next_blk in
  let bname =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "%s%d" spec.Block.kind id
  in
  if Hashtbl.mem t.by_name bname then
    err "model %s: duplicate block name %S" t.mname bname;
  t.next_blk <- id + 1;
  Hashtbl.replace t.entries id { spec; bname; egroup = None };
  Hashtbl.replace t.by_name bname id;
  t.order <- id :: t.order;
  id

let connect t ~src:(sb, sp) ~dst:(db, dp) =
  let se = entry t sb and de = entry t db in
  if sp < 0 || sp >= se.spec.Block.n_out then
    err "model %s: %s has no output port %d" t.mname se.bname sp;
  if dp < 0 || dp >= de.spec.Block.n_in then
    err "model %s: %s has no input port %d" t.mname de.bname dp;
  if Hashtbl.mem t.wires (db, dp) then
    err "model %s: input %s:%d already driven" t.mname de.bname dp;
  Hashtbl.replace t.wires (db, dp) (sb, sp)

let fc_group t gname =
  let g = t.next_group in
  t.next_group <- g + 1;
  Hashtbl.replace t.group_names g gname;
  g

let assign_group t b g =
  if not (Hashtbl.mem t.group_names g) then
    err "model %s: unknown group %d" t.mname g;
  (entry t b).egroup <- Some g

let connect_event t ~src:(sb, ep) g =
  let se = entry t sb in
  if ep < 0 || ep >= Array.length se.spec.Block.event_outs then
    err "model %s: %s has no event output %d" t.mname se.bname ep;
  if not (Hashtbl.mem t.group_names g) then
    err "model %s: unknown group %d" t.mname g;
  if Hashtbl.mem t.events (sb, ep) then
    err "model %s: event %s:%d already wired" t.mname se.bname ep;
  Hashtbl.replace t.events (sb, ep) g

let blocks t = List.rev t.order
let spec_of t b = (entry t b).spec
let block_name t b = (entry t b).bname
let find t n =
  match Hashtbl.find_opt t.by_name n with Some b -> b | None -> raise Not_found

let group_of t b = (entry t b).egroup

let group_name t g =
  match Hashtbl.find_opt t.group_names g with
  | Some n -> n
  | None -> err "model %s: unknown group %d" t.mname g

let groups t = List.init t.next_group (fun i -> i)

let group_blocks t g =
  List.filter (fun b -> (entry t b).egroup = Some g) (blocks t)

let driver t (b, p) = Hashtbl.find_opt t.wires (b, p)
let event_target t (b, p) = Hashtbl.find_opt t.events (b, p)
let n_blocks t = t.next_blk
let blk_index b = b
let group_index g = g

let inline parent ~prefix ~sub ~inputs =
  let port_index spec params_name =
    match Param.int_opt spec.Block.params params_name with
    | Some i -> i
    | None -> err "inline: %s block lacks an index parameter" spec.Block.kind
  in
  (* Map sub groups into parent groups. *)
  let gmap = Hashtbl.create 4 in
  List.iter
    (fun g ->
      let g' = fc_group parent (prefix ^ "/" ^ group_name sub g) in
      Hashtbl.replace gmap g g')
    (groups sub);
  (* Copy non-boundary blocks. *)
  let bmap = Hashtbl.create 16 in
  let outport_srcs = Hashtbl.create 4 in
  let n_outports = ref 0 in
  List.iter
    (fun b ->
      let e = entry sub b in
      match e.spec.Block.kind with
      | "Inport" -> ()
      | "Outport" ->
          let idx = port_index e.spec "index" in
          n_outports := Stdlib.max !n_outports (idx + 1);
          (match driver sub (b, 0) with
          | Some src -> Hashtbl.replace outport_srcs idx src
          | None -> err "inline: Outport %d of %s is unconnected" idx (name sub))
      | _ ->
          let b' = add parent ~name:(prefix ^ "/" ^ e.bname) e.spec in
          (match e.egroup with
          | Some g -> assign_group parent b' (Hashtbl.find gmap g)
          | None -> ());
          Hashtbl.replace bmap b b')
    (blocks sub);
  (* Resolve a sub-side source port to a parent-side one, following Inport
     boundaries out to the provided parent inputs. *)
  let resolve_src (sb, sp) =
    let e = entry sub sb in
    if e.spec.Block.kind = "Inport" then begin
      let idx = port_index e.spec "index" in
      if idx < 0 || idx >= Array.length inputs then
        err "inline: no parent input for Inport %d" idx;
      inputs.(idx)
    end
    else (Hashtbl.find bmap sb, sp)
  in
  (* Copy data wires whose destination survived. *)
  Hashtbl.iter
    (fun (db, dp) src ->
      match Hashtbl.find_opt bmap db with
      | Some db' -> connect parent ~src:(resolve_src src) ~dst:(db', dp)
      | None -> () (* destination was a boundary block *))
    sub.wires;
  (* Copy event wires. *)
  Hashtbl.iter
    (fun (sb, ep) g ->
      match Hashtbl.find_opt bmap sb with
      | Some sb' -> connect_event parent ~src:(sb', ep) (Hashtbl.find gmap g)
      | None -> ())
    sub.events;
  Array.init !n_outports (fun i ->
      match Hashtbl.find_opt outport_srcs i with
      | Some src -> resolve_src src
      | None -> err "inline: missing Outport %d in %s" i (name sub))

(* The experiment harness: regenerates every table- and figure-shaped
   result of the paper's evaluation (see DESIGN.md's per-experiment index
   and EXPERIMENTS.md for paper-vs-measured), then runs the bechamel
   micro-benches perfbench has no layer for (P2, P4, P5).

   Usage:
     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- e5 e6   -- selected experiments only
     dune exec bench/main.exe -- --list  -- list experiment names *)

let experiments =
  [
    ("e1", Exp_e1.run);
    ("e2", Exp_e2.run);
    ("e3", Exp_e3.run);
    ("e4", Exp_e4.run);
    ("e5", Exp_e5.run);
    ("e6", Exp_e6.run);
    ("e7", Exp_e7.run);
    ("e8", Exp_e8.run);
    ("perf", Perf.run);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.exists (fun a -> a = "--list" || a = "-l") args then begin
    List.iter (fun (name, _) -> print_endline name) experiments;
    exit 0
  end;
  let names = List.map String.lowercase_ascii args in
  (* validate the whole selection before running anything, so a typo in
     the last name does not waste the minutes spent on the first ones *)
  let unknown =
    List.filter (fun n -> not (List.mem_assoc n experiments)) names
  in
  if unknown <> [] then begin
    Printf.eprintf "unknown experiment%s %s; available: %s (or --list)\n"
      (if List.length unknown > 1 then "s" else "")
      (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
      (String.concat " " (List.map fst experiments));
    exit 1
  end;
  let selected = if names = [] then List.map fst experiments else names in
  List.iter (fun name -> (List.assoc name experiments) ()) selected

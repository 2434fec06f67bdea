(* calib.exe N — the benchmark's fixed host-speed reference.

   N steps of random reads and writes over an 8 MB float array plus
   short-lived boxed allocations: work shaped like the program's (a
   working set of a few MB, a busy minor heap), written here so that no
   change to the program can change it. The host this benchmark runs on
   changes speed by up to 1.7x over seconds to minutes, and memory-bound
   work slows the most; timing this program next to the workload's ops
   measures that speed. *)

let () =
  let n = int_of_string Sys.argv.(1) in
  let size = 1 lsl 20 in
  let a = Array.init size float_of_int in
  let keep = Array.make 4096 [] in
  let x = ref 12345 and s = ref 0.0 in
  for k = 1 to n do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let i = !x land (size - 1) in
    s := !s +. a.(i);
    a.(i) <- !s *. 0.5;
    let j = k land 4095 in
    keep.(j) <- (float_of_int k, !s) :: (if k land 7 = 0 then [] else keep.(j))
  done;
  if Float.is_nan !s then exit 1

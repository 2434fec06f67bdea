(* ecsd serve as a library: line reassembly, the ordered emitter and the
   queue loop, driven with untrusted input. *)

open QCheck2

(* ---- split ---- *)

(* the job lines of a whole stream: every newline-separated piece,
   trimmed, the unterminated last one included, without blank lines
   and comments *)
let job_lines s =
  String.split_on_char '\n' s
  |> List.map String.trim
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

(* [Serve.split] fed chunk by chunk, the way the loop reads *)
let feed chunks =
  let lines, tail =
    List.fold_left
      (fun (acc, tail) chunk ->
        let ls, tail = Serve.split (tail ^ chunk) in
        (List.rev_append ls acc, tail))
      ([], "") chunks
  in
  List.rev_append lines (fst (Serve.split (tail ^ "\n")))

(* bytes with the separators split and trim care about, often *)
let stream_gen =
  Gen.(
    string_size
      ~gen:
        (frequency
           [ (4, char); (3, oneofl [ '\n'; ' '; '#'; '\r'; '\t'; '\000' ]) ])
      (int_range 0 300))

let chunked s cuts =
  let n = String.length s in
  let cuts = List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts) in
  let rec go from = function
    | [] -> [ String.sub s from (n - from) ]
    | c :: rest -> String.sub s from (c - from) :: go c rest
  in
  go 0 cuts

let prop_split_chunking =
  Test.make ~name:"split: any chunking gives the lines of the whole stream"
    ~count:500 ~print:Print.(pair string (list int))
    Gen.(pair stream_gen (list_size (int_range 0 12) nat))
    (fun (s, cuts) ->
      let want = job_lines s in
      feed (chunked s cuts) = want && feed [ s ] = want)

(* ---- the ordered emitter ---- *)

let prop_emitter_order =
  Test.make
    ~name:"emitter: any completion order outputs each record once, in id order"
    ~count:300 ~print:Print.(list int)
    Gen.(int_range 0 40 >>= fun n -> shuffle_l (List.init n Fun.id))
    (fun order ->
      let n = List.length order in
      let out = ref [] in
      let e = Serve.emitter ~heartbeat:0 (fun r -> out := r :: !out) in
      let admitted = List.init n (fun _ -> Serve.admit e) in
      let done_ = Array.make n false in
      (* after each completion, exactly the completed prefix is out *)
      List.for_all
        (fun id ->
          Serve.complete e id (string_of_int id);
          done_.(id) <- true;
          let rec prefix i = if i < n && done_.(i) then prefix (i + 1) else i in
          List.rev !out = List.init (prefix 0) string_of_int)
        order
      && admitted = List.init n Fun.id)

(* ---- the loop ---- *)

let config = Servo_system.default_config

let parse_record l =
  match Bench_json.parse l with
  | v -> Some v
  | exception _ -> None

let int_field k v =
  match Bench_json.member k v with
  | Some (Bench_json.Int i) -> Some i
  | _ -> None

let with_file contents f =
  let path = Filename.temp_file "ecsd_serve" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd))

(* the records a loop outputs, in output order *)
let run_loop ~jobs fd =
  let out = ref [] in
  Serve.loop ~config ~jobs ~heartbeat:0 ~policy:Supervise.default_policy
    ~queue:0 ~out:(fun l -> out := l :: !out) fd;
  List.rev !out

let real_jobs = [ "diff servo 5"; "faultsim sensor-stuck 1 0.01"; "stats" ]

(* arbitrary bytes (NUL, CR, bytes >= 0x80) mixed with small real jobs,
   with or without a final newline *)
let input_gen =
  Gen.(
    map2
      (fun lines nl -> String.concat "\n" lines ^ if nl then "\n" else "")
      (list_size (int_range 0 6)
         (frequency
            [ (2, oneofl real_jobs); (3, string_size (int_range 0 20)) ]))
      bool)

let prop_loop_records =
  Test.make
    ~name:
      "loop: one parseable record per job line, ids in order, at 1 and 3 \
       workers"
    ~count:100 ~print:Print.string input_gen
    (fun input ->
      let n = List.length (job_lines input) in
      List.for_all
        (fun jobs ->
          let records =
            List.map parse_record (with_file input (run_loop ~jobs))
          in
          List.length records = n
          && List.for_all2
               (fun id r ->
                 match r with
                 | Some v -> (
                     int_field "id" v = Some id
                     &&
                     match int_field "exit" v with
                     | Some x -> 0 <= x && x <= 6
                     | None -> false)
                 | None -> false)
               (List.init n Fun.id) records)
        [ 1; 3 ])

(* [script] is (chunk, records to wait for before writing it), fed
   through a pipe by another domain *)
let run_piped ~queue ~policy script =
  let r, w = Unix.pipe ~cloexec:true () in
  let seen = Atomic.make 0 in
  let writer =
    Domain.spawn (fun () ->
        List.iter
          (fun (chunk, after) ->
            while Atomic.get seen < after do
              Unix.sleepf 0.001
            done;
            ignore (Unix.write_substring w chunk 0 (String.length chunk)))
          script;
        Unix.close w)
  in
  let out = ref [] in
  Serve.loop ~config ~jobs:1 ~heartbeat:0 ~policy ~queue
    ~out:(fun l ->
      out := l :: !out;
      Atomic.incr seen)
    r;
  Domain.join writer;
  Unix.close r;
  List.rev_map
    (fun l ->
      let v = Bench_json.parse l in
      Option.get (int_field "exit" v))
    !out

(* far past the deadline: 64 seeds of 20 s, cancelled at a step *)
let slow = "faultsim noise-burst 64 20.0\n"

let prop_worker_survives =
  Test.make
    ~name:
      "loop: a shed and a timed-out job are each followed by one that \
       completes"
    ~count:3 ~print:Print.string (Gen.oneofl real_jobs)
    (fun next ->
      let policy =
        { Supervise.deadline_s = Some 0.3 }
      in
      run_piped ~queue:0 ~policy [ (slow ^ next ^ "\n", 0) ] = [ 3; 0 ]
      && run_piped ~queue:1 ~policy
           [ (slow ^ "stats\n", 0); (next ^ "\n", 2) ]
         = [ 3; 6; 0 ])

(* under ECSD_WALL_ZERO a serve stream is byte-comparable, its `stats`
   record included: the job-latency histogram is wall time *)
let test_stats_wall_zero () =
  let obs = Obs.enabled () in
  Unix.putenv "ECSD_WALL_ZERO" "1";
  Fun.protect ~finally:(fun () ->
      Unix.putenv "ECSD_WALL_ZERO" "";
      Obs.reset ();
      Obs.set_enabled obs)
  @@ fun () ->
  let run () =
    Obs.reset ();
    Obs.set_enabled true;
    Silvm_compile.cache_clear ();
    with_file "diff servo 5\nfaultsim sensor-stuck 1 0.01\nstats\n"
      (run_loop ~jobs:1)
  in
  let first = run () in
  let stats =
    List.find (fun l -> Astring_contains.contains l "\"hists\"") first
  in
  Alcotest.(check bool) "stats records a job-latency histogram" true
    (Astring_contains.contains stats "serve.job_s");
  Alcotest.(check (list string)) "two runs print the same bytes" first (run ())

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_split_chunking; prop_emitter_order; prop_loop_records;
      prop_worker_survives ]
  @ [
      Alcotest.test_case "stats: wall times zeroed under ECSD_WALL_ZERO"
        `Quick test_stats_wall_zero;
    ]

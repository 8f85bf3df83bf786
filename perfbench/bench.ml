(* The end-to-end benchmark program.  Usage, from the repository root
   after [dune build]:

     bench.exe --workload W --seed N --seconds S --trace 0|1 --oqf PATH

   prints a run record and, as its last line, one JSON result; see
   README.md.  It works in .perfbench/ under the current directory and
   removes its run directory when it exits. *)

open Perfbench
open Common

let arg name args =
  let rec go = function
    | k :: v :: _ when k = "--" ^ name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* --- the cold worker process ------------------------------------------- *)

(* Runs the cold ops in a process of its own, so its peak RSS is that of
   the work alone; writes one line per op, then its VmHWM and the last
   handle's instance cache. *)
let cold_worker ~seed ~reads ~catalog ~out =
  let seq = sequence Cold_catalog ~seed ~reads in
  let oc = open_out out in
  let last = ref None in
  Array.iteri
    (fun i (r : Mix.req) ->
      (* each op starts from a compacted heap, as a fresh process would *)
      Gc.compact ();
      let cat, op = Drive.cold_op ~catalog r in
      last := Some cat;
      Printf.fprintf oc "op %d %.17g %.17g" i op.Drive.lat
        (Option.value ~default:(-1.) op.Drive.first);
      List.iter (fun (f, rows) -> Printf.fprintf oc " %s=%s" f (Oracle.digest rows)) op.Drive.op_rows;
      output_char oc '\n')
    seq;
  let budget, used = cache_bytes (Option.get !last) in
  Printf.fprintf oc "rss_kb %d\ncache %d %d\n" (Wire.vm_hwm_kb "self") budget used;
  close_out oc

(* --- timed runs --------------------------------------------------------- *)

type timed = {
  lat : float list;  (** read latencies, ms *)
  first : float list;  (** time to first row, reads with rows *)
  wall_ms : float;  (** the read loop *)
  rss_kb : int;
  cache : int * int;
  attempted : int;
  failed : int;
  write_lat : float list;
}

let setups = 3

(* Set up [setups] times, report the median time, keep the last. *)
let timed_setup w ~seed ~oqf =
  let times = ref [] in
  let kept = ref None in
  for i = 1 to setups do
    let t0 = now_ms () in
    let s = setup w ~seed ~oqf ~with_daemon:(w <> Cold_catalog) (Printf.sprintf "setup%d" i) in
    times := ((now_ms () -. t0) /. 1000.) :: !times;
    if i < setups then teardown s else kept := Some s
  done;
  (Option.get !kept, List.rev !times)

let split_digest d =
  match String.index_opt d '=' with
  | Some k -> (String.sub d 0 k, String.sub d (k + 1) (String.length d - k - 1))
  | None -> (d, "")

let run_cold ~seed ~reads s o =
  let seq = sequence Cold_catalog ~seed ~reads in
  let out = "cold.out" in
  let t0 = now_ms () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--role"; "cold-worker"; "--seed"; string_of_int seed;
         "--reads"; string_of_int reads; "--catalog"; s.catalog; "--out"; out |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  (match Wire.waitpid_noeintr pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "cold worker failed");
  let wall_ms = now_ms () -. t0 in
  let lat = ref [] and first = ref [] and failed = ref 0 in
  let rss_kb = ref 0 and cache = ref (0, 0) in
  let ic = open_in out in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | "op" :: i :: l :: fr :: digests ->
           let r = seq.(int_of_string i) in
           lat := float_of_string l :: !lat;
           let fr = float_of_string fr in
           if fr >= 0. then first := fr :: !first;
           let got = List.map split_digest digests in
           let ok =
             List.for_all
               (fun file ->
                 Option.value ~default:(Oracle.digest []) (List.assoc_opt file got)
                 = Oracle.expected o ~file r.text)
               (Oracle.files_of_schema o r.schema)
           in
           if not ok then incr failed
       | [ "rss_kb"; kb ] -> rss_kb := int_of_string kb
       | [ "cache"; b; u ] -> cache := (int_of_string b, int_of_string u)
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  { lat = !lat; first = !first; wall_ms; rss_kb = !rss_kb; cache = !cache;
    attempted = List.length !lat; failed = !failed; write_lat = [] }

let run_daemon w ~seed ~reads s o =
  let seq = sequence w ~seed ~reads in
  let results, wall_ms =
    Drive.run_serve w ~readers:(if w = Serve_ingest then 1 else 2) ~seed s ~seq
      ~writes:(write_ops w ~reads)
  in
  let d = Option.get s.daemon in
  let rss_kb = Wire.vm_hwm_kb (string_of_int d.Wire.pid) in
  Wire.stop d;
  let reads, writes = List.partition (fun r -> not r.Drive.is_write) results in
  {
    lat = List.map Drive.latency reads;
    first = List.filter_map (fun r -> Option.map (fun t -> t -. r.Drive.t_send) r.Drive.t_first) reads;
    wall_ms;
    rss_kb;
    cache = warm_cache_bytes s.catalog;
    attempted = List.length results;
    failed = Drive.verify w ~seed o ~seq results;
    write_lat = List.map Drive.latency writes;
  }

let timed w ~seed ~seconds ~oqf =
  let reads = read_ops w ~seconds in
  let s, setup_times = timed_setup w ~seed ~oqf in
  let o = oracle_for w ~seed in
  let t = (if w = Cold_catalog then run_cold else run_daemon w) ~seed ~reads s o in
  let failed = t.failed + List.length o.Oracle.errors in
  let n = List.length t.lat in
  let p q xs = if xs = [] then 0. else Stat.percentile ~p:q xs in
  let metrics =
    [
      ("setup_s", "s", Stat.median setup_times);
      ("query_p50_ms", "ms", p 50. t.lat);
      ("query_p90_ms", "ms", p 90. t.lat);
      ("first_row_p50_ms", "ms", p 50. t.first);
      ("throughput_qps", "1/s", float_of_int n /. (t.wall_ms /. 1000.));
      ("peak_rss_mb", "MiB", float_of_int t.rss_kb /. 1024.);
      ("index_bytes_per_source_byte", "ratio", float_of_int (du s.catalog) /. float_of_int (source_bytes s));
    ]
  in
  let fl xs = "[" ^ String.concat ", " (List.map json_num xs) ^ "]" in
  print_endline
    (record_line
       (record_fields w ~seed s ~reads:n ~writes:(List.length t.write_lat) ~cache:t.cache
       @ [
           ("p90_samples_beyond", string_of_int (Stat.beyond ~p:90. (max n 1)));
           ("setup_runs_s", fl setup_times);
           ("write_p50_ms", json_num (p 50. t.write_lat));
           ("write_p90_ms", json_num (p 90. t.write_lat));
           ("baseline_evaluations", string_of_int o.Oracle.evaluations);
         ]));
  List.iter (fun e -> prerr_endline ("perfbench: check failed: " ^ e)) o.Oracle.errors;
  print_endline (result_line ~correct:(failed = 0) ~attempted:t.attempted ~failed metrics);
  teardown s;
  if failed > 0 then exit 1

let main () =
  let args = List.tl (Array.to_list Sys.argv) in
  let int_arg name =
    match arg name args with
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> die "--%s: not a number" name)
    | None -> die "--%s is required" name
  in
  match arg "role" args with
  | Some "cold-worker" ->
      cold_worker ~seed:(int_arg "seed") ~reads:(int_arg "reads")
        ~catalog:(Option.get (arg "catalog" args)) ~out:(Option.get (arg "out" args))
  | _ ->
      let w =
        match Option.bind (arg "workload" args) workload_of_string with
        | Some w -> w
        | None -> die "--workload must be cold_catalog, serve_read or serve_ingest"
      in
      let seed = int_arg "seed" and seconds = int_arg "seconds" and trace = int_arg "trace" in
      if seconds < 1 then die "--seconds must be positive";
      let oqf =
        match arg "oqf" args with
        | Some p when Sys.file_exists p ->
            if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
        | _ -> die "--oqf must name the built oqf executable"
      in
      let root = ".perfbench" in
      if not (Sys.file_exists root) then Unix.mkdir root 0o755;
      let dir = Filename.concat root (Printf.sprintf "%s-%d-%d" (workload_name w) seed (Unix.getpid ())) in
      rm_rf dir;
      Unix.mkdir dir 0o755;
      Sys.chdir dir;
      at_exit (fun () ->
          Wire.stop_all ();
          Sys.chdir "../..";
          rm_rf dir);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 3));
      Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 3));
      if trace = 1 then Trace.run w ~seed ~seconds ~oqf else timed w ~seed ~seconds ~oqf

let () =
  try main ()
  with e ->
    prerr_endline ("perfbench: " ^ Printexc.to_string e);
    exit 1

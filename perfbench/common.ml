(* Workload definitions, set-up and the pieces the timed and traced
   runs share. *)

open Perfbench
module Catalog = Oqf_catalog.Catalog

type workload = Cold_catalog | Serve_read | Serve_ingest

let workload_of_string = function
  | "cold_catalog" -> Some Cold_catalog
  | "serve_read" -> Some Serve_read
  | "serve_ingest" -> Some Serve_ingest
  | _ -> None

let workload_name = function
  | Cold_catalog -> "cold_catalog"
  | Serve_read -> "serve_read"
  | Serve_ingest -> "serve_ingest"

let files = function
  | Cold_catalog -> [ Gen.file Gen.Log 0; Gen.file Gen.Bib 0 ]
  | Serve_read | Serve_ingest ->
      [ Gen.file Gen.Log 0; Gen.file Gen.Log 1; Gen.file Gen.Bib 0; Gen.file Gen.Bib 1 ]

let logs w = List.filter (fun (f : Gen.file) -> f.kind = Gen.Log) (files w)
let bibs w = List.filter (fun (f : Gen.file) -> f.kind = Gen.Bib) (files w)

(* Op counts per second of [--seconds]: a run is fixed by its op
   count, which these rates tie to the requested length on a 2-vCPU
   host.  A slower program takes longer; it never does less. *)
let cold_ops_per_s = 4
let serve_read_ops_per_s = 80
let serve_ingest_ops_per_s = 50
let reads_per_write = 50

let read_ops w ~seconds =
  let n =
    match w with
    | Cold_catalog -> cold_ops_per_s * seconds
    | Serve_read -> serve_read_ops_per_s * seconds
    | Serve_ingest -> serve_ingest_ops_per_s * seconds
  in
  (* nearest-rank p90 needs 10 samples beyond it *)
  max n (Stat.min_samples ~p:90. ~k:10)

let write_ops w ~reads =
  match w with Serve_ingest -> (reads / reads_per_write) - 1 | _ -> 0

let pattern = function
  | Cold_catalog -> Mix.cold_pattern
  | Serve_read | Serve_ingest -> Mix.serve_pattern

let sequence w ~seed ~reads =
  Mix.sequence ~seed ~pattern:(pattern w) ~logs:(logs w) ~bibs:(bibs w) reads

(* Log files take the append batches in turn. *)
let write_target w j =
  let ls = Array.of_list (logs w) in
  (ls.(j mod Array.length ls), j / Array.length ls)

(* --- files ------------------------------------------------------------ *)

let now_ms () = Unix.gettimeofday () *. 1000.

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec du path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left (fun acc e -> acc + du (Filename.concat path e)) 0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let append_file path s =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () -> Wire.write_all fd s

let ok_or_die what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ e)

let parse_query text =
  match Odb.Query_parser.parse text with
  | Ok q -> q
  | Error e -> failwith (Format.asprintf "%s: %a" text Odb.Query_parser.pp_error e)

(* --- set-up ------------------------------------------------------------ *)

type setup = {
  dir : string;
  catalog : string;
  sources : (Gen.file * string) list;  (** file and its path *)
  daemon : Wire.daemon option;
}

let socket s = Filename.concat s.dir "s.sock"

let source_path s (f : Gen.file) =
  snd (List.find (fun ((g : Gen.file), _) -> g.name = f.name) s.sources)

let warm_queries =
  [
    ("log", "SELECT e.Level FROM Entries e WHERE e.Service = \"billing\"");
    ("bibtex", "SELECT r.Year FROM References r WHERE r.Key = \"K0R00000\"");
  ]

(* Generate the corpora, build the catalog and — for the serve
   workloads — start the daemon and warm it: every index loaded into
   its instance cache. *)
let setup w ~seed ~oqf ~with_daemon dir =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let src = Filename.concat dir "src" in
  Unix.mkdir src 0o755;
  let catalog = Filename.concat dir "cat" in
  let cat = ok_or_die "catalog init" (Catalog.init catalog) in
  let sources =
    List.map
      (fun (f : Gen.file) ->
        let path = Filename.concat src f.name in
        write_file path (Gen.initial_text ~seed f);
        ignore (ok_or_die "catalog add" (Catalog.add cat ~schema:(Gen.schema f.kind) path));
        (f, path))
      (files w)
  in
  let daemon =
    if not with_daemon then None
    else begin
      let socket = Filename.concat dir "s.sock" in
      let d = Wire.start ~oqf ~catalog ~socket ~log:(Filename.concat dir "serve.log") in
      let c = Wire.connect socket in
      List.iter
        (fun (schema, q) ->
          match List.rev (Wire.call c (Wire.query ~schema q)) with
          | Serve.Protocol.Done _ :: _ -> ()
          | _ -> failwith "warm-up query failed")
        warm_queries;
      Wire.close c;
      Some d
    end
  in
  { dir; catalog; sources; daemon }

let teardown s =
  Option.iter Wire.stop s.daemon;
  rm_rf s.dir

let source_bytes s = List.fold_left (fun acc (_, p) -> acc + du p) 0 s.sources

(* The oracle over a set-up's initial texts. *)
let oracle_for w ~seed =
  let o = Oracle.create () in
  List.iter
    (fun (f : Gen.file) ->
      Oracle.add_file o ~name:f.name ~schema:(Gen.schema f.kind) ~text:(Gen.initial_text ~seed f))
    (files w);
  o

(* Rows the driver returns, grouped per file as display strings; keyed
   by the file's base name like the oracle. *)
let rows_by_file (rows : (string * Odb.Query_eval.row) list) =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (file, row) ->
      let k = Filename.basename file in
      Hashtbl.replace tbl k
        (List.map Odb.Value.to_display_string row
        :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    rows;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let nproc () = Domain.recommended_domain_count ()

(* --- output ------------------------------------------------------------ *)

let json_num v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_str s = Printf.sprintf "%S" s

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str name)
              (json_num v) (json_str unit))
          metrics))

(* The run record: one JSON object line before the result. *)
let record_line fields =
  "run-record: {"
  ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_str k) v) fields)
  ^ "}"

(* The fields every run records, timed or traced.  [cache] is the
   instance cache's budget and used bytes. *)
let record_fields w ~seed s ~reads ~writes ~cache:(budget, used) =
  [
    ("workload", json_str (workload_name w));
    ("seed", string_of_int seed);
    ("nproc", string_of_int (nproc ()));
    ("reads", string_of_int reads);
    ("writes", string_of_int writes);
    ( "source_bytes",
      "{"
      ^ String.concat ", "
          (List.map (fun ((f : Gen.file), p) -> Printf.sprintf "%s: %d" (json_str f.name) (du p)) s.sources)
      ^ "}" );
    ("instance_cache_budget_bytes", string_of_int budget);
    ("instance_cache_used_bytes", string_of_int used);
    ("result_cache_capacity", "128");
    ("flush_policy", json_str "catalog commits fsync as shipped; unchanged by the benchmark");
  ]

let cache_bytes cat =
  let c = Catalog.cache cat in
  (Oqf_catalog.Instance_cache.budget_bytes c, Oqf_catalog.Instance_cache.used_bytes c)

(* What a warm daemon's instance cache holds: every entry loaded
   through a fresh handle with the default budget. *)
let warm_cache_bytes catalog =
  let cat = ok_or_die "open" (Catalog.open_dir catalog) in
  Catalog.with_snapshot cat (fun snap ->
      List.iter
        (fun (e : Catalog.entry) -> ignore (ok_or_die "load" (Catalog.snapshot_load snap e.source)))
        (Catalog.snapshot_entries snap));
  cache_bytes cat

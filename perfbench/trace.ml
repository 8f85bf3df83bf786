(* The traced run: per-layer numbers, separate from the timed runs.

   1. The workload's request sequence goes once more to a real daemon
      (cold_catalog's on one connection), with a client-side span per
      request and the daemon's [stats] reply at the end.
   2. The same sequence is replayed in-process on a fresh set-up, with
      a span around every call into a layer's public functions
      (serve_ingest performs the same appends and calls
      [Catalog.refresh] itself).  Below the driver, evaluated requests
      are probed layer by layer on the same sources.

   Spans stay in memory and are written once, at exit, to
   .perfbench/traces/<workload>-<seed>.tsv. *)

open Perfbench
open Common

(* Probed requests per run, and cold ops whose index files are probed
   (each probe re-does work the op already did). *)
let max_probed = 60
let pat_probed_ops = 8

(* Ops run twice, untraced then traced, for the overhead figure. *)
let overhead_ops = function Cold_catalog -> 8 | _ -> 32

type acc = {
  sp : Spans.t;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cmps : int;
  mutable index_ops : int;
  mutable bytes_parsed : int;
  mutable candidates : int;
  mutable answers : int;
  mutable executed : int;
  mutable probed : int;
  mutable phase2 : float list;  (** per probed execution, ms *)
}

let span a name f = Spans.with_span a.sp name f

(* The program's own [query.phase2] span, read through Obs's memory
   sink. *)
let rec phase2_ms (n : Obs.Sink.node) =
  if n.Obs.Sink.name = "query.phase2" then Obs.Sink.duration_ms n
  else List.fold_left (fun acc c -> acc +. phase2_ms c) 0. n.Obs.Sink.children

(* Every layer below the driver, timed on one source. *)
let probe_source a w q (src : Oqf.Execute.source) =
  let cold = w = Cold_catalog in
  ignore (span a "analysis.check" (fun () -> Oqf.Check.query src.env ~query_rig:src.query_rig q));
  (match span a "oqf.compile" (fun () -> Oqf.Compile.compile src.env q) with
  | Error _ -> ()
  | Ok plan ->
      let stats = Oqf_cost.Stats.of_instance src.instance in
      List.iter
        (fun (vp : Oqf.Plan.var_plan) ->
          match vp.candidates with
          | Oqf.Plan.Expr e ->
              ignore (span a "cost.plan" (fun () -> Oqf_cost.Planner.choose ~stats ~rig:src.query_rig e));
              ignore (span a "ralg.optimize" (fun () -> Ralg.Optimizer.optimize_logged src.query_rig e))
          | _ -> ())
        plan.Oqf.Plan.var_plans);
  let sink, roots = Obs.Sink.memory () in
  Obs.Trace.set_sink (Some sink);
  let before = Stdx.Stats.snapshot () in
  let out =
    Fun.protect ~finally:(fun () -> Obs.Trace.set_sink None) @@ fun () ->
    span a "oqf.execute" (fun () ->
        if cold then Oqf.Execute.run ~plan_mode:Oqf_cost.Planner.Cost_based src q
        else Oqf.Execute.run ~lazy_phase1:true src q)
  in
  let d = Stdx.Stats.diff ~before ~after:(Stdx.Stats.snapshot ()) in
  match out with
  | Error e -> failwith ("probe: " ^ e)
  | Ok o ->
      let p2 = List.fold_left (fun acc n -> acc +. phase2_ms n) 0. (roots ()) in
      a.phase2 <- p2 :: a.phase2;
      a.executed <- a.executed + 1;
      a.cmps <- a.cmps + d.region_comparisons;
      a.index_ops <- a.index_ops + d.index_ops;
      a.bytes_parsed <- a.bytes_parsed + d.bytes_parsed;
      a.candidates <- a.candidates + o.candidates_count;
      a.answers <- a.answers + o.answers_count;
      List.iter
        (fun (_, e) ->
          ignore (span a "ralg.phase1" (fun () -> Ralg.Eval.eval_shared_plain src.instance e));
          ignore
            (span a "ralg.phase1_lazy" (fun () ->
                 Ralg.Lazy_eval.to_set (Ralg.Lazy_eval.eval src.instance e))))
        o.evaluated

let index_path catalog (e : Catalog.entry) = Filename.concat catalog e.index_file

let probe_index a catalog (e : Catalog.entry) =
  let path = index_path catalog e in
  ignore (span a "pat.index_verify" (fun () -> Pat.Index_store.verify ~path));
  match span a "pat.index_load" (fun () -> Pat.Index_store.load_result ~path) with
  | Ok inst -> ignore (span a "pat.word_index_build" (fun () -> Pat.Word_index.build (Pat.Instance.text inst)))
  | Error e -> failwith (Pat.Index_store.error_message e)

let count_cache a cat =
  let st = Oqf_catalog.Instance_cache.stats (Catalog.cache cat) in
  a.cache_hits <- a.cache_hits + st.hits;
  a.cache_misses <- a.cache_misses + st.misses

(* One replayed read.  Returns the driver outcome, the op's rows and
   the catalog handle it used. *)
let replay_op a w ~catalog ~shared ~pool ~rcache (r : Mix.req) =
  span a "op" @@ fun () ->
  let cat =
    match shared with
    | Some c -> c
    | None -> span a "catalog.open" (fun () -> ok_or_die "open" (Catalog.open_dir catalog))
  in
  let snap = span a "catalog.pin" (fun () -> Catalog.pin cat) in
  Fun.protect ~finally:(fun () -> Catalog.release snap) @@ fun () ->
  List.iter
    (fun (e : Catalog.entry) ->
      if e.schema = r.schema then
        ignore (span a "catalog.load" (fun () -> ok_or_die "load" (Catalog.snapshot_load snap e.source))))
    (Catalog.snapshot_entries snap);
  let corpus, _ = span a "oqf.corpus" (fun () -> ok_or_die "corpus" (Oqf.Corpus.of_snapshot snap ~schema:r.schema)) in
  let q = span a "odb.query_parse" (fun () -> parse_query r.text) in
  let out =
    span a "exec.driver" (fun () ->
        match w with
        | Cold_catalog -> Exec.Driver.run_one ~plan_mode:Oqf_cost.Planner.Cost_based corpus q
        | Serve_read | Serve_ingest ->
            Exec.Driver.run_streaming ~cache:rcache ~pool ~on_rows:(fun ~file:_ _ -> ()) corpus q)
  in
  (ok_or_die "query" out, q, corpus, cat)

let run w ~seed ~seconds ~oqf =
  let reads = read_ops w ~seconds in
  let writes = write_ops w ~reads in
  let seq = sequence w ~seed ~reads in
  (* 1. against the daemon *)
  let ds = setup w ~seed ~oqf ~with_daemon:true "daemon" in
  let client, _ = Drive.run_serve w ~readers:(if w = Serve_read then 2 else 1) ~seed ds ~seq ~writes in
  let stats =
    let c = Wire.connect (socket ds) in
    let s = Wire.stats c in
    Wire.close c;
    s
  in
  let failed_daemon = Drive.verify w ~seed (oracle_for w ~seed) ~seq client in
  teardown ds;
  let client_reads = List.filter (fun r -> not r.Drive.is_write) client in
  (* 2. in-process *)
  let rs = setup w ~seed ~oqf ~with_daemon:false "replay" in
  let pool = Exec.Pool.create ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) @@ fun () ->
  let a =
    { sp = Spans.create (); cache_hits = 0; cache_misses = 0; cmps = 0; index_ops = 0;
      bytes_parsed = 0; candidates = 0; answers = 0; executed = 0; probed = 0; phase2 = [] }
  in
  let fresh = w = Cold_catalog in
  (* the first [k] ops also run untraced, on a handle and result cache
     of their own, alternately before and after their traced run so
     that neither side always goes first; no append falls among them *)
  let k = min (min (overhead_ops w) reads) reads_per_write in
  let quiet = { a with sp = Spans.create ~enabled:false () } in
  let quiet_shared = if fresh then None else Some (ok_or_die "open" (Catalog.open_dir rs.catalog)) in
  let quiet_rcache = Exec.Rcache.create () in
  let untraced = Hashtbl.create 32 in
  let run_untraced i =
    let t0 = now_ms () in
    ignore (replay_op quiet w ~catalog:rs.catalog ~shared:quiet_shared ~pool ~rcache:quiet_rcache seq.(i));
    Hashtbl.replace untraced i (now_ms () -. t0)
  in
  let shared =
    if fresh then None
    else begin
      let cat = span a "catalog.open" (fun () -> ok_or_die "open" (Catalog.open_dir rs.catalog)) in
      List.iter (probe_index a rs.catalog) (Catalog.entries cat);
      Some cat
    end
  in
  let rcache = Exec.Rcache.create () in
  let appended = ref 0 in
  let last_instance = Hashtbl.create 4 in
  let answers = ref [] in
  Array.iteri
    (fun i (r : Mix.req) ->
      Spans.set_op a.sp i;
      (* serve_ingest: the writer's appends, at the same op positions *)
      if !appended < writes && i >= (!appended + 1) * reads_per_write then begin
        let f, kb = write_target w !appended in
        let path = source_path rs f in
        let batch = Gen.batch ~seed f kb in
        append_file path batch;
        incr appended;
        let cat = Option.get shared in
        ignore (span a "catalog.refresh" (fun () -> ok_or_die "refresh" (Catalog.refresh cat path)));
        match Hashtbl.find_opt last_instance path with
        | Some inst ->
            let old_len = Pat.Text.length (Pat.Instance.text inst) in
            let text = Pat.Text.of_string (Pat.Text.unsafe_contents (Pat.Instance.text inst) ^ batch) in
            ignore
              (span a "pat.word_index_extend" (fun () ->
                   Pat.Word_index.extend (Pat.Instance.word_index inst) text ~old_len))
        | None -> ()
      end;
      if i < k && i mod 2 = 0 then run_untraced i;
      let out, q, corpus, cat = replay_op a w ~catalog:rs.catalog ~shared ~pool ~rcache r in
      if i < k && i mod 2 = 1 then run_untraced i;
      if fresh then count_cache a cat;
      List.iter
        (fun (file, (src : Oqf.Execute.source)) -> Hashtbl.replace last_instance file src.instance)
        (Oqf.Corpus.sources corpus);
      answers :=
        { Drive.index = i; t_send = 0.; t_first = None; t_done = 0.; ok = out.Exec.Driver.degraded = [];
          cached = out.from_cache; rows = rows_by_file out.rows; s_lo = !appended; s_hi = !appended;
          is_write = false }
        :: !answers;
      if fresh && i < pat_probed_ops then
        List.iter
          (fun (e : Catalog.entry) -> if e.schema = r.schema then probe_index a rs.catalog e)
          (Catalog.entries cat);
      if (not out.from_cache) && a.probed < max_probed then begin
        a.probed <- a.probed + 1;
        List.iter (fun (_, src) -> probe_source a w q src) (Oqf.Corpus.sources corpus)
      end)
    seq;
  Spans.set_op a.sp reads;
  (* the write layers on workloads that do not write: a refresh that
     finds nothing to do, and the word index extended by the batch the
     first log would take next *)
  let cat = match shared with Some c -> c | None -> ok_or_die "open" (Catalog.open_dir rs.catalog) in
  if writes = 0 then begin
    List.iter
      (fun (e : Catalog.entry) ->
        ignore (span a "catalog.refresh" (fun () -> ok_or_die "refresh" (Catalog.refresh cat e.source))))
      (Catalog.entries cat);
    let f = List.hd (logs w) in
    let inst =
      Catalog.with_snapshot cat (fun snap -> ok_or_die "load" (Catalog.snapshot_load snap (source_path rs f)))
    in
    let text = Pat.Instance.text inst in
    let longer = Pat.Text.of_string (Pat.Text.unsafe_contents text ^ Gen.batch ~seed f 0) in
    ignore
      (span a "pat.word_index_extend" (fun () ->
           Pat.Word_index.extend (Pat.Instance.word_index inst) longer ~old_len:(Pat.Text.length text)))
  end;
  if not fresh then count_cache a cat;
  let generations = List.length (Catalog.list_generations cat) in
  let failed_replay = Drive.verify w ~seed (oracle_for w ~seed) ~seq (List.rev !answers) in
  let record = record_fields w ~seed rs ~reads ~writes ~cache:(cache_bytes cat) in
  teardown rs;
  (* --- figures --- *)
  let spans = Spans.spans a.sp in
  let selfs = Spans.self_times spans in
  let self_of name =
    List.filter_map (fun ((s : Spans.span), t) -> if s.name = name then Some t else None) selfs
  in
  let ms name = Stat.mean (self_of name) in
  let ops = List.filter (fun ((s : Spans.span), _) -> s.name = "op") selfs in
  let coverage = List.map (fun ((s : Spans.span), self) -> 1. -. (self /. Spans.duration s)) ops in
  let unattributed = List.map snd ops in
  let op_wall = List.map (fun (s, _) -> Spans.duration s) ops in
  let overhead_pct =
    100.
    *. Stat.median
         (List.filteri (fun i _ -> i < k) op_wall
         |> List.mapi (fun i t -> (t -. Hashtbl.find untraced i) /. Hashtbl.find untraced i))
  in
  let driver = Hashtbl.create 64 in
  List.iter (fun (s : Spans.span) -> if s.name = "exec.driver" then Hashtbl.replace driver s.op (Spans.duration s)) spans;
  let overheads =
    List.filter_map
      (fun (r : Drive.read) ->
        Option.map (fun d -> Drive.latency r -. d) (Hashtbl.find_opt driver r.index))
      client_reads
  in
  let nreads = float_of_int (max 1 (List.length client_reads)) in
  let per_exec x = float_of_int x /. float_of_int (max 1 a.executed) in
  let counter name = Wire.counter stats name in
  let metrics =
    [
      ("catalog.open_ms", "ms", ms "catalog.open");
      ("catalog.pin_ms", "ms", ms "catalog.pin");
      ("catalog.load_ms", "ms", ms "catalog.load");
      ("catalog.refresh_ms", "ms", ms "catalog.refresh");
      ( "catalog.cache_hit_ratio", "ratio",
        float_of_int a.cache_hits /. float_of_int (max 1 (a.cache_hits + a.cache_misses)) );
      ("catalog.generations_live", "count", float_of_int generations);
      ("pat.index_verify_ms", "ms", ms "pat.index_verify");
      ("pat.index_load_ms", "ms", ms "pat.index_load");
      ("pat.word_index_build_ms", "ms", ms "pat.word_index_build");
      ("pat.word_index_extend_ms", "ms", ms "pat.word_index_extend");
      ("odb.query_parse_ms", "ms", ms "odb.query_parse");
      ("analysis.check_ms", "ms", ms "analysis.check");
      ("oqf.compile_ms", "ms", ms "oqf.compile");
      ("cost.plan_ms", "ms", ms "cost.plan");
      ("ralg.optimize_ms", "ms", ms "ralg.optimize");
      ("ralg.phase1_ms", "ms", ms "ralg.phase1");
      ("ralg.phase1_lazy_ms", "ms", ms "ralg.phase1_lazy");
      ("ralg.region_cmps_per_query", "count/query", per_exec a.cmps);
      ("ralg.index_ops_per_query", "count/query", per_exec a.index_ops);
      ("oqf.execute_ms", "ms", ms "oqf.execute");
      ("oqf.phase2_ms", "ms", Stat.mean a.phase2);
      ("oqf.candidates_per_answer", "ratio", float_of_int a.candidates /. float_of_int (max 1 a.answers));
      ("oqf.bytes_parsed_per_query", "B/query", per_exec a.bytes_parsed);
      ("exec.driver_ms", "ms", ms "exec.driver");
      ( "exec.rcache_hit_ratio", "ratio",
        float_of_int (List.length (List.filter (fun r -> r.Drive.cached) client_reads)) /. nreads );
      ("exec.rcache_containment_ratio", "ratio", counter "exec.rcache.containment_hits" /. nreads);
      ("serve.overhead_ms", "ms", if overheads = [] then 0. else Stat.median overheads);
      ("serve.catalog_reloads", "count", counter "serve.catalog_reloads");
      ("serve.rejected", "count", counter "serve.rejected");
      ("obs.trace_overhead_pct", "%", overhead_pct);
    ]
  in
  (* spans, written once *)
  let dir = "../traces" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir (Printf.sprintf "%s-%d.tsv" (workload_name w) seed)) in
  output_string oc "id\tparent\top\tname\tstart_ms\tend_ms\tself_ms\n";
  List.iter
    (fun ((s : Spans.span), self) ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.4f\t%.4f\t%.4f\n" s.id s.parent s.op s.name s.t0 s.t1 self)
    selfs;
  (* the daemon pass's client-side spans: one per request, id 0 *)
  List.iter
    (fun (r : Drive.read) ->
      Printf.fprintf oc "0\t0\t%d\t%s\t%.4f\t%.4f\t%.4f\n" r.index
        (if r.is_write then "client.write" else "client.request")
        r.t_send r.t_done (Drive.latency r))
    client;
  close_out oc;
  let min_cov = List.fold_left Float.min 1. coverage in
  let coverage_ok = w <> Cold_catalog || min_cov >= 0.9 in
  print_endline
    (record_line
       (record
       @ [
           ("probed_requests", string_of_int a.probed);
           ("self_time_coverage_min", json_num min_cov);
           ("self_time_coverage_mean", json_num (Stat.mean coverage));
           ("unattributed_ms_mean", json_num (Stat.mean unattributed));
           ("trace_overhead_pct", json_num overhead_pct);
           ("overhead_ops", string_of_int k);
         ]));
  Printf.printf "unattributed remainder: mean %.3f ms per op (coverage min %.4f); trace overhead %.2f%%\n"
    (Stat.mean unattributed) min_cov overhead_pct;
  if not coverage_ok then prerr_endline "perfbench: cold_catalog self-time coverage below 90%";
  let failed = failed_daemon + failed_replay + if coverage_ok then 0 else 1 in
  print_endline
    (result_line ~correct:(failed = 0) ~attempted:(List.length client + reads) ~failed metrics);
  if failed > 0 then exit 1

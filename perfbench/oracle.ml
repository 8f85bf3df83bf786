(* The output check: every answer is compared, off the clock, with
   the index-free whole-file database path.  Each file's text is
   parsed once ([Fschema.View.load_file]) and every distinct query is
   evaluated on that database ([Odb.Query_eval.eval]) — the two steps
   [Oqf.Execute.run_baseline] performs per call.  The first query
   checked on each file is also run through [run_baseline] itself, so
   the shared parse cannot drift from the library's own baseline.

   Log files that grow during a run are extended batch by batch: the
   appended entries are parsed on their own and added to the file's
   extent, so a (query, file, state) answer costs one evaluation. *)

type file = {
  name : string;
  schema : string;
  view : Fschema.View.t;
  db : Odb.Database.t;
  mutable state : int;  (** append batches applied so far *)
  mutable text : string;  (** the text at [state] *)
  mutable literal_done : bool;
}

type t = {
  files : (string, file) Hashtbl.t;
  mutable order : string list;  (** file names, in the order added *)
  parsed : (string, Odb.Query.t) Hashtbl.t;
  memo : (string * string * int, string) Hashtbl.t;
  mutable evaluations : int;
  mutable errors : string list;
}

let create () =
  {
    files = Hashtbl.create 8;
    order = [];
    parsed = Hashtbl.create 256;
    memo = Hashtbl.create 1024;
    evaluations = 0;
    errors = [];
  }

let view_of_schema = function
  | "log" -> Fschema.Log_schema.view
  | _ -> Fschema.Bibtex_schema.view

let fail t msg = t.errors <- msg :: t.errors

let load_db view text =
  match Fschema.View.load_file view (Pat.Text.of_string text) with
  | Ok db -> db
  | Error e -> failwith ("baseline parse failed: " ^ e)

let add_file t ~name ~schema ~text =
  let view = view_of_schema schema in
  Hashtbl.replace t.files name
    { name; schema; view; db = load_db view text; state = 0; text; literal_done = false };
  t.order <- t.order @ [ name ]

let files_of_schema t schema =
  List.filter (fun n -> (Hashtbl.find t.files n).schema = schema) t.order

(* Advance a log file by one append batch (its text without header). *)
let extend t ~name ~header ~batch =
  let f = Hashtbl.find t.files name in
  let part = load_db f.view (header ^ batch) in
  List.iter
    (fun cls -> Odb.Database.insert_all f.db ~class_name:cls (Odb.Database.extent part cls))
    (Odb.Database.classes part);
  f.state <- f.state + 1;
  f.text <- f.text ^ batch;
  f.literal_done <- false

(* Canonical form of a per-file answer: its rows as display strings,
   sorted.  The daemon and the driver send rows in this rendering. *)
let digest rows =
  Digest.to_hex
    (Digest.string
       (String.concat "\x1e"
          (List.sort compare (List.map (String.concat "\x1f") rows))))

let display rows = List.map (List.map Odb.Value.to_display_string) rows

let parse t text =
  match Hashtbl.find_opt t.parsed text with
  | Some q -> q
  | None ->
      let q =
        match Odb.Query_parser.parse text with
        | Ok q -> q
        | Error e ->
            failwith (Format.asprintf "%s: %a" text Odb.Query_parser.pp_error e)
      in
      Hashtbl.replace t.parsed text q;
      q

(* The expected answer digest of [query] on [file] at its current
   state. *)
let expected t ~file query =
  let f = Hashtbl.find t.files file in
  let key = (query, file, f.state) in
  match Hashtbl.find_opt t.memo key with
  | Some d -> d
  | None ->
      let q = parse t query in
      let rows =
        match Oqf.Execute.semantic_error f.view q with
        | Some e -> failwith ("query rejected by the baseline: " ^ e)
        | None -> Odb.Query_eval.eval f.db q
      in
      t.evaluations <- t.evaluations + 1;
      let d = digest (display rows) in
      if not f.literal_done then begin
        f.literal_done <- true;
        match Oqf.Execute.run_baseline f.view (Pat.Text.of_string f.text) q with
        | Ok (lit, _) when digest (display lit) = d -> ()
        | Ok _ -> fail t (Printf.sprintf "%s: shared-parse baseline disagrees with run_baseline on %s" file query)
        | Error e -> fail t (Printf.sprintf "%s: run_baseline failed: %s" file e)
      end;
      Hashtbl.replace t.memo key d;
      d

(* An answer as the system gave it: rows per file (files with no rows
   may be absent). *)
type answer = { query : string; schema : string; rows : (string * string list list) list }

let matches t (a : answer) =
  List.for_all
    (fun file ->
      let got = Option.value ~default:[] (List.assoc_opt file a.rows) in
      digest got = expected t ~file a.query)
    (files_of_schema t a.schema)

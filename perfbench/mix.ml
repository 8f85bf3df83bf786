(* Seeded request sequences.

   The order of request kinds follows a fixed pattern, the same for
   every seed, so each run times the same mix; the seed draws only
   the parameters (which file, which minute, which key or name).  Runs
   are fixed by op count, so every percentile is taken over the same
   mix of requests. *)

type kind =
  | Proj  (** ⊂d projection of a log attribute, wide parameter space *)
  | Objs  (** whole log entries of one minute: a superset for [Refine] *)
  | Refine  (** a recent [Objs] query plus one conjunct: containment hit *)
  | Repeat  (** Zipf-skewed exact repeat of a hot query *)
  | Key  (** BibTeX key point lookup *)
  | Author  (** nested Authors.Name.Last_Name lookup *)

type req = { kind : kind; schema : string; text : string }

(* cold: 60% log, 40% bibtex; no result cache, so no repeats *)
let cold_pattern = [| Proj; Key; Objs; Author; Proj |]

let serve_pattern =
  [| Proj; Objs; Key; Refine; Repeat; Proj; Author; Repeat; Key; Refine |]

let hot_size = 32
let minute_prefix (f : Gen.file) m = Printf.sprintf "%s %02d:%02d" (Gen.log_date f) (m / 60) (m mod 60)

let sequence ~seed ~pattern ~(logs : Gen.file list) ~(bibs : Gen.file list) n =
  let st = Random.State.make [| seed; 0x5e9 |] in
  let logs = Array.of_list logs and bibs = Array.of_list bibs in
  let hot = ref [||] in
  let recent_objs = ref [] in
  let minute () =
    let f = Gen.pick st logs in
    minute_prefix f (Random.State.int st (f.Gen.initial / 60))
  in
  let log_query kind text = { kind; schema = "log"; text } in
  let objs () =
    let text =
      Printf.sprintf "SELECT e FROM Entries e WHERE e.Timestamp STARTS WITH %S"
        (minute ())
    in
    recent_objs := text :: List.filteri (fun i _ -> i < 3) !recent_objs;
    log_query Objs text
  in
  let proj () =
    log_query Proj
      (Printf.sprintf
         "SELECT e.Service FROM Entries e WHERE e.Timestamp STARTS WITH %S"
         (minute ()))
  in
  let hot_cdf = Gen.zipf hot_size 1.0 in
  let rec draw kind =
    match kind with
    | Proj -> proj ()
    | Objs -> objs ()
    | Refine -> (
        match !recent_objs with
        | [] -> objs ()
        | l ->
            let base = List.nth l (Random.State.int st (List.length l)) in
            let extra =
              if Random.State.bool st then
                Printf.sprintf "e.Level = %S"
                  (if Random.State.bool st then "ERROR" else "WARN")
              else Printf.sprintf "e.Message CONTAINS %S" (Gen.pick st Gen.words)
            in
            log_query Refine (base ^ " AND " ^ extra))
    | Repeat ->
        if Array.length !hot < hot_size then draw Proj
        else { (!hot).(Gen.zipf_draw hot_cdf st) with kind = Repeat }
    | Key ->
        let f = Gen.pick st bibs in
        {
          kind;
          schema = "bibtex";
          text =
            Printf.sprintf "SELECT r.Title FROM References r WHERE r.Key = %S"
              (Gen.bib_key f (Random.State.int st f.Gen.initial));
        }
    | Author ->
        {
          kind;
          schema = "bibtex";
          text =
            Printf.sprintf
              "SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = %S"
              (Gen.last_name (Random.State.int st 120));
        }
  in
  Array.init n (fun i ->
      let r = draw pattern.(i mod Array.length pattern) in
      if Array.length !hot < hot_size && r.kind <> Repeat then
        hot := Array.append !hot [| r |];
      r)

(* The read-your-write probe for the entry just appended to a log. *)
let ryw (f : Gen.file) i =
  Printf.sprintf "SELECT e.Message FROM Entries e WHERE e.Timestamp = %S"
    (Gen.timestamp f i)

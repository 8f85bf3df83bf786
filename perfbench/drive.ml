(* The timed loops: a cold in-process client, and a closed-loop load
   generator against the daemon. *)

open Perfbench
open Common

type read = {
  index : int;  (** position in the request sequence *)
  t_send : float;
  mutable t_first : float option;  (** first row event *)
  mutable t_done : float;
  mutable ok : bool;  (** a clean [done]: no error, no degradation *)
  mutable cached : bool;
  mutable rows : (string * string list list) list;  (** per file *)
  s_lo : int;  (** appends complete when sent *)
  mutable s_hi : int;  (** appends complete when answered *)
  is_write : bool;  (** a read-your-write probe, sent once its append completed *)
}

let latency r = r.t_done -. r.t_send

let add_rows r file values =
  let file = Filename.basename file in
  let prev = Option.value ~default:[] (List.assoc_opt file r.rows) in
  r.rows <- (file, values :: prev) :: List.remove_assoc file r.rows

(* --- cold_catalog: one op per fresh catalog handle ----------------------- *)

type cold_op = { lat : float; first : float option; op_rows : (string * string list list) list }

(* One cold op, as an [oqf catalog query] process performs it: open the
   catalog with an empty instance cache, pin a snapshot, build the
   corpus of the query's schema and run the query. *)
let cold_op ~catalog (r : Mix.req) =
  let t0 = now_ms () in
  let cat = ok_or_die "open" (Catalog.open_dir catalog) in
  let q = parse_query r.text in
  let out =
    Catalog.with_snapshot cat @@ fun snap ->
    let corpus, _ = ok_or_die "corpus" (Oqf.Corpus.of_snapshot snap ~schema:r.schema) in
    ok_or_die "query" (Exec.Driver.run_one ~plan_mode:Oqf_cost.Planner.Cost_based corpus q)
  in
  let t1 = now_ms () in
  ( cat,
    {
      lat = t1 -. t0;
      first = (if out.Exec.Driver.rows = [] then None else Some (t1 -. t0));
      op_rows = rows_by_file out.Exec.Driver.rows;
    } )

(* --- serve_*: closed loop over daemon connections ------------------------ *)

let run_serve w ~readers ~seed s ~(seq : Mix.req array) ~writes =
  let n = Array.length seq in
  let nconns = readers + if writes > 0 then 1 else 0 in
  let conns = Array.init nconns (fun _ -> Wire.connect (socket s)) in
  let is_reader c = c < readers in
  let inflight = Array.make nconns None in
  let results = ref [] in
  let next_read = ref 0 and reads_done = ref 0 in
  let appended = ref 0 in
  let dispatch c =
    if is_reader c then begin
      if !next_read < n then begin
        let i = !next_read in
        incr next_read;
        let t = now_ms () in
        let r =
          { index = i; t_send = t; t_first = None; t_done = 0.; ok = false; cached = false;
            rows = []; s_lo = !appended; s_hi = 0; is_write = false }
        in
        ignore (Wire.send conns.(c) (Wire.query ~schema:seq.(i).schema seq.(i).text));
        inflight.(c) <- Some r
      end
    end
    else if !appended < writes && !reads_done >= (!appended + 1) * reads_per_write then begin
      let j = !appended in
      let f, k = write_target w j in
      append_file (source_path s f) (Gen.batch ~seed f k);
      incr appended;
      let r =
        { index = j; t_send = now_ms (); t_first = None; t_done = 0.; ok = false; cached = false;
          rows = []; s_lo = !appended; s_hi = 0; is_write = true }
      in
      ignore (Wire.send conns.(c) (Wire.query ~schema:"log" (Mix.ryw f (Gen.batch_first f k + Gen.batch_size - 1))));
      inflight.(c) <- Some r
    end
  in
  let t_start = now_ms () in
  let rec loop () =
    Array.iteri (fun c x -> if x = None then dispatch c) inflight;
    let busy = List.filter (fun c -> inflight.(c) <> None) (List.init nconns Fun.id) in
    if busy <> [] then begin
      let fds = List.map (fun c -> conns.(c).Wire.fd) busy in
      let ready, _, _ =
        try Unix.select fds [] [] 120. with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun c ->
          if List.mem conns.(c).Wire.fd ready then
            match Wire.read_events conns.(c) with
            | `Eof -> failwith "daemon closed a connection"
            | `Events evs ->
                List.iter
                  (fun ev ->
                    match inflight.(c) with
                    | None -> ()
                    | Some r -> (
                        let t = now_ms () in
                        match ev with
                        | Serve.Protocol.Row { file; values; _ } ->
                            if r.t_first = None then r.t_first <- Some t;
                            add_rows r file values
                        | ev when Serve.Client.is_terminal ev ->
                            r.t_done <- t;
                            r.s_hi <- !appended;
                            (match ev with
                            | Serve.Protocol.Done { cached; degraded; _ } ->
                                r.ok <- degraded = [];
                                r.cached <- cached
                            | _ -> ());
                            if not r.is_write then incr reads_done;
                            results := r :: !results;
                            inflight.(c) <- None
                        | _ -> ()))
                  evs)
        busy;
      if ready = [] && busy <> [] then failwith "no daemon response for 120 s";
      loop ()
    end
  in
  loop ();
  let t_end = now_ms () in
  Array.iter Wire.close conns;
  (List.rev !results, t_end -. t_start)

(* Check every answer against the oracle.  An answer was computed on
   one catalog generation between the appends complete when it was
   sent ([s_lo]) and when it came back ([s_hi]); it passes if it
   matches the baseline at one of those states.  Returns the number
   that failed (error events and degraded answers included). *)
let verify w ~seed (o : Oracle.t) ~(seq : Mix.req array) (results : read list) =
  let text_of r =
    if r.is_write then
      let f, k = write_target w r.index in
      (Mix.ryw f (Gen.batch_first f k + Gen.batch_size - 1), "log")
    else (seq.(r.index).text, seq.(r.index).schema)
  in
  let max_s = List.fold_left (fun acc r -> max acc r.s_hi) 0 results in
  let pending = ref (List.filter (fun r -> r.ok) results) in
  let passed = ref 0 in
  for s = 0 to max_s do
    if s > 0 then begin
      let f, k = write_target w (s - 1) in
      Oracle.extend o ~name:f.name ~header:(Gen.header Gen.Log) ~batch:(Gen.batch ~seed f k)
    end;
    pending :=
      List.filter
        (fun r ->
          if r.s_lo <= s && s <= r.s_hi then begin
            let query, schema = text_of r in
            if Oracle.matches o { Oracle.query; schema; rows = r.rows } then begin
              incr passed;
              false
            end
            else true
          end
          else true)
        !pending
  done;
  List.length results - !passed

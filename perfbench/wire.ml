(* The serve protocol from the load generator's side: one process
   multiplexes several daemon connections with [select], so no request
   waits on another connection's client code. *)

type conn = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable partial : string;  (** bytes after the last newline *)
  mutable next_id : int;
}

let connect ?(wait_ms = 20000.) path =
  let deadline = Unix.gettimeofday () +. (wait_ms /. 1000.) in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd; chunk = Bytes.create 65536; partial = ""; next_id = 1 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.02;
        go ()
    | exception e ->
        Unix.close fd;
        raise e
  in
  go ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Send a request; returns its id. *)
let send c req =
  let id = c.next_id in
  c.next_id <- id + 1;
  write_all c.fd (Serve.Protocol.render_request id req ^ "\n");
  id

let query ~schema text =
  Serve.Protocol.Query
    { schema; text; timeout_ms = None; fail_policy = None; force = false; workload = "" }

(* Read what is available (the fd must be readable) and return the
   complete response lines; [`Eof] when the daemon closed. *)
let read_events c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> `Eof
  | n ->
      let data = c.partial ^ Bytes.sub_string c.chunk 0 n in
      let parts = String.split_on_char '\n' data in
      let rec split acc = function
        | [ last ] ->
            c.partial <- last;
            List.rev acc
        | l :: rest -> split (l :: acc) rest
        | [] -> List.rev acc
      in
      `Events
        (List.map
           (fun l ->
             match Serve.Protocol.parse_response l with
             | Ok r -> r
             | Error e -> failwith ("bad response line: " ^ e))
           (split [] parts))

(* Blocking round trip on one connection; returns every event of the
   request, terminal last. *)
let call c req =
  ignore (send c req);
  let rec loop acc =
    match read_events c with
    | `Eof -> failwith "daemon closed the connection"
    | `Events evs ->
        let acc = List.rev_append evs acc in
        if List.exists (fun e -> Serve.Client.is_terminal e) evs then List.rev acc
        else loop acc
  in
  loop []

let stats c =
  match List.rev (call c Serve.Protocol.Stats) with
  | Serve.Protocol.Stats_reply { payload; _ } :: _ -> payload
  | _ -> failwith "no stats reply"

let counter payload name =
  match payload with
  | Obs.Jsonx.Obj fields -> (
      match List.assoc_opt "counters" fields with
      | Some (Obs.Jsonx.Obj cs) -> (
          match List.assoc_opt name cs with Some (Obs.Jsonx.Num n) -> n | _ -> 0.)
      | _ -> 0.)
  | _ -> 0.

(* --- the daemon process ------------------------------------------------ *)

type daemon = { pid : int; socket : string; mutable alive : bool }

let live : daemon list ref = ref []

let start ~oqf ~catalog ~socket ~log =
  (try Sys.remove socket with Sys_error _ -> ());
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process oqf
      [| oqf; "serve"; "-c"; catalog; "--socket"; socket; "--jobs"; "2" |]
      Unix.stdin out out
  in
  Unix.close out;
  let d = { pid; socket; alive = true } in
  live := d :: !live;
  d

(* Peak resident set of a process, from /proc/<pid>/status. *)
let vm_hwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
    | _ -> go ()
    | exception End_of_file -> 0
  in
  go ()

let rec waitpid_noeintr pid =
  try Unix.waitpid [] pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr pid

(* Ask the daemon to drain; kill it if it is not gone in 10 s. *)
let stop d =
  if d.alive then begin
    d.alive <- false;
    (try
       let c = connect ~wait_ms:0. d.socket in
       ignore (call c Serve.Protocol.Shutdown);
       close c
     with _ -> ());
    let deadline = Unix.gettimeofday () +. 10. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.02;
          wait ()
      | 0, _ ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (waitpid_noeintr d.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ();
    live := List.filter (fun x -> x != d) !live
  end

let stop_all () = List.iter stop !live

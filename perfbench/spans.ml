(* In-memory spans recorded around calls into the program's layers.

   A span carries its name, start and end (ms), the span that was
   open when it began and the op it belongs to.  Nothing is written
   until the caller asks for the spans at the end of the run. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  op : int;
  name : string;
  t0 : float;
  t1 : float;
}

type t = {
  enabled : bool;  (** [false]: spans are not recorded *)
  mutable next : int;
  mutable stack : int list;
  mutable done_ : span list;
  mutable op : int;
}

let create ?(enabled = true) () = { enabled; next = 1; stack = []; done_ = []; op = 0 }
let now_ms () = Unix.gettimeofday () *. 1000.
let set_op t op = t.op <- op

(* Time [f] as a span nested under the innermost open span. *)
let with_span t name f =
  if not t.enabled then f ()
  else
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> 0 in
  t.stack <- id :: t.stack;
  let t0 = now_ms () in
  let finish () =
    let t1 = now_ms () in
    t.stack <- (match t.stack with _ :: rest -> rest | [] -> []);
    t.done_ <- { id; parent; op = t.op; name; t0; t1 } :: t.done_
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let spans t = List.rev t.done_
let duration s = s.t1 -. s.t0

(* Length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (acc, Some (ca, Float.max cb b))
            else (acc +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time: the span's duration minus the part of its interval that
   its direct children cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, duration s -. covered ~lo:s.t0 ~hi:s.t1 kids))
    spans

(* Seeded corpora.  The benchmark writes its own log and BibTeX files
   (in the formats of the program's log and bibtex schemas) so its
   inputs depend only on the seed, never on the program's own
   generators.  Entry [i] of a file is drawn from a PRNG keyed by
   (seed, file, i): the next entries of a file are an append batch. *)

type kind = Log | Bib
type file = { kind : kind; index : int; name : string; initial : int }

let log_entries = 20000
let bib_refs = 5000
let schema = function Log -> "log" | Bib -> "bibtex"

let file kind index =
  let name =
    match kind with
    | Log -> Printf.sprintf "app%d.log" index
    | Bib -> Printf.sprintf "refs%d.bib" index
  in
  let initial = match kind with Log -> log_entries | Bib -> bib_refs in
  { kind; index; name; initial }

let header = function Log -> "== log ==\n" | Bib -> "%% bibliography\n"
let rng ~seed f i = Random.State.make [| seed; Hashtbl.hash f.kind; f.index; i |]

(* Zipf law over ranks [0, n) with exponent [s], by inverse CDF. *)
let zipf n s =
  let w = Array.init n (fun k -> 1. /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw cdf st =
  let u = Random.State.float st 1. in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length cdf - 1)

let pick st a = a.(Random.State.int st (Array.length a))

let syllables =
  [| "ka"; "lo"; "mi"; "ran"; "tes"; "vo"; "dun"; "bri"; "sel"; "gor"; "nu"; "pha" |]

(* Last name of popularity rank [r]: letters only, one word. *)
let last_name r =
  let s k = syllables.(k mod Array.length syllables) in
  String.capitalize_ascii (s r ^ s (r / 12 + 5) ^ s (r / 144 + 3))

let first_names =
  [| "Ada"; "Bo"; "Cy"; "Di"; "Ed"; "Flo"; "Gus"; "Hal"; "Ida"; "Jo"; "Kai"; "Lu" |]

let words =
  [| "index"; "region"; "query"; "file"; "parse"; "schema"; "grammar";
     "optimizer"; "cache"; "latency"; "disk"; "buffer"; "token"; "word";
     "suffix"; "array"; "segment"; "budget"; "commit"; "snapshot"; "reader";
     "writer"; "socket"; "worker"; "domain"; "plan"; "cost"; "join"; "scan";
     "filter"; "merge"; "sort"; "tree"; "node"; "leaf"; "path"; "block";
     "page"; "batch"; "stream" |]

let services = [| "auth"; "web"; "db"; "cache"; "mail"; "queue"; "search"; "billing" |]

let keywords =
  Array.init 40 (fun k -> Printf.sprintf "%s %s" words.(k) words.((k * 7 + 3) mod 40))

let name_cdf = lazy (zipf 120 1.1)
let keyword_cdf = lazy (zipf 40 1.1)
let log_date f = Printf.sprintf "2026-07-%02d" (4 + f.index)

let timestamp f i =
  Printf.sprintf "%s %02d:%02d:%02d" (log_date f) (i / 3600) (i / 60 mod 60) (i mod 60)

let level_of st =
  let r = Random.State.int st 100 in
  if r < 10 then "ERROR" else if r < 28 then "WARN" else "INFO"

let log_entry ~seed f i =
  let st = rng ~seed f i in
  let level = level_of st in
  let service = pick st services in
  let msg = String.concat " " (List.init 7 (fun _ -> pick st words)) in
  Printf.sprintf "[%s] level=%s service=%s msg=\"%s\"\n" (timestamp f i) level
    service msg

let bib_key f i = Printf.sprintf "K%dR%05d" f.index i

let bib_entry ~seed f i =
  let st = rng ~seed f i in
  let name () =
    Printf.sprintf "%s %s" (pick st first_names)
      (last_name (zipf_draw (Lazy.force name_cdf) st))
  in
  let names k =
    String.concat " and " (List.init (1 + Random.State.int st k) (fun _ -> name ()))
  in
  let some k f = List.init (1 + Random.State.int st k) (fun _ -> f ()) in
  let authors = names 3 in
  let title = String.concat " " (some 5 (fun () -> pick st words)) in
  let year = 1960 + Random.State.int st 40 in
  let editors = names 2 in
  let kws =
    String.concat "; "
      (some 4 (fun () -> keywords.(zipf_draw (Lazy.force keyword_cdf) st)))
  in
  let cites =
    String.concat "; "
      (some 3 (fun () -> bib_key f (if i = 0 then 0 else Random.State.int st i)))
  in
  let abstract = String.concat " " (List.init 42 (fun _ -> pick st words)) in
  Printf.sprintf
    "@INCOLLECTION{%s, AUTHOR = {%s},\n  TITLE = {%s},\n  YEAR = {%d},\n\
    \  EDITOR = {%s},\n  KEYWORDS = {%s},\n  CITES = {%s},\n  ABSTRACT = {%s}}\n"
    (bib_key f i) authors title year editors kws cites abstract

let entry ~seed f i =
  match f.kind with Log -> log_entry ~seed f i | Bib -> bib_entry ~seed f i

(* Entries [first, first + count) of a file, without the header. *)
let entries ~seed f ~first ~count =
  let b = Buffer.create (count * 120) in
  for i = first to first + count - 1 do
    Buffer.add_string b (entry ~seed f i)
  done;
  Buffer.contents b

let initial_text ~seed f = header f.kind ^ entries ~seed f ~first:0 ~count:f.initial

(* The [j]-th append batch of a log file: the next [batch] entries. *)
let batch_size = 50
let batch_first f j = f.initial + (j * batch_size)
let batch ~seed f j = entries ~seed f ~first:(batch_first f j) ~count:batch_size

(* Tests for the benchmark's own helpers. *)

open Perfbench

let floats = Alcotest.(list (float 1e-9))
let one_to n = List.init n (fun i -> float_of_int (i + 1))

let nearest_rank () =
  let xs = one_to 10 in
  Alcotest.(check (float 0.)) "p50 of 1..10" 5. (Stat.percentile ~p:50. xs);
  Alcotest.(check (float 0.)) "p90 of 1..10" 9. (Stat.percentile ~p:90. xs);
  Alcotest.(check (float 0.)) "p100 is the max" 10. (Stat.percentile ~p:100. xs);
  Alcotest.(check (float 0.)) "p1 is the min" 1. (Stat.percentile ~p:1. xs);
  Alcotest.(check (float 0.)) "unsorted input" 3. (Stat.percentile ~p:50. [ 5.; 1.; 3.; 4.; 2. ]);
  Alcotest.(check (float 0.)) "p90 of 1..100" 90. (Stat.percentile ~p:90. (one_to 100));
  Alcotest.(check (float 0.)) "p90 of 1..101" 91. (Stat.percentile ~p:90. (one_to 101))

let samples_beyond () =
  Alcotest.(check int) "100 samples: 10 beyond p90" 10 (Stat.beyond ~p:90. 100);
  Alcotest.(check int) "99 samples: 9 beyond p90" 9 (Stat.beyond ~p:90. 99);
  Alcotest.(check int) "p90 needs 100 samples" 100 (Stat.min_samples ~p:90. ~k:10);
  Alcotest.(check int) "p50 needs 20 samples" 20 (Stat.min_samples ~p:50. ~k:10);
  Alcotest.(check int) "p99 needs 1000 samples" 1000 (Stat.min_samples ~p:99. ~k:10)

let span id parent t0 t1 = { Spans.id; parent; op = 0; name = string_of_int id; t0; t1 }

let self_time () =
  (* 1 [0,10] has children 2 [1,4] and 3 [3,6], which overlap; 2 has
     child 4 [2,3]; 5 [8,12] sticks out of its parent 1 *)
  let spans =
    [ span 1 0 0. 10.; span 2 1 1. 4.; span 3 1 3. 6.; span 4 2 2. 3.; span 5 1 8. 12. ]
  in
  let selfs = List.map snd (Spans.self_times spans) in
  Alcotest.check floats "self = duration - covered part" [ 3.; 2.; 3.; 1.; 4. ] selfs;
  Alcotest.(check (float 1e-9)) "union of overlapping intervals" 5.
    (Spans.covered ~lo:0. ~hi:10. [ (1., 4.); (3., 6.) ])

let recorded_nesting () =
  let t = Spans.create () in
  Spans.with_span t "root" (fun () ->
      Spans.with_span t "a" (fun () -> Spans.with_span t "b" ignore);
      Spans.with_span t "c" ignore);
  let by_name n = List.find (fun (s : Spans.span) -> s.name = n) (Spans.spans t) in
  let root = by_name "root" in
  Alcotest.(check int) "root has no parent" 0 root.parent;
  Alcotest.(check int) "a under root" root.id (by_name "a").parent;
  Alcotest.(check int) "b under a" (by_name "a").id (by_name "b").parent;
  Alcotest.(check int) "c under root" root.id (by_name "c").parent;
  let off = Spans.create ~enabled:false () in
  Alcotest.(check int) "disabled recorder keeps nothing" 0
    (Spans.with_span off "x" (fun () -> List.length (Spans.spans off)))

let logs = [ Gen.file Gen.Log 0; Gen.file Gen.Log 1 ]
let bibs = [ Gen.file Gen.Bib 0 ]
let seq seed = Mix.sequence ~seed ~pattern:Mix.serve_pattern ~logs ~bibs 200

let same_seed_same_ops () =
  Alcotest.(check bool) "same seed, same op sequence" true (seq 7 = seq 7);
  Alcotest.(check bool) "another seed, another sequence" false (seq 7 = seq 8);
  let kinds s = Array.map (fun (r : Mix.req) -> r.kind) s in
  Alcotest.(check bool) "kind pattern is seed-independent, bar warm-up repeats" true
    (Array.sub (kinds (seq 7)) 40 160 = Array.sub (kinds (seq 8)) 40 160);
  let f = List.hd logs in
  Alcotest.(check string) "same seed, same append batch" (Gen.batch ~seed:3 f 2)
    (Gen.batch ~seed:3 f 2);
  Alcotest.(check bool) "another seed, another batch" false
    (Gen.batch ~seed:3 f 2 = Gen.batch ~seed:4 f 2)

(* A small file of each kind parses under the program's schemas. *)
let corpora_conform () =
  let check kind view =
    let f = { (Gen.file kind 0) with Gen.initial = 40 } in
    let text = Gen.initial_text ~seed:1 f ^ Gen.batch ~seed:1 f 0 in
    match Fschema.View.load_file view (Pat.Text.of_string text) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  check Gen.Log Fschema.Log_schema.view;
  check Gen.Bib Fschema.Bibtex_schema.view

let () =
  Alcotest.run "perfbench"
    [
      ( "stat",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick nearest_rank;
          Alcotest.test_case "samples beyond a percentile" `Quick samples_beyond;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time with nested spans" `Quick self_time;
          Alcotest.test_case "recorded nesting" `Quick recorded_nesting;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "determinism" `Quick same_seed_same_ops;
          Alcotest.test_case "corpora conform to the schemas" `Quick corpora_conform;
        ] );
    ]

(* Unit tests for the benchmark's own arithmetic and grammar. *)

open Pb_core

let span ?(parent = -1) ?(agg = 0) id name t0 t1 =
  { sp_id = id; sp_name = name; sp_parent = parent; sp_machine = 0;
    sp_domain = 0; sp_t0 = Int64.of_int t0; sp_t1 = Int64.of_int t1;
    sp_agg = agg }

let self_of spans id = Hashtbl.find (self_times spans) id

let test_self_nested () =
  (* pass [0,100) with children [10,30) and [50,60): self 70 *)
  let s = [ span 0 "pass" 0 100; span ~parent:0 1 "a" 10 30;
            span ~parent:0 2 "b" 50 60 ] in
  Alcotest.(check int) "parent self" 70 (self_of s 0);
  Alcotest.(check int) "leaf self" 20 (self_of s 1)

let test_self_overlap_and_clip () =
  (* overlapping children count once; a child running past its parent is
     clipped to the parent's interval *)
  let s = [ span 0 "p" 0 100; span ~parent:0 1 "a" 10 40;
            span ~parent:0 2 "b" 30 50; span ~parent:0 3 "c" 90 130 ] in
  Alcotest.(check int) "union" (100 - 40 - 10) (self_of s 0)

let test_self_agg () =
  (* an aggregated child is subtracted as a sum; grandchildren do not
     reach the grandparent *)
  let s = [ span 0 "run" 0 100; span ~parent:0 ~agg:500 1 "rt" 0 25;
            span ~parent:0 2 "x" 50 70; span ~parent:2 3 "y" 55 60 ] in
  Alcotest.(check int) "run self" (100 - 25 - 20) (self_of s 0);
  Alcotest.(check int) "x self" 15 (self_of s 2);
  Alcotest.(check int) "never negative" 0
    (self_of [ span 0 "r" 0 10; span ~parent:0 ~agg:3 1 "rt" 0 50 ] 0)

let test_uncovered () =
  let s = [ span 0 "pass" 0 100; span ~parent:0 1 "m" 0 75;
            span 2 "pass" 200 300; span ~parent:2 3 "m" 200 300 ] in
  Alcotest.(check (float 1e-9)) "share" 0.125 (uncovered_share ~root:"pass" s);
  let by = self_by_name s in
  Alcotest.(check int) "by name" 25 (Hashtbl.find by "pass")

let test_tail_rule () =
  let xs n = List.init n float_of_int in
  (* 1000 samples: p99 has exactly 10 beyond it *)
  (match tail_percentile (xs 1000) with
   | Some (p, v, beyond) ->
     Alcotest.(check (float 0.)) "p99" 99.0 p;
     Alcotest.(check (float 0.)) "value" 989.0 v;
     Alcotest.(check int) "beyond" 10 beyond
   | None -> Alcotest.fail "p99 expected");
  (* 200 samples: p99 has 2 beyond, p95 has 10 *)
  (match tail_percentile (xs 200) with
   | Some (p, _, beyond) ->
     Alcotest.(check (float 0.)) "p95" 95.0 p;
     Alcotest.(check int) "beyond" 10 beyond
   | None -> Alcotest.fail "p95 expected");
  (* 72 samples: only p75 keeps 10 beyond *)
  (match tail_percentile (xs 72) with
   | Some (p, _, _) -> Alcotest.(check (float 0.)) "p75" 75.0 p
   | None -> Alcotest.fail "p75 expected");
  Alcotest.(check bool) "too few" true (tail_percentile (xs 30) = None);
  (* ties at the percentile value are not beyond it *)
  Alcotest.(check bool) "ties" true
    (tail_percentile (List.init 100 (fun _ -> 1.0)) = None)

let test_quartiles () =
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let q1, m, q3 = quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 1e-12)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-12)) "median" 5.5 m;
  Alcotest.(check (float 1e-12)) "q3" 8.25 q3;
  Alcotest.(check (float 0.)) "single" 4.0 (median [ 4.0 ])

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (valid_name n))
    [ "setup_s"; "isa.run_mips"; "libc.alloc.sweeps_per_free"; "fig4-mix";
      "0x"; String.make 64 'a' ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (valid_name n))
    [ ""; "_x"; ".x"; "-x"; "a b"; "a/b"; "é"; String.make 65 'a' ];
  Alcotest.check_raises "result refuses a bad name"
    (Invalid_argument "Pb_core.result_json: bad metric name a b")
    (fun () -> ignore (result_json ~correct:true ~attempted:1 ~failed:0
                         [ "a b", 1.0, "s" ]))

let test_json () =
  Alcotest.(check string) "result"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
     {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"n\": {\"value\": 2.0, \
     \"unit\": \"count\"}}}"
    (result_json ~correct:true ~attempted:3 ~failed:0
       [ "setup_s", 0.25, "s"; "n", 2.0, "count" ]);
  Alcotest.check_raises "nan refused" (Invalid_argument "Pb_core.json_float: not finite")
    (fun () -> ignore (json_float Float.nan))

let () =
  Alcotest.run "perfbench"
    [ "spans",
      [ Alcotest.test_case "nested self time" `Quick test_self_nested;
        Alcotest.test_case "overlap and clip" `Quick test_self_overlap_and_clip;
        Alcotest.test_case "aggregated children" `Quick test_self_agg;
        Alcotest.test_case "uncovered share" `Quick test_uncovered ];
      "stats",
      [ Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
        Alcotest.test_case "quartiles" `Quick test_quartiles ];
      "output",
      [ Alcotest.test_case "metric-name grammar" `Quick test_names;
        Alcotest.test_case "result json" `Quick test_json ] ]

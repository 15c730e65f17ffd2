(* The benchmark's own arithmetic: nearest-rank percentiles, the
   geometric mean over cells, and span self time. *)

let check_float = Alcotest.(check (float 1e-9))
let ints n = Array.init n (fun i -> float_of_int (i + 1))

let test_rank () =
  Alcotest.(check int) "p50 of 4" 2 (Stats.rank ~p:50 4);
  Alcotest.(check int) "p90 of 100" 90 (Stats.rank ~p:90 100);
  Alcotest.(check int) "p90 of 101" 91 (Stats.rank ~p:90 101);
  Alcotest.(check int) "p0 is the minimum" 1 (Stats.rank ~p:0 7);
  Alcotest.(check int) "p100 is the maximum" 7 (Stats.rank ~p:100 7)

let test_percentile () =
  let xs = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  check_float "median" 3.0 (Stats.median xs);
  check_float "p90" 5.0 (Stats.percentile ~p:90 xs);
  check_float "p90 of 1..100" 90.0 (Stats.percentile ~p:90 (ints 100));
  check_float "input untouched" 5.0 xs.(0)

let test_beyond () =
  (* the benchmark's rule: a reported p90 has ten samples beyond it *)
  Alcotest.(check int) "100 samples leave 10 beyond p90" 10 (Stats.beyond ~p:90 100);
  Alcotest.(check int) "99 leave only 9" 9 (Stats.beyond ~p:90 99);
  Alcotest.(check int) "fewest samples for 10 beyond p90" 100
    (Stats.min_samples ~p:90 ~beyond:10);
  Alcotest.(check int) "fewest samples for 10 beyond p99" 1000
    (Stats.min_samples ~p:99 ~beyond:10);
  let n = Stats.min_samples ~p:90 ~beyond:10 in
  let xs = ints n in
  let p90 = Stats.percentile ~p:90 xs in
  Alcotest.(check int) "counted directly" 10
    (Array.fold_left (fun acc x -> if x > p90 then acc + 1 else acc) 0 xs)

let test_gmean () =
  check_float "1 and 100" 10.0 (Stats.gmean [ 1.0; 100.0 ]);
  check_float "constant" 7.0 (Stats.gmean [ 7.0; 7.0; 7.0 ]);
  (* every cell weighs the same: scaling one cell by k moves the mean by
     k^(1/n), whichever cell it is *)
  let base = [ 0.5; 20.0; 300.0 ] in
  let scaled i = List.mapi (fun j v -> if i = j then 2.0 *. v else v) base in
  check_float "cheap cell" (Stats.gmean base *. Float.cbrt 2.0) (Stats.gmean (scaled 0));
  check_float "dear cell" (Stats.gmean base *. Float.cbrt 2.0) (Stats.gmean (scaled 2));
  Alcotest.check_raises "empty" (Invalid_argument "Stats.gmean: no values") (fun () ->
      ignore (Stats.gmean []));
  Alcotest.check_raises "zero" (Invalid_argument "Stats.gmean: value <= 0") (fun () ->
      ignore (Stats.gmean [ 1.0; 0.0 ]))

let span parent start stop = { Stats.parent; start; stop }

let test_self_nested () =
  (* root [0,100]: parse [0,10], call [20,80] holding a handler [30,70]
     that holds a shard call [40,50] *)
  let spans =
    [| span (-1) 0 100; span 0 0 10; span 0 20 80; span 2 30 70; span 3 40 50 |]
  in
  let selfs = Stats.self_times spans in
  Alcotest.(check (array int)) "self times" [| 30; 10; 20; 30; 10 |] selfs;
  Alcotest.(check int) "a nested tree sums to its root" 100
    (Array.fold_left ( + ) 0 selfs)

let test_self_overlapping () =
  (* two children sharing [30,40] cover it once; a child running past
     its parent counts only inside it *)
  let spans = [| span (-1) 0 100; span 0 20 40; span 0 30 60; span 0 90 120 |] in
  let selfs = Stats.self_times spans in
  Alcotest.(check int) "root self" 50 selfs.(0);
  (* the ledger sum no longer matches the root: the overlap (10) and the
     overhang (20) are counted twice, which is what the check catches *)
  Alcotest.(check int) "overlap shows in the sum" 130 (Array.fold_left ( + ) 0 selfs)

let test_self_order () =
  (* parents may come after their children in the array (spans joined
     from another process are appended) *)
  let spans = [| span 2 10 20; span (-1) 0 50; span 1 5 30 |] in
  Alcotest.(check (array int)) "self times" [| 10; 25; 15 |] (Stats.self_times spans)

let () =
  Alcotest.run "perfbench-stats"
    [
      ( "percentile",
        [
          Alcotest.test_case "nearest rank" `Quick test_rank;
          Alcotest.test_case "values" `Quick test_percentile;
          Alcotest.test_case "ten samples beyond p90" `Quick test_beyond;
        ] );
      ("gmean", [ Alcotest.test_case "over cells" `Quick test_gmean ]);
      ( "self time",
        [
          Alcotest.test_case "nested" `Quick test_self_nested;
          Alcotest.test_case "overlapping and overhanging" `Quick test_self_overlapping;
          Alcotest.test_case "any order" `Quick test_self_order;
        ] );
    ]

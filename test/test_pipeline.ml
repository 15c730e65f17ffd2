(* The streaming operator pipeline: golden results for the paper's
   §5.3 queries, fused and unfused plan agreement, property tests
   against the plaintext reference, plan lowering shapes, scan order,
   cursor teardown, and the --explain counters. *)

module DB = Secshare_core.Database
module QC = Secshare_core.Query_common
module Plan = Secshare_core.Plan
module Operator = Secshare_core.Operator
module Client_filter = Secshare_core.Client_filter
module Server_filter = Secshare_core.Server_filter
module Metrics = Secshare_core.Metrics
module Reference = Secshare_core.Reference
module Protocol = Secshare_rpc.Protocol
module Transport = Secshare_rpc.Transport
module Generate = Secshare_xmark.Generate
module Parser = Secshare_xpath.Parser
module Ast = Secshare_xpath.Ast

let check = Alcotest.check

let qtest ?(count = 25) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let pres = Test_support.pres_of_metas
let parse = Parser.parse_exn

let xmark_doc = lazy (Generate.generate_bytes ~seed:20050905L ~target_bytes:30_000 ())
let xmark_db = lazy (Test_support.db_of_tree (Lazy.force xmark_doc))

let query_pres db ~engine ~strictness q =
  DB.result_nodes (Test_support.must_query ~engine ~strictness db q) |> pres

(* --- golden results for the five queries of table 2 (§5.3/§6.3) --- *)

(* Captured from the pre-pipeline engines on this exact document and
   seed; the streaming rewrite must reproduce them bit for bit. *)
let golden =
  [
    ("/site//europe/item", QC.Strict, [ 92; 113 ]);
    ("/site//europe/item", QC.Non_strict, [ 3; 31; 64; 91; 92; 113; 139; 170 ]);
    ("/site//europe//item", QC.Strict, [ 92; 113 ]);
    ( "/site//europe//item",
      QC.Non_strict,
      [ 3; 4; 16; 31; 32; 48; 64; 65; 76; 91; 92; 113; 139; 140; 160; 170; 171; 187 ] );
    ("/site/*/person//city", QC.Strict, [ 226; 246; 261; 278; 293; 319; 328 ]);
    ( "/site/*/person//city",
      QC.Non_strict,
      [ 224; 226; 244; 246; 259; 261; 276; 278; 291; 293; 317; 319; 326; 328 ] );
    ("/*/*/open_auction/bidder/date", QC.Strict, [ 337; 342; 347; 352; 370; 391; 410; 415 ]);
    ( "/*/*/open_auction/bidder/date",
      QC.Non_strict,
      [ 337; 342; 347; 352; 370; 391; 410; 415 ] );
    ("//bidder/date", QC.Strict, [ 337; 342; 347; 352; 370; 391; 410; 415 ]);
    ( "//bidder/date",
      QC.Non_strict,
      [
        2; 332; 333; 336; 337; 341; 342; 346; 347; 351; 352; 367; 369; 370; 388; 390;
        391; 406; 409; 410; 414; 415; 437;
      ] );
  ]

let test_golden_results () =
  let db = Lazy.force xmark_db in
  List.iter
    (fun (q, strictness, expected) ->
      List.iter
        (fun (name, engine) ->
          check
            Alcotest.(list int)
            (Printf.sprintf "%s (%s)" q name)
            expected
            (query_pres db ~engine ~strictness q))
        [ ("simple", DB.Simple); ("advanced", DB.Advanced) ])
    golden

(* --- fused and unfused plans agree; fusion saves round trips --- *)

(* The matched set a node-valued plan evaluates to, in document order. *)
let run_nodes filter plan =
  match Operator.run filter plan with
  | QC.Nodes nodes, _ -> nodes
  | _ -> Alcotest.fail "expected a node set"

(* Run an advanced-engine plan lowered with or without fusion on the
   shared executor: the sorted result and the round trips it took. *)
let run_advanced_plan db ~fused ~strictness q =
  let filter = DB.client_filter db in
  let plan =
    Secshare_core.Advanced_query.lower ~fused ~mapping:(DB.mapping db) ~strictness
      (parse q)
  in
  let calls0 = (Client_filter.rpc_counters filter).Transport.calls in
  let nodes = run_nodes filter plan in
  (pres nodes, (Client_filter.rpc_counters filter).Transport.calls - calls0)

let test_fused_unfused_agree () =
  let db = Lazy.force xmark_db in
  List.iter
    (fun (q, strictness, expected) ->
      List.iter
        (fun fused ->
          check Alcotest.(list int)
            (Printf.sprintf "%s (fused=%b)" q fused)
            expected
            (fst (run_advanced_plan db ~fused ~strictness q)))
        [ true; false ])
    golden;
  (* the fused plan carries its first sieve point inside the scan, so
     it needs strictly fewer round trips than the unfused one *)
  List.iter
    (fun q ->
      let _, fused = run_advanced_plan db ~fused:true ~strictness:QC.Non_strict q in
      let _, unfused = run_advanced_plan db ~fused:false ~strictness:QC.Non_strict q in
      Alcotest.(check bool)
        (Printf.sprintf "%s: fused calls (%d) beat unfused (%d)" q fused unfused)
        true (fused < unfused))
    [
      "/site/regions";
      "/site/regions/europe/item";
      "/site/regions/europe/item/description/parlist";
      "/site/regions/europe/item/description/parlist/listitem/text/keyword";
    ]

(* --- lowering shapes --- *)

let test_plan_shapes () =
  let db = Lazy.force xmark_db in
  let mapping = DB.mapping db in
  let chain = parse "/site/regions/europe" in
  let fused_plan =
    Secshare_core.Simple_query.lower ~mapping ~strictness:QC.Non_strict chain
  in
  let unfused_plan =
    Secshare_core.Advanced_query.lower ~fused:false ~mapping ~strictness:QC.Non_strict
      chain
  in
  (* fused: every name test rides in its scan, no separate filters *)
  Alcotest.(check bool)
    "fused chain plan has no containment filters" true
    (List.for_all
       (function Plan.Filter_containment _ -> false | _ -> true)
       fused_plan);
  Alcotest.(check bool)
    "fused chain plan evals inside every scan" true
    (List.for_all
       (function Plan.Scan { eval; _ } -> eval <> None | _ -> true)
       fused_plan);
  (* unfused (advanced engine): scans are bare, each step filters
     separately *)
  Alcotest.(check bool)
    "unfused chain plan has bare scans" true
    (List.for_all
       (function Plan.Scan { eval; _ } -> eval = None | _ -> true)
       unfused_plan);
  check Alcotest.int "unfused chain plan has one filter per step" 3
    (List.length
       (List.filter (function Plan.Filter_containment _ -> true | _ -> false) unfused_plan));
  (* the advanced engine turns // into a pruned walk carrying the
     look-ahead points of the remaining query *)
  let adv =
    Secshare_core.Advanced_query.lower ~fused:true ~mapping ~strictness:QC.Strict
      (parse "//bidder/date")
  in
  (match
     List.find_opt (function Plan.Pruned_scan _ -> true | _ -> false) adv
   with
  | Some (Plan.Pruned_scan { prune; include_self }) ->
      Alcotest.(check bool) "first // includes self" true include_self;
      check Alcotest.int "prune carries own + look-ahead points" 2 (List.length prune)
  | _ -> Alcotest.fail "advanced // plan lost its pruned scan");
  (* strict mode never fuses the simple engine's test into the scan:
     the equality test has no containment sieve to ride on *)
  let strict_plan = Secshare_core.Simple_query.lower ~mapping ~strictness:QC.Strict chain in
  Alcotest.(check bool)
    "strict simple plan keeps bare scans + equality filters" true
    (List.for_all
       (function
         | Plan.Scan { eval; _ } -> eval = None
         | Plan.Filter_equality _ | Plan.Dedup -> true
         | _ -> false)
       strict_plan)

(* --- property: pipeline engines agree with the reference on //-free
       queries over random documents --- *)

let gen_child_query : Ast.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* len = int_range 1 4 in
  let step_gen =
    let* test =
      oneof
        [
          map (fun n -> Ast.Name n) (oneofl Test_support.small_tags);
          return Ast.Any;
        ]
    in
    return { Ast.axis = Ast.Child; test; contains = None }
  in
  list_repeat len step_gen

let gen_tree_and_query =
  QCheck2.Gen.pair Test_support.gen_tree gen_child_query

let prop_child_queries_match_reference (tree, query) =
  let db = Test_support.db_of_tree tree in
  let expected_strict = Reference.run tree query in
  let expected_loose = Reference.run ~semantics:Reference.Containment tree query in
  let run db engine strictness =
    match DB.query_ast ~engine ~strictness db query with
    | Ok r -> pres (DB.result_nodes r)
    | Error msg -> failwith msg
  in
  Fun.protect
    ~finally:(fun () -> DB.close db)
    (fun () ->
      run db DB.Simple QC.Strict = expected_strict
      && run db DB.Advanced QC.Strict = expected_strict
      && run db DB.Simple QC.Non_strict = expected_loose
      && run db DB.Advanced QC.Non_strict = expected_loose)

(* --- cursor teardown --- *)

(* A database's parts rewired through a client filter with tiny
   batches, so multi-batch scans (and therefore server cursors) appear
   even on small documents. *)
let small_batch_parts ?(wrap = fun h -> h) () =
  let db = Lazy.force xmark_db in
  let server = Server_filter.create (DB.ring db) (DB.table db) in
  let transport =
    Transport.local ~handler:(wrap (Server_filter.handler server))
  in
  let filter =
    Client_filter.create (DB.ring db) ~seed:Test_support.test_seed ~scan_batch:2 transport
  in
  (server, filter)

let descendants_plan =
  [
    Plan.Scan { axis = Plan.Root_scan; eval = None };
    Plan.Scan { axis = Plan.Descendant_scan { include_self = false }; eval = None };
  ]

let test_limit_closes_cursors () =
  let server, filter = small_batch_parts () in
  let nodes = run_nodes filter (descendants_plan @ [ Plan.Limit 3 ]) in
  check Alcotest.int "limit result size" 3 (List.length nodes);
  check Alcotest.int "no cursor survives a satisfied limit" 0
    (Server_filter.open_cursors server)

let test_abandoned_pipeline_closes_cursors () =
  let server, filter = small_batch_parts () in
  let ops = Operator.build filter descendants_plan in
  let sink = List.nth ops (List.length ops - 1) in
  (* pull one batch and walk away: the scan is mid-stream *)
  (match Operator.next sink with
  | Some batch -> Alcotest.(check bool) "first batch nonempty" true (Array.length batch > 0)
  | None -> Alcotest.fail "expected a first batch");
  Alcotest.(check bool) "scan holds a cursor mid-stream" true
    (Server_filter.open_cursors server > 0);
  List.iter Operator.close ops;
  check Alcotest.int "close releases the cursor" 0 (Server_filter.open_cursors server)

let test_failing_query_closes_cursors () =
  (* evaluations fail, navigation works: the containment filter dies
     while the descendant scan's cursor is mid-stream *)
  let wrap handler = function
    | Protocol.Eval_batch _ -> Protocol.Error_msg "boom"
    | req -> handler req
  in
  let server, filter = small_batch_parts ~wrap () in
  let plan = descendants_plan @ [ Plan.Filter_containment { points = [ 1 ] } ] in
  (match Operator.run filter plan with
  | _ -> Alcotest.fail "expected the filter to fail"
  | exception Client_filter.Filter_error _ -> ());
  check Alcotest.int "failure tears the cursor down" 0 (Server_filter.open_cursors server)

(* --- scan order --- *)

let test_pruned_scan_level_order () =
  (* A pruned walk whose levels span several two-row scan batches must
     keep each level in document order, so every look-ahead Eval_batch
     after it carries ascending pres (a router splits a non-ascending
     list into extra partition runs, i.e. extra shard calls). *)
  let unordered = ref [] in
  let wrap handler request =
    (match request with
    | Protocol.Eval_batch { pres; _ } ->
        if pres <> List.sort_uniq compare pres then unordered := pres :: !unordered
    | _ -> ());
    handler request
  in
  let server, filter = small_batch_parts ~wrap () in
  let db = Lazy.force xmark_db in
  List.iter
    (fun q ->
      let plan =
        Secshare_core.Advanced_query.lower ~fused:true ~mapping:(DB.mapping db)
          ~strictness:QC.Non_strict (parse q)
      in
      check Alcotest.(list int) (q ^ " result")
        (query_pres db ~engine:DB.Advanced ~strictness:QC.Non_strict q)
        (pres (run_nodes filter plan)))
    [ "//bidder/date"; "/site//europe//item"; "/site/*/person//city"; "//person/name" ];
  check Alcotest.int "Eval_batch requests with non-ascending pres" 0
    (List.length !unordered);
  check Alcotest.int "no cursor left open" 0 (Server_filter.open_cursors server)

(* --- the --explain counters --- *)

let explain_queries =
  [ "/site"; "/site/regions/europe/item"; "/site//europe/item"; "//bidder/date";
    "/site/*"; "//date/.." ]

let test_operator_stats () =
  let db = Lazy.force xmark_db in
  List.iter
    (fun q ->
      List.iter
        (fun (engine, strictness) ->
          let r = Test_support.must_query ~engine ~strictness db q in
          Alcotest.(check bool) (q ^ " has operators") true (r.DB.operators <> []);
          let first = List.hd r.DB.operators in
          Alcotest.(check bool)
            (q ^ " starts at a root scan")
            true
            (String.length first.Metrics.op_name >= 9
            && String.sub first.Metrics.op_name 0 9 = "scan-root");
          (* every round trip of the query is attributed to exactly
             one operator *)
          check Alcotest.int (q ^ " rpc calls attributed")
            r.DB.rpc_calls
            (List.fold_left (fun acc s -> acc + s.Metrics.rpc_calls) 0 r.DB.operators);
          check Alcotest.int (q ^ " rpc bytes attributed")
            r.DB.rpc_bytes
            (List.fold_left (fun acc s -> acc + s.Metrics.rpc_bytes) 0 r.DB.operators);
          (* the sink's output is the (deduplicated) result *)
          let sink = List.nth r.DB.operators (List.length r.DB.operators - 1) in
          check Alcotest.int (q ^ " sink rows = result size")
            (List.length (DB.result_nodes r))
            sink.Metrics.rows_out)
        [
          (DB.Simple, QC.Non_strict);
          (DB.Simple, QC.Strict);
          (DB.Advanced, QC.Non_strict);
          (DB.Advanced, QC.Strict);
        ])
    explain_queries

let () =
  Alcotest.run "pipeline"
    [
      ( "golden",
        [
          Alcotest.test_case "paper queries, both engines" `Quick test_golden_results;
          Alcotest.test_case "fused and unfused plans agree" `Quick
            test_fused_unfused_agree;
        ] );
      ("lowering", [ Alcotest.test_case "plan shapes" `Quick test_plan_shapes ]);
      ( "ordering",
        [
          Alcotest.test_case "pruned levels stay in document order" `Quick
            test_pruned_scan_level_order;
        ] );
      ( "reference",
        [
          qtest "child-only queries match the plaintext reference" gen_tree_and_query
            prop_child_queries_match_reference;
        ] );
      ( "teardown",
        [
          Alcotest.test_case "satisfied limit closes cursors" `Quick
            test_limit_closes_cursors;
          Alcotest.test_case "abandoned pipeline closes cursors" `Quick
            test_abandoned_pipeline_closes_cursors;
          Alcotest.test_case "failing query closes cursors" `Quick
            test_failing_query_closes_cursors;
        ] );
      ("explain", [ Alcotest.test_case "operator counters" `Quick test_operator_stats ]);
    ]

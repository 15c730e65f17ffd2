(* The sharded serving subsystem (lib/shard): manifest format, the
   offline dealer split, and the router — golden-equality against the
   single server, threshold degradation with shards killed before and
   mid-query, and error discipline (application errors propagate,
   transport deaths fail over). *)

module DB = Secshare_core.Database
module QC = Secshare_core.Query_common
module Share = Secshare_core.Share
module Server_filter = Secshare_core.Server_filter
module Manifest = Secshare_shard.Manifest
module Split = Secshare_shard.Split
module Router = Secshare_shard.Router
module Node_table = Secshare_store.Node_table
module Page = Secshare_store.Page
module Transport = Secshare_rpc.Transport
module Protocol = Secshare_rpc.Protocol
module Ring = Secshare_poly.Ring
module Seed = Secshare_prg.Seed

let check = Alcotest.check

let qtest ?(count = 15) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let ring = Ring.of_prime ~p:83
let pres = Test_support.pres_of_metas

let contains ~sub s =
  let n = String.length sub and len = String.length s in
  let rec go i = i + n <= len && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- manifest --- *)

let m0 =
  {
    Manifest.shard_id = 1;
    shards = 3;
    threshold = 2;
    p = 83;
    e = 1;
    rows = 100;
    bounds = [| 1; 10; 20 |];
  }

let test_manifest_roundtrip () =
  let path = Filename.temp_file "ssdb-shard" ".manifest" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Manifest.save path m0;
      match Manifest.load path with
      | Error e -> Alcotest.fail e
      | Ok m -> check Alcotest.bool "identical after the roundtrip" true (m = m0));
  match Manifest.load (path ^ ".does-not-exist") with
  | Ok _ -> Alcotest.fail "loaded a missing file"
  | Error _ -> ()

let test_manifest_validate () =
  let bad name m =
    match Manifest.validate m with
    | Ok () -> Alcotest.failf "validate accepted %s" name
    | Error _ -> ()
  in
  check Alcotest.bool "m0 is valid" true (Manifest.validate m0 = Ok ());
  bad "threshold 0" { m0 with Manifest.threshold = 0 };
  bad "threshold > shards" { m0 with Manifest.threshold = 4 };
  bad "shard_id out of range" { m0 with Manifest.shard_id = 9 };
  bad "negative rows" { m0 with Manifest.rows = -1 };
  bad "empty bounds" { m0 with Manifest.bounds = [||] };
  bad "non-ascending bounds" { m0 with Manifest.bounds = [| 1; 10; 10 |] }

let test_manifest_group () =
  let group = List.init 3 (fun i -> { m0 with Manifest.shard_id = i + 1 }) in
  (match Manifest.group_consistent group with
  | Error e -> Alcotest.fail e
  | Ok summary ->
      check Alcotest.int "summary is the router's view" 0 summary.Manifest.shard_id;
      check Alcotest.int "geometry preserved" 2 summary.Manifest.threshold);
  let bad name group =
    match Manifest.group_consistent group with
    | Ok _ -> Alcotest.failf "group_consistent accepted %s" name
    | Error _ -> ()
  in
  bad "duplicate shard ids" [ m0; m0; { m0 with Manifest.shard_id = 3 } ];
  bad "diverging rows"
    [
      m0;
      { m0 with Manifest.shard_id = 2; rows = 99 };
      { m0 with Manifest.shard_id = 3 };
    ];
  bad "diverging bounds"
    [
      m0;
      { m0 with Manifest.shard_id = 2; bounds = [| 1; 10; 21 |] };
      { m0 with Manifest.shard_id = 3 };
    ];
  bad "empty group" []

let test_partition_of () =
  check Alcotest.int "partitions" 3 (Manifest.partitions m0);
  List.iter
    (fun (pre, want) ->
      check Alcotest.int (Printf.sprintf "pre %d" pre) want
        (Manifest.partition_of m0 ~pre))
    [ (0, 0); (1, 0); (9, 0); (10, 1); (19, 1); (20, 2); (100000, 2) ]

let test_wire_roundtrip () =
  let m = Manifest.of_info ~p:83 ~e:1 (Manifest.to_info m0) in
  check Alcotest.bool "to_info/of_info roundtrip" true (m = m0)

(* --- an in-process threshold deployment ---

   Each shard is a real [Server_filter] over its own share table,
   reached through a [Transport.local] wrapped in a fault switch so
   tests can kill a shard's transport (every call fails, including the
   router's Ping probe) or make it misbehave at the application level
   (calls fail but Ping still answers). *)

type fault = Healthy | Transport_down | App_failing

type deployment = {
  db : DB.t;  (** the single-server reference (local handle) *)
  tables : Node_table.t array;
  switches : fault ref array;
  router : Router.t;
}

let wrap switch handler request =
  match (!switch, request) with
  | Healthy, _ -> handler request
  | Transport_down, _ -> Protocol.Error_msg "injected: transport down"
  | App_failing, Protocol.Ping -> handler request
  | App_failing, _ -> Protocol.Error_msg "injected application error"

let make_deployment ?(threshold = 2) ?(shards = 3) tree =
  let db = Test_support.db_of_tree tree in
  let tables = Array.init shards (fun _ -> Node_table.create ()) in
  let manifests =
    Split.split_table ring ~threshold ~shards ~dealer_seed:(Seed.generate ())
      ~source:(DB.table db) ~sinks:tables
  in
  let switches = Array.init shards (fun _ -> ref Healthy) in
  let transports =
    List.init shards (fun i ->
        let filter =
          Server_filter.create ~manifest:(Manifest.to_info manifests.(i)) ring
            tables.(i)
        in
        Transport.local ~handler:(wrap switches.(i) (Server_filter.handler filter)))
  in
  match Router.of_transports ring transports with
  | Error e -> failwith ("router: " ^ e)
  | Ok router -> { db; tables; switches; router }

let teardown d =
  Router.close d.router;
  DB.close d.db

let client_of d =
  match
    DB.of_transport ~p:83 ~e:1 ~mapping:(DB.mapping d.db) ~seed:(DB.seed d.db)
      (Transport.local ~handler:(Router.handler d.router))
  with
  | Ok c -> c
  | Error e -> failwith e

let xmark_tree = Secshare_xmark.Generate.generate ~factor:0.5 ()

let golden_queries =
  [ "/site"; "/site/regions/europe/item"; "//bidder/date"; "/site/*/person//city" ]

let modes =
  [ (DB.Simple, QC.Non_strict); (DB.Advanced, QC.Non_strict); (DB.Advanced, QC.Strict) ]

let check_golden ?(note = "") d client =
  List.iter
    (fun q ->
      List.iter
        (fun (engine, strictness) ->
          let local = Test_support.must_query ~engine ~strictness d.db q in
          match DB.query ~engine ~strictness client q with
          | Error e -> Alcotest.failf "%s%s routed: %s" note q e
          | Ok routed ->
              check Alcotest.(list int) (note ^ q) (pres (DB.result_nodes local))
                (pres (DB.result_nodes routed)))
        modes)
    golden_queries

(* --- the dealer split --- *)

let test_split_reconstructs () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      let checked = ref 0 in
      Node_table.iter (DB.table d.db) ~f:(fun row ->
          List.iter
            (fun xs ->
              let shares =
                List.map
                  (fun i ->
                    match Node_table.find_by_pre d.tables.(i - 1) row.Page.pre with
                    | Some r -> r.Page.share
                    | None -> Alcotest.failf "shard %d misses pre" i)
                  xs
              in
              let got =
                Share.reconstruct_packed ring
                  ~lambdas:(Share.shard_lambdas ring ~xs)
                  shares
              in
              if not (Bytes.equal got row.Page.share) then
                Alcotest.failf "reconstruction differs for a row (subset %s)"
                  (String.concat "," (List.map string_of_int xs));
              incr checked)
            [ [ 1; 2 ]; [ 2; 3 ]; [ 1; 3 ]; [ 3; 1 ] ]);
      check Alcotest.bool "checked every row against every 2-subset" true
        (!checked = 4 * Node_table.row_count (DB.table d.db)))

let test_split_metadata_and_masking () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      let source = DB.table d.db in
      let n = Node_table.row_count source in
      Array.iter
        (fun t ->
          check Alcotest.int "every shard holds every row" n (Node_table.row_count t))
        d.tables;
      let shard1_differs = ref false and shards_differ = ref false in
      Node_table.iter source ~f:(fun row ->
          match
            ( Node_table.find_by_pre d.tables.(0) row.Page.pre,
              Node_table.find_by_pre d.tables.(1) row.Page.pre )
          with
          | Some s1, Some s2 ->
              check Alcotest.int "post preserved" row.Page.post s1.Page.post;
              check Alcotest.int "parent preserved" row.Page.parent s1.Page.parent;
              if not (Bytes.equal s1.Page.share row.Page.share) then
                shard1_differs := true;
              if not (Bytes.equal s1.Page.share s2.Page.share) then
                shards_differ := true
          | _ -> Alcotest.fail "shard misses a row");
      check Alcotest.bool "shard shares are masked (≠ server share)" true
        !shard1_differs;
      check Alcotest.bool "shards hold distinct shares" true !shards_differ)

let test_bounds_of_table () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      let bounds = Split.bounds_of_table ~shards:4 (DB.table d.db) in
      check Alcotest.int "one window per shard" 4 (Array.length bounds);
      Array.iteri
        (fun i b ->
          if i > 0 then
            check Alcotest.bool "strictly ascending" true (b > bounds.(i - 1)))
        bounds;
      check Alcotest.int "first window starts at the first pre" 1 bounds.(0))

(* --- router golden equality --- *)

let test_router_golden () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      let client = client_of d in
      Fun.protect
        ~finally:(fun () -> DB.close client)
        (fun () ->
          check_golden d client;
          check Alcotest.int "no cursor leaks" 0 (Router.open_cursors d.router)))

let test_router_single_shard () =
  (* a 1-of-1 "deployment" over a plain unsharded server: the filter
     answers the handshake with its default trivial manifest *)
  let db = Test_support.db_of_tree xmark_tree in
  Fun.protect
    ~finally:(fun () -> DB.close db)
    (fun () ->
      let filter = Server_filter.create ring (DB.table db) in
      let transport = Transport.local ~handler:(Server_filter.handler filter) in
      match Router.of_transports ring [ transport ] with
      | Error e -> Alcotest.fail e
      | Ok router ->
          Fun.protect
            ~finally:(fun () -> Router.close router)
            (fun () ->
              check Alcotest.int "threshold 1" 1 (Router.threshold router);
              let client =
                Result.get_ok
                  (DB.of_transport ~p:83 ~e:1 ~mapping:(DB.mapping db)
                     ~seed:(DB.seed db)
                     (Transport.local ~handler:(Router.handler router)))
              in
              Fun.protect
                ~finally:(fun () -> DB.close client)
                (fun () ->
                  List.iter
                    (fun q ->
                      let local = Test_support.must_query db q in
                      match DB.query client q with
                      | Error e -> Alcotest.failf "%s: %s" q e
                      | Ok routed ->
                          check Alcotest.(list int) q (pres (DB.result_nodes local))
                            (pres (DB.result_nodes routed)))
                    golden_queries)))

let test_router_qcheck =
  qtest "routed = local on random documents and queries"
    (QCheck2.Gen.pair Test_support.gen_tree Test_support.gen_query)
    (fun (tree, q) ->
      let d = make_deployment tree in
      Fun.protect
        ~finally:(fun () -> teardown d)
        (fun () ->
          let client = client_of d in
          Fun.protect
            ~finally:(fun () -> DB.close client)
            (fun () ->
              match (DB.query_ast d.db q, DB.query_ast client q) with
              | Ok local, Ok routed -> pres (DB.result_nodes local) = pres (DB.result_nodes routed)
              | Error e, _ | _, Error e -> failwith e)))

(* --- threshold degradation --- *)

let test_kill_one_before_query () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      d.switches.(1) := Transport_down;
      let client = client_of d in
      Fun.protect
        ~finally:(fun () -> DB.close client)
        (fun () ->
          check_golden ~note:"shard 2 down: " d client;
          check Alcotest.int "the dead shard was noticed" 2
            (Router.live_shards d.router)))

let test_kill_shard_hook () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      Router.kill_shard d.router 3;
      check Alcotest.int "marked dead" 2 (Router.live_shards d.router);
      let client = client_of d in
      Fun.protect
        ~finally:(fun () -> DB.close client)
        (fun () -> check_golden ~note:"shard 3 marked dead: " d client))

let test_below_threshold_fails_cleanly () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      d.switches.(0) := Transport_down;
      d.switches.(2) := Transport_down;
      let client = client_of d in
      Fun.protect
        ~finally:(fun () -> DB.close client)
        (fun () ->
          match DB.query client "//bidder/date" with
          | Ok _ -> Alcotest.fail "answered below the threshold"
          | Error e ->
              check Alcotest.bool
                (Printf.sprintf "clean unavailable error (got %S)" e)
                true
                (contains ~sub:"unavailable" e)))

let test_app_error_propagates () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      d.switches.(0) := App_failing;
      let client = client_of d in
      Fun.protect
        ~finally:(fun () -> DB.close client)
        (fun () ->
          match DB.query client "//bidder/date" with
          | Ok _ -> Alcotest.fail "a failing shard answered"
          | Error e ->
              check Alcotest.bool
                (Printf.sprintf "error propagated verbatim (got %S)" e)
                true
                (contains ~sub:"injected application error" e);
              check Alcotest.int "the shard is still considered live" 3
                (Router.live_shards d.router)))

(* --- fused scans: splitting exactness and mid-scan failover --- *)

let scan_all ?(after_first = fun () -> ()) handler ~points ~max_items target =
  match handler (Protocol.Scan_eval { target; points; max_items }) with
  | Protocol.Scan_batch { rows; cursor } ->
      after_first ();
      let rec go acc = function
        | None -> List.concat (List.rev acc)
        | Some c -> (
            match handler (Protocol.Scan_next { cursor = c; max_items }) with
            | Protocol.Scan_batch { rows; cursor } -> go (rows :: acc) cursor
            | r -> Alcotest.failf "scan_next: %a" Protocol.pp_response r)
      in
      go [ rows ] cursor
  | r -> Alcotest.failf "scan_eval: %a" Protocol.pp_response r

let points = [ 5; 17; 42 ]

let test_bounded_target_equivalence () =
  let db = Test_support.db_of_tree xmark_tree in
  Fun.protect
    ~finally:(fun () -> DB.close db)
    (fun () ->
      let filter = Server_filter.create ring (DB.table db) in
      let h = Server_filter.handler filter in
      let rows = Node_table.row_count (DB.table db) in
      let full =
        scan_all h ~points ~max_items:7 (Protocol.Pre_ranges [ (1, rows + 1) ])
      in
      check Alcotest.bool "the scan saw the whole table" true
        (List.length full = rows);
      let mid = 1 + (rows / 3) in
      let split =
        scan_all h ~points ~max_items:7
          (Protocol.Bounded_pre_ranges
             [ (1, mid, rows + 1); (mid, max_int, rows + 1) ])
      in
      check Alcotest.bool "splitting at a partition boundary is exact" true
        (full = split))

let test_mid_scan_failover () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      let rows = Node_table.row_count (DB.table d.db) in
      let reference =
        let filter = Server_filter.create ring (DB.table d.db) in
        scan_all (Server_filter.handler filter) ~points ~max_items:5
          (Protocol.Pre_ranges [ (1, rows + 1) ])
      in
      check Alcotest.bool "reference drains the table" true
        (List.length reference = rows);
      (* kill shard 1's transport after the first batch so the scan
         must fail over mid-stream *)
      let h = Router.handler d.router in
      let routed =
        scan_all h
          ~after_first:(fun () -> d.switches.(0) := Transport_down)
          ~points ~max_items:5
          (Protocol.Pre_ranges [ (1, rows + 1) ])
      in
      check Alcotest.bool "identical rows and evaluations across the failover" true
        (reference = routed);
      check Alcotest.int "the dead shard was noticed" 2 (Router.live_shards d.router);
      check Alcotest.int "no cursor leaks" 0 (Router.open_cursors d.router))

let test_connect_refuses_q257 () =
  (* q = 257 fails the field admission rule before any shard socket is
     opened: the live server below never sees a connection *)
  let path = Filename.temp_file "ssdb-shard" ".sock" in
  Sys.remove path;
  let server = Secshare_rpc.Server.start ~path ~handler:(fun _ -> Protocol.Pong) in
  Fun.protect
    ~finally:(fun () -> Secshare_rpc.Server.stop server)
    (fun () ->
      (match Router.connect ~p:257 ~e:1 [ path ] with
      | Error msg ->
          check Alcotest.bool ("names the bound: " ^ msg) true (contains ~sub:"bound" msg)
      | Ok router ->
          Router.close router;
          Alcotest.fail "router accepted q = 257");
      check Alcotest.int "no shard connection attempted" 0
        (Secshare_rpc.Server.stats server).Secshare_rpc.Server.connections_accepted)

let test_connection_scoped_cursors () =
  let d = make_deployment xmark_tree in
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      let on_request, on_close = Router.connection d.router in
      (match
         on_request
           (Protocol.Scan_eval
              {
                target = Protocol.Pre_ranges [ (1, 1_000_000) ];
                points;
                max_items = 2;
              })
       with
      | Protocol.Scan_batch { cursor = Some _; _ } -> ()
      | r -> Alcotest.failf "expected a cursor: %a" Protocol.pp_response r);
      check Alcotest.int "one open cursor" 1 (Router.open_cursors d.router);
      on_close ();
      check Alcotest.int "closed with the connection" 0
        (Router.open_cursors d.router))

let () =
  Alcotest.run "shard"
    [
      ( "manifest",
        [
          Alcotest.test_case "save/load roundtrip" `Quick test_manifest_roundtrip;
          Alcotest.test_case "validate" `Quick test_manifest_validate;
          Alcotest.test_case "group consistency" `Quick test_manifest_group;
          Alcotest.test_case "partition_of" `Quick test_partition_of;
          Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
        ] );
      ( "split",
        [
          Alcotest.test_case "any 2 of 3 shards reconstruct every share" `Quick
            test_split_reconstructs;
          Alcotest.test_case "metadata preserved, shares masked" `Quick
            test_split_metadata_and_masking;
          Alcotest.test_case "balanced ascending bounds" `Quick test_bounds_of_table;
        ] );
      ( "router",
        [
          Alcotest.test_case "golden equality vs single server" `Quick
            test_router_golden;
          Alcotest.test_case "trivial 1-shard deployment" `Quick
            test_router_single_shard;
          Alcotest.test_case "connect refuses q = 257" `Quick test_connect_refuses_q257;
          test_router_qcheck;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "2 of 3 serve identically" `Quick
            test_kill_one_before_query;
          Alcotest.test_case "kill_shard hook" `Quick test_kill_shard_hook;
          Alcotest.test_case "below threshold fails cleanly" `Quick
            test_below_threshold_fails_cleanly;
          Alcotest.test_case "application errors propagate" `Quick
            test_app_error_propagates;
        ] );
      ( "scans",
        [
          Alcotest.test_case "bounded targets split exactly" `Quick
            test_bounded_target_equivalence;
          Alcotest.test_case "mid-scan failover is invisible" `Quick
            test_mid_scan_failover;
          Alcotest.test_case "connection close evicts cursors" `Quick
            test_connection_scoped_cursors;
        ] );
    ]

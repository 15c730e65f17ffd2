(* End-to-end client/server deployment over a Unix-domain socket — the
   paper's figure-3 architecture with real message passing. *)

module DB = Secshare_core.Database
module QC = Secshare_core.Query_common

let check = Alcotest.check

let with_served_db f =
  let doc = Secshare_xmark.Generate.generate ~factor:0.5 () in
  let config =
    { DB.default_config with seed = Some Test_support.test_seed }
  in
  let db = match DB.create_tree ~config doc with Ok db -> db | Error e -> failwith e in
  let path = Filename.temp_file "ssdb-remote" ".sock" in
  Sys.remove path;
  let server = DB.serve db ~path in
  Fun.protect
    ~finally:(fun () -> Secshare_rpc.Server.stop server)
    (fun () -> f db path)

let connect db path =
  match DB.connect ~p:83 ~e:1 ~mapping:(DB.mapping db) ~seed:(DB.seed db) ~path () with
  | Ok session -> session
  | Error e -> failwith e

let queries =
  [ "/site"; "/site/regions/europe/item"; "//bidder/date"; "/site/*/person//city" ]

let test_remote_matches_local () =
  with_served_db (fun db path ->
      let session = connect db path in
      Fun.protect
        ~finally:(fun () -> DB.close session)
        (fun () ->
          List.iter
            (fun q ->
              List.iter
                (fun (engine, strictness) ->
                  let local = Test_support.must_query ~engine ~strictness db q in
                  match DB.query ~engine ~strictness session q with
                  | Error e -> Alcotest.failf "%s remote: %s" q e
                  | Ok remote ->
                      check
                        Alcotest.(list int)
                        (Printf.sprintf "%s" q)
                        (Test_support.pres_of_metas (DB.result_nodes local))
                        (Test_support.pres_of_metas (DB.result_nodes remote)))
                [
                  (DB.Simple, QC.Non_strict);
                  (DB.Advanced, QC.Non_strict);
                  (DB.Advanced, QC.Strict);
                ])
            queries))

let test_remote_wrong_seed_finds_nothing () =
  (* without the right seed the client regenerates garbage shares: the
     data is meaningless, exactly as the paper promises *)
  with_served_db (fun db path ->
      match
        DB.connect ~p:83 ~e:1 ~mapping:(DB.mapping db)
          ~seed:(Secshare_prg.Seed.of_passphrase "wrong seed") ~path ()
      with
      | Error e -> Alcotest.fail e
      | Ok session ->
          Fun.protect
            ~finally:(fun () -> DB.close session)
            (fun () ->
              match DB.query ~engine:DB.Simple ~strictness:QC.Non_strict session "/site" with
              | Error e -> Alcotest.fail e
              | Ok r ->
                  check Alcotest.(list int) "root does not even match /site" []
                    (Test_support.pres_of_metas (DB.result_nodes r))))

let test_remote_sessions_are_independent () =
  with_served_db (fun db path ->
      let s1 = connect db path and s2 = connect db path in
      Fun.protect
        ~finally:(fun () ->
          DB.close s1;
          DB.close s2)
        (fun () ->
          let r1 = Result.get_ok (DB.query s1 "/site") in
          let r2 = Result.get_ok (DB.query s2 "//bidder/date") in
          check Alcotest.bool "both answered" true
            (List.length (DB.result_nodes r1) = 1 && (DB.result_nodes r2) <> [])))

let test_session_after_server_stop () =
  let doc = Secshare_xmark.Generate.generate ~factor:0.2 () in
  let config = { DB.default_config with seed = Some Test_support.test_seed } in
  let db = match DB.create_tree ~config doc with Ok db -> db | Error e -> failwith e in
  let path = Filename.temp_file "ssdb-remote" ".sock" in
  Sys.remove path;
  let server = DB.serve db ~path in
  let session = connect db path in
  Secshare_rpc.Server.stop server;
  (match DB.query session "/site" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "query succeeded after server stop");
  DB.close session

(* --- resilience: cursor lifecycle across connection failures --- *)

module Transport = Secshare_rpc.Transport
module Protocol = Secshare_rpc.Protocol
module Server_filter = Secshare_core.Server_filter

(* Open a fused scan over the root's whole subtree through [call] and
   take a one-row first batch, leaving its cursor mid-drain. *)
let open_scan_cursor call =
  let root =
    match call Protocol.Root with
    | Protocol.Node_opt (Some meta) -> meta
    | r -> Alcotest.failf "root: %a" (fun fmt -> Protocol.pp_response fmt) r
  in
  match
    call
      (Protocol.Scan_eval
         {
           target = Protocol.Pre_ranges [ (root.Protocol.pre, root.Protocol.post + 1) ];
           points = [];
           max_items = 1;
         })
  with
  | Protocol.Scan_batch { rows = [ _ ]; cursor = Some id } -> id
  | Protocol.Scan_batch { cursor = None; _ } ->
      Alcotest.fail "document too small: scan drained"
  | r -> Alcotest.failf "scan_eval: %a" (fun fmt -> Protocol.pp_response fmt) r

let open_dangling_cursor transport = open_scan_cursor (Transport.call transport)

let wait_for ~msg predicate =
  let rec go n =
    if predicate () then ()
    else if n = 0 then Alcotest.fail msg
    else begin
      Thread.delay 0.02;
      go (n - 1)
    end
  in
  go 150

let test_disconnect_evicts_cursors () =
  (* a client that vanishes mid-drain must not leak its cursor: the
     per-connection close hook evicts it *)
  with_served_db (fun db path ->
      let transport =
        match Transport.socket path with Ok t -> t | Error e -> Alcotest.fail e
      in
      ignore (open_dangling_cursor transport);
      check Alcotest.int "cursor open while draining" 1 (DB.open_cursors db);
      Transport.close transport;
      wait_for ~msg:"cursor leaked after disconnect" (fun () -> DB.open_cursors db = 0);
      let stats = DB.cursor_stats db in
      check Alcotest.bool "eviction counted" true
        (stats.Server_filter.evicted_cursors >= 1))

let test_drain_evicts_cursors () =
  (* after a graceful server drain every connection's close hook has
     run: zero cursors remain open *)
  let doc = Secshare_xmark.Generate.generate ~factor:0.2 () in
  let config = { DB.default_config with seed = Some Test_support.test_seed } in
  let db = match DB.create_tree ~config doc with Ok db -> db | Error e -> failwith e in
  let path = Filename.temp_file "ssdb-remote" ".sock" in
  Sys.remove path;
  let server = DB.serve db ~path in
  let transport =
    match Transport.socket path with Ok t -> t | Error e -> Alcotest.fail e
  in
  ignore (open_dangling_cursor transport);
  check Alcotest.int "cursor open mid-drain" 1 (DB.open_cursors db);
  Secshare_rpc.Server.stop server;
  check Alcotest.int "no cursors after drain" 0 (DB.open_cursors db);
  Transport.close transport

let test_cursor_ttl_eviction () =
  (* abandoned cursors expire once idle past the TTL, with a fake
     clock so the test needs no sleeps *)
  let clock = ref 1000.0 in
  let doc = Secshare_xmark.Generate.generate ~factor:0.2 () in
  let config = { DB.default_config with seed = Some Test_support.test_seed } in
  let db = match DB.create_tree ~config doc with Ok db -> db | Error e -> failwith e in
  let filter =
    Server_filter.create ~cursor_ttl:30.0 ~now:(fun () -> !clock) (DB.ring db)
      (DB.table db)
  in
  ignore (open_scan_cursor (Server_filter.handler filter) : int);
  check Alcotest.int "cursor open" 1 (Server_filter.open_cursors filter);
  clock := !clock +. 10.0;
  check Alcotest.int "young cursor survives sweep" 0 (Server_filter.sweep_cursors filter);
  clock := !clock +. 25.0;
  check Alcotest.int "stale cursor swept" 1 (Server_filter.sweep_cursors filter);
  check Alcotest.int "none left" 0 (Server_filter.open_cursors filter);
  let stats = Server_filter.cursor_stats filter in
  check Alcotest.int "expiry counted" 1 stats.Server_filter.expired_cursors

let test_cursor_cap_evicts_lru () =
  let clock = ref 0.0 in
  let doc = Secshare_xmark.Generate.generate ~factor:0.2 () in
  let config = { DB.default_config with seed = Some Test_support.test_seed } in
  let db = match DB.create_tree ~config doc with Ok db -> db | Error e -> failwith e in
  let filter =
    Server_filter.create ~max_cursors:3 ~now:(fun () -> !clock) (DB.ring db) (DB.table db)
  in
  let open_cursor () =
    clock := !clock +. 1.0;
    open_scan_cursor (Server_filter.handler filter)
  in
  let first = open_cursor () in
  let _ = open_cursor () and _ = open_cursor () and _ = open_cursor () in
  check Alcotest.int "cap respected" 3 (Server_filter.open_cursors filter);
  (match
     Server_filter.handler filter (Protocol.Scan_next { cursor = first; max_items = 1 })
   with
  | Protocol.Error_msg _ -> () (* the oldest cursor was the LRU victim *)
  | _ -> Alcotest.fail "LRU cursor should have been evicted");
  let stats = Server_filter.cursor_stats filter in
  check Alcotest.int "one cap eviction" 1 stats.Server_filter.evicted_cursors

let test_connection_scope_forgets_finished_cursors () =
  (* one long-lived session opens many multi-batch scans, drains most
     and closes the rest early: its scope must not keep one id per
     finished scan for the rest of its life *)
  let doc = Secshare_xmark.Generate.generate ~factor:0.2 () in
  let config = { DB.default_config with seed = Some Test_support.test_seed } in
  let db = match DB.create_tree ~config doc with Ok db -> db | Error e -> failwith e in
  let filter = Server_filter.create (DB.ring db) (DB.table db) in
  let on_request, on_close = Server_filter.connection filter in
  let rec drain id =
    match on_request (Protocol.Scan_next { cursor = id; max_items = 64 }) with
    | Protocol.Scan_batch { cursor = Some id; _ } -> drain id
    | Protocol.Scan_batch { cursor = None; _ } -> ()
    | r -> Alcotest.failf "scan_next: %a" (fun fmt -> Protocol.pp_response fmt) r
  in
  for i = 1 to 40 do
    let id = open_scan_cursor on_request in
    if i mod 4 = 0 then ignore (on_request (Protocol.Cursor_close id) : Protocol.response)
    else drain id
  done;
  let stats = Server_filter.cursor_stats filter in
  check Alcotest.int "no cursor open" 0 stats.Server_filter.open_cursors;
  check Alcotest.int "the scope tracks no id" 0 stats.Server_filter.scoped_cursors;
  check Alcotest.int "nothing evicted" 0 stats.Server_filter.evicted_cursors;
  ignore (open_scan_cursor on_request : int);
  check Alcotest.int "a dangling cursor is tracked" 1
    (Server_filter.cursor_stats filter).Server_filter.scoped_cursors;
  on_close ();
  let stats = Server_filter.cursor_stats filter in
  check Alcotest.int "closing the connection evicts it" 0
    stats.Server_filter.open_cursors;
  check Alcotest.int "one connection-close eviction" 1
    stats.Server_filter.evicted_cursors;
  Server_filter.close filter;
  DB.close db

let test_remote_recovers_across_server_restart () =
  (* the acceptance scenario at the query level: the server dies and
     comes back between queries; a session with retries recovers *)
  let doc = Secshare_xmark.Generate.generate ~factor:0.2 () in
  let config = { DB.default_config with seed = Some Test_support.test_seed } in
  let db = match DB.create_tree ~config doc with Ok db -> db | Error e -> failwith e in
  let path = Filename.temp_file "ssdb-remote" ".sock" in
  Sys.remove path;
  let server = DB.serve db ~path in
  let session =
    match
      DB.connect
        ~client:{ DB.default_client_config with timeout = Some 2.0; max_retries = 5 }
        ~p:83 ~e:1 ~mapping:(DB.mapping db) ~seed:(DB.seed db) ~path ()
    with
    | Ok session -> session
    | Error e -> Alcotest.fail e
  in
  let expected =
    Test_support.pres_of_metas (DB.result_nodes (Test_support.must_query db "/site"))
  in
  (match DB.query session "/site" with
  | Ok r ->
      check Alcotest.(list int) "before restart" expected
        (Test_support.pres_of_metas (DB.result_nodes r))
  | Error e -> Alcotest.failf "before restart: %s" e);
  Secshare_rpc.Server.stop server;
  let server = DB.serve db ~path in
  Fun.protect
    ~finally:(fun () -> Secshare_rpc.Server.stop server)
    (fun () ->
      (match DB.query session "/site" with
      | Ok r ->
          check Alcotest.(list int) "after restart" expected
            (Test_support.pres_of_metas (DB.result_nodes r))
      | Error e -> Alcotest.failf "after restart: %s" e);
      let counters = DB.rpc_counters session in
      check Alcotest.bool "recovery used reconnect" true
        (counters.Transport.reconnects >= 1);
      DB.close session)

let () =
  Alcotest.run "remote"
    [
      ( "socket deployment",
        [
          Alcotest.test_case "remote = local on all configs" `Slow test_remote_matches_local;
          Alcotest.test_case "wrong seed yields nothing" `Quick
            test_remote_wrong_seed_finds_nothing;
          Alcotest.test_case "independent sessions" `Quick test_remote_sessions_are_independent;
          Alcotest.test_case "server stop surfaces errors" `Quick test_session_after_server_stop;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "disconnect evicts cursors" `Quick
            test_disconnect_evicts_cursors;
          Alcotest.test_case "drain evicts cursors" `Quick test_drain_evicts_cursors;
          Alcotest.test_case "cursor ttl eviction" `Quick test_cursor_ttl_eviction;
          Alcotest.test_case "cursor cap evicts lru" `Quick test_cursor_cap_evicts_lru;
          Alcotest.test_case "connection scope forgets finished cursors" `Quick
            test_connection_scope_forgets_finished_cursors;
          Alcotest.test_case "session recovers across restart" `Quick
            test_remote_recovers_across_server_restart;
        ] );
    ]

(* CLI: serve a database file over a Unix-domain socket — the "big
   server" of figure 3.  The server holds only public material: shares
   and pre/post/parent numbers.

   Observability surface: [--metrics-port] serves Prometheus text
   exposition on GET /metrics and a drain-aware GET /healthz;
   [--slow-query-ms] logs one structured line per slow query lifetime;
   [--log-level] picks how chatty the stderr event log is;
   [--trace-log] appends every finished server-side span as JSONL. *)

open Cmdliner
module Obs = Secshare_obs

let err fmt = Printf.ksprintf (fun m -> `Error (false, m)) fmt

let run db_path socket_path p e durable cursor_ttl max_cursors workers send_timeout
    metrics_port slow_query_ms log_level trace_log =
  match Obs.Events.level_of_string log_level with
  | Result.Error m -> err "%s" m
  | Result.Ok level -> (
      Obs.Events.set_level level;
      Obs.Trace.set_log_file trace_log;
      (* the field is admitted before the database file is opened *)
      match Secshare_core.Database.checked_field_order ~p ~e with
      | Error m -> err "%s" m
      | Ok _ ->
        match Secshare_store.Node_table.open_file ~durable db_path with
        | Error m -> err "database: %s" m
        | Ok table ->
            (match Secshare_store.Node_table.recovery_stats table with
            | None -> ()
            | Some r ->
                Obs.Events.info
                  "wal recovery: %d page images and %d rows replayed (%d log records, \
                   %d torn bytes discarded)"
                  r.Secshare_store.Node_table.redo_pages
                  r.Secshare_store.Node_table.redo_rows
                  r.Secshare_store.Node_table.wal_records
                  r.Secshare_store.Node_table.discarded_bytes;
                Printf.printf
                  "recovered %s: %d page images, %d rows replayed from the \
                   write-ahead log\n%!"
                  db_path r.Secshare_store.Node_table.redo_pages
                  r.Secshare_store.Node_table.redo_rows);
            let ring = Secshare_poly.Ring.of_prime_power ~p ~e in
            let cursor_ttl = if cursor_ttl > 0.0 then Some cursor_ttl else None in
            let slow_query_ms = if slow_query_ms > 0.0 then Some slow_query_ms else None in
            (* a shard table written by ssdb_encode --shards carries a
               manifest next to it; serve it so the router's handshake
               sees this server's place in the deployment *)
            let manifest =
              let path = Secshare_shard.Manifest.manifest_path db_path in
              if not (Sys.file_exists path) then None
              else
                match Secshare_shard.Manifest.load path with
                | Ok m
                  when m.Secshare_shard.Manifest.p <> p
                       || m.Secshare_shard.Manifest.e <> e ->
                    Printf.eprintf
                      "ignoring %s: field %d^%d disagrees with --p %d --e %d\n%!" path
                      m.Secshare_shard.Manifest.p m.Secshare_shard.Manifest.e p e;
                    None
                | Ok m ->
                    Printf.printf "shard %d of %d (threshold %d) per %s\n%!"
                      m.Secshare_shard.Manifest.shard_id
                      m.Secshare_shard.Manifest.shards
                      m.Secshare_shard.Manifest.threshold path;
                    Some (Secshare_shard.Manifest.to_info m)
                | Error msg ->
                    Printf.eprintf "ignoring %s: %s\n%!" path msg;
                    None
            in
            (* the numeric share column lives next to the polynomial
               table; without it sum()/avg() queries fail server-side
               with a clear message, count() still works *)
            let numbers =
              let path = db_path ^ ".nums" in
              if not (Sys.file_exists path) then None
              else
                match Secshare_store.Node_table.open_file ~durable path with
                | Ok t ->
                    Printf.printf "numeric column %s (%d rows)\n%!" path
                      (Secshare_store.Node_table.row_count t);
                    Some t
                | Error msg ->
                    Printf.eprintf "ignoring %s: %s\n%!" path msg;
                    None
            in
            let filter =
              Secshare_core.Server_filter.create ?cursor_ttl ~max_cursors ?slow_query_ms
                ~workers ?manifest ?numbers ring table
            in
            let draining = ref false in
            let started = Unix.gettimeofday () in
            Obs.Registry.gauge_fn ~help:"Seconds since this server started."
              "ssdb_server_uptime_seconds" (fun () -> Unix.gettimeofday () -. started);
            Obs.Registry.gauge_fn
              ~help:"1 while the server is draining connections, else 0."
              "ssdb_server_draining"
              (fun () -> if !draining then 1.0 else 0.0);
            let http =
              if metrics_port < 0 then None
              else
                match
                  Obs.Metrics_http.start ~port:metrics_port
                    ~healthy:(fun () -> not !draining)
                    ()
                with
                | http ->
                    Printf.printf "metrics on http://127.0.0.1:%d/metrics\n%!"
                      (Obs.Metrics_http.port http);
                    Some http
                | exception Unix.Unix_error (errno, _, _) ->
                    Printf.eprintf "metrics port %d: %s\n%!" metrics_port
                      (Unix.error_message errno);
                    None
            in
            let send_timeout =
              if send_timeout > 0.0 then Some send_timeout else None
            in
            let server =
              Secshare_rpc.Server.start_sessions ?send_timeout ~path:socket_path
                ~session:(fun () ->
                  let on_request, on_close =
                    Secshare_core.Server_filter.connection filter
                  in
                  { Secshare_rpc.Server.on_request; on_close })
                ()
            in
            Obs.Events.info "serving db=%s rows=%d socket=%s" db_path
              (Secshare_store.Node_table.row_count table)
              socket_path;
            Printf.printf "serving %s (%d rows) on %s\n%!" db_path
              (Secshare_store.Node_table.row_count table)
              socket_path;
            let stop = ref false in
            Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
            Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
            while not !stop do
              Unix.sleepf 0.2
            done;
            (* flip /healthz to 503 before the drain so load balancers
               stop routing here while in-flight requests finish *)
            draining := true;
            Secshare_rpc.Server.stop server;
            let srv = Secshare_rpc.Server.stats server in
            let cur = Secshare_core.Server_filter.cursor_stats filter in
            Secshare_core.Server_filter.close filter;
            Secshare_store.Node_table.close table;
            Option.iter Secshare_store.Node_table.close numbers;
            (* the metrics endpoint outlives the RPC drain so a final
               scrape can observe the drained state *)
            Option.iter Obs.Metrics_http.stop http;
            Obs.Trace.set_log_file None;
            Printf.printf
              "server stopped: %d connections, %d requests, %d accept errors; cursors: \
               %d open, %d evicted (%d by ttl)\n"
              srv.Secshare_rpc.Server.connections_accepted
              srv.Secshare_rpc.Server.requests_handled
              srv.Secshare_rpc.Server.accept_errors
              cur.Secshare_core.Server_filter.open_cursors
              cur.Secshare_core.Server_filter.evicted_cursors
              cur.Secshare_core.Server_filter.expired_cursors;
            `Ok 0)

let db_path =
  Arg.(
    value & opt string "secshare.db"
    & info [ "db" ] ~docv:"FILE" ~doc:"Database file written by ssdb_encode.")

let socket_path =
  Arg.(
    value & opt string "/tmp/secshare.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket to listen on.")

let p_arg = Arg.(value & opt int 83 & info [ "p" ] ~docv:"P" ~doc:"Field characteristic.")
let e_arg = Arg.(value & opt int 1 & info [ "e" ] ~docv:"E" ~doc:"Extension degree.")

let durable_arg =
  Arg.(
    value & flag
    & info [ "durable" ]
        ~doc:
          "Keep the database's write-ahead log attached after opening (crash \
           recovery runs either way; this keeps future writes crash-safe too).")

let cursor_ttl_arg =
  Arg.(
    value & opt float 300.0
    & info [ "cursor-ttl" ] ~docv:"SECONDS"
        ~doc:"Evict scan cursors idle longer than this; 0 disables the TTL.")

let max_cursors_arg =
  Arg.(
    value & opt int 1024
    & info [ "max-cursors" ] ~docv:"N"
        ~doc:"Cap on concurrently open scan cursors (LRU eviction past it).")

let workers_arg =
  Arg.(
    value & opt int 1
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Size of the share-evaluation worker pool: N domains evaluate each scan or \
           eval batch in parallel.  1 (the default) evaluates inline on the handler \
           thread.")

let send_timeout_arg =
  Arg.(
    value & opt float 0.0
    & info [ "send-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Disconnect a client whose response has been stuck part-written in the \
           connection's output buffer for this long (a reader that stopped \
           reading).  0 (the default) never disconnects on write stalls.")

let metrics_port_arg =
  Arg.(
    value & opt int (-1)
    & info [ "metrics-port" ] ~docv:"PORT"
        ~doc:
          "Serve Prometheus text exposition on http://127.0.0.1:PORT/metrics and a \
           drain-aware health check on /healthz.  0 binds an ephemeral port (printed \
           at startup); negative (the default) disables the endpoint.")

let slow_query_ms_arg =
  Arg.(
    value & opt float 0.0
    & info [ "slow-query-ms" ] ~docv:"MS"
        ~doc:
          "Log one structured line per query lifetime that took at least MS \
           milliseconds (trace id, opcode mix, batch/row/byte counts, duration — \
           never query content).  0 disables the slow-query log.")

let log_level_arg =
  Arg.(
    value & opt string "info"
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:"Stderr event-log level: $(b,error), $(b,info) or $(b,debug).")

let trace_log_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace-log" ] ~docv:"FILE"
        ~doc:"Append every finished server-side span to FILE as JSON lines.")

let cmd =
  let doc = "serve an encrypted share database over a Unix-domain socket" in
  Cmd.v (Cmd.info "ssdb_server" ~doc)
    Term.(
      ret
        (const run $ db_path $ socket_path $ p_arg $ e_arg $ durable_arg
       $ cursor_ttl_arg $ max_cursors_arg $ workers_arg $ send_timeout_arg
       $ metrics_port_arg $ slow_query_ms_arg $ log_level_arg $ trace_log_arg))

let () = exit (Cmd.eval' cmd)

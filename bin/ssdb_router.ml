(* CLI: front a group of threshold shard servers with one router
   socket speaking the ordinary filter protocol.

   Clients connect exactly as they would to a single ssdb_server
   (ssdb_query --connect works unchanged); the router fans point
   lookups and fused scans out over the shard deployment described by
   the shards' manifests, folds the Shamir shares back together, and
   keeps answering while at least the threshold number of shards is
   live. *)

open Cmdliner
module Obs = Secshare_obs
module Router = Secshare_shard.Router
module Manifest = Secshare_shard.Manifest

let err fmt = Printf.ksprintf (fun m -> `Error (false, m)) fmt

let run shard_paths socket_path p e timeout max_retries max_cursors send_timeout
    metrics_port log_level trace_log =
  match Obs.Events.level_of_string log_level with
  | Result.Error m -> err "%s" m
  | Result.Ok level -> (
      Obs.Events.set_level level;
      Obs.Trace.set_log_file trace_log;
      (* [Router.connect] admits the field before opening any socket *)
      if shard_paths = [] then err "need at least one --shard SOCKET"
      else
        let policy =
          {
            Secshare_rpc.Transport.default_policy with
            Secshare_rpc.Transport.call_timeout =
              (if timeout > 0.0 then Some timeout else None);
            max_retries;
          }
        in
        match Router.connect ~policy ~p ~e ~max_cursors shard_paths with
        | Error m -> err "router: %s" m
        | Ok router ->
            let m = Router.manifest router in
            Obs.Registry.gauge_fn ~help:"Shards in the deployment."
              "ssdb_router_shards" (fun () -> float_of_int (Router.shards router));
            let draining = ref false in
            let http =
              if metrics_port < 0 then None
              else
                match
                  Obs.Metrics_http.start ~port:metrics_port
                    ~healthy:(fun () ->
                      (not !draining)
                      && Router.live_shards router >= Router.threshold router)
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
            let send_timeout = if send_timeout > 0.0 then Some send_timeout else None in
            let server =
              Secshare_rpc.Server.start_sessions ?send_timeout ~path:socket_path
                ~session:(fun () ->
                  let on_request, on_close = Router.connection router in
                  { Secshare_rpc.Server.on_request; on_close })
                ()
            in
            Obs.Events.info "routing %d-of-%d shards (%d partitions) on %s"
              m.Manifest.threshold m.Manifest.shards (Manifest.partitions m)
              socket_path;
            Printf.printf "routing %d-of-%d shards (%d rows, %d partitions) on %s\n%!"
              m.Manifest.threshold m.Manifest.shards m.Manifest.rows
              (Manifest.partitions m) socket_path;
            let stop = ref false in
            Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
            Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
            while not !stop do
              Unix.sleepf 0.2
            done;
            draining := true;
            Secshare_rpc.Server.stop server;
            let srv = Secshare_rpc.Server.stats server in
            Router.close router;
            Option.iter Obs.Metrics_http.stop http;
            Obs.Trace.set_log_file None;
            Printf.printf
              "router stopped: %d connections, %d requests; %d of %d shards still \
               live\n"
              srv.Secshare_rpc.Server.connections_accepted
              srv.Secshare_rpc.Server.requests_handled (Router.live_shards router)
              (Router.shards router);
            `Ok 0)

let shard_paths =
  Arg.(
    value & opt_all string []
    & info [ "shard" ] ~docv:"SOCKET"
        ~doc:
          "Unix-domain socket of one shard server (repeat once per shard; all \
           shards of the deployment must be given).")

let socket_path =
  Arg.(
    value & opt string "/tmp/secshare-router.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket to listen on.")

let p_arg = Arg.(value & opt int 83 & info [ "p" ] ~docv:"P" ~doc:"Field characteristic.")
let e_arg = Arg.(value & opt int 1 & info [ "e" ] ~docv:"E" ~doc:"Extension degree.")

let timeout_arg =
  Arg.(
    value & opt float 5.0
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"Per-call deadline towards each shard; 0 waits forever.")

let max_retries_arg =
  Arg.(
    value & opt int 2
    & info [ "max-retries" ] ~docv:"N"
        ~doc:"Retries per idempotent shard call before the shard counts as dead.")

let max_cursors_arg =
  Arg.(
    value & opt int 1024
    & info [ "max-cursors" ] ~docv:"N"
        ~doc:"Cap on concurrently open router cursors (LRU eviction past it).")

let send_timeout_arg =
  Arg.(
    value & opt float 0.0
    & info [ "send-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Disconnect a client whose response has been stuck part-written for this \
           long.  0 (the default) never disconnects on write stalls.")

let metrics_port_arg =
  Arg.(
    value & opt int (-1)
    & info [ "metrics-port" ] ~docv:"PORT"
        ~doc:
          "Serve Prometheus text exposition on http://127.0.0.1:PORT/metrics and a \
           health check on /healthz that fails once fewer than the threshold number \
           of shards is live.  Negative (the default) disables the endpoint.")

let log_level_arg =
  Arg.(
    value & opt string "info"
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:"Stderr event-log level: $(b,error), $(b,info) or $(b,debug).")

let trace_log_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace-log" ] ~docv:"FILE"
        ~doc:"Append every finished router-side span to FILE as JSON lines.")

let cmd =
  let doc = "route filter-protocol queries across threshold shard servers" in
  Cmd.v (Cmd.info "ssdb_router" ~doc)
    Term.(
      ret
        (const run $ shard_paths $ socket_path $ p_arg $ e_arg $ timeout_arg
       $ max_retries_arg $ max_cursors_arg $ send_timeout_arg $ metrics_port_arg
       $ log_level_arg $ trace_log_arg))

let () = exit (Cmd.eval' cmd)

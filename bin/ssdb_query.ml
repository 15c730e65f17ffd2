(* CLI: run queries against an encoded database — either a local
   database file or a remote server over a Unix-domain socket. *)

open Cmdliner

module DB = Secshare_core.Database
module QC = Secshare_core.Query_common
module Metrics = Secshare_core.Metrics
module Obs = Secshare_obs

let err fmt = Printf.ksprintf (fun m -> `Error (false, m)) fmt

let report ~explain ~trace query result =
  let r : DB.query_result = result in
  Printf.printf "query: %s\n" query;
  if trace then Printf.printf "trace: %s\n" (Obs.Span.trace_id_to_hex r.DB.trace_id);
  (match r.DB.value with
  | QC.Nodes nodes ->
      Printf.printf "matches (%d): %s\n" (List.length nodes)
        (String.concat ", "
           (List.map
              (fun (m : Secshare_rpc.Protocol.node_meta) ->
                string_of_int m.Secshare_rpc.Protocol.pre)
              nodes))
  | QC.Count n -> Printf.printf "count: %d\n" n
  | QC.Sum v -> Printf.printf "sum: %s\n" (Secshare_core.Qnum.to_string v)
  | QC.Avg v -> Printf.printf "avg: %s\n" (Secshare_core.Qnum.to_string v));
  Printf.printf
    "time: %.3f s | evaluations: %d | equality tests: %d | reconstructions: %d | rpc: %d calls, %d bytes\n"
    r.DB.seconds r.DB.metrics.Metrics.evaluations r.DB.metrics.Metrics.equality_tests
    r.DB.metrics.Metrics.reconstructions r.DB.rpc_calls r.DB.rpc_bytes;
  if explain then begin
    Printf.printf "plan: %s\n"
      (String.concat " -> "
         (List.map (fun (s : Metrics.op_stats) -> s.Metrics.op_name) r.DB.operators));
    Format.printf "%a@." Metrics.pp_op_table r.DB.operators
  end

let run db_path socket_path map_path seed_path p e engine_name strictness_name timeout
    max_retries explain trace trace_log queries =
  Obs.Trace.set_log_file trace_log;
  let engine =
    match engine_name with
    | "simple" -> Ok DB.Simple
    | "advanced" -> Ok DB.Advanced
    | other -> Error ("unknown engine " ^ other)
  in
  let strictness =
    match strictness_name with
    | "strict" | "equality" -> Ok QC.Strict
    | "nonstrict" | "containment" -> Ok QC.Non_strict
    | other -> Error ("unknown strictness " ^ other)
  in
  (* the field is admitted before the map, seed, database or socket is touched *)
  match (engine, strictness, DB.checked_field_order ~p ~e) with
  | Error m, _, _ | _, Error m, _ | _, _, Error m -> err "%s" m
  | Ok engine, Ok strictness, Ok _ -> (
      match Secshare_core.Mapping.load map_path with
      | Error m -> err "map: %s" m
      | Ok mapping -> (
          match Secshare_prg.Seed.load seed_path with
          | Error m -> err "seed: %s" m
          | Ok seed -> (
              let run_all query_fn =
                let failures = ref 0 in
                List.iter
                  (fun q ->
                    match query_fn q with
                    | Ok result -> report ~explain ~trace q result
                    | Error m ->
                        incr failures;
                        Printf.eprintf "query %s failed: %s\n%!" q m)
                  queries;
                `Ok (if !failures > 0 then 1 else 0)
              in
              let client = { DB.default_client_config with timeout; max_retries } in
              let with_db db =
                Fun.protect
                  ~finally:(fun () -> DB.close db)
                  (fun () -> run_all (fun q -> DB.query ~engine ~strictness db q))
              in
              match socket_path with
              | Some path -> (
                  match DB.connect ~client ~p ~e ~mapping ~seed ~path () with
                  | Error m -> err "connect: %s" m
                  | Ok db -> with_db db)
              | None -> (
                  match Secshare_store.Node_table.open_file db_path with
                  | Error m -> err "database: %s" m
                  | Ok table -> (
                      let nums_path = db_path ^ ".nums" in
                      let numbers =
                        if not (Sys.file_exists nums_path) then Ok None
                        else
                          match Secshare_store.Node_table.open_file nums_path with
                          | Ok t -> Ok (Some t)
                          | Error m -> Error m
                      in
                      match numbers with
                      | Error m -> err "numeric column: %s" m
                      | Ok numbers -> (
                          match
                            DB.of_parts ~client ~p ~e ~mapping ~seed ~table ?numbers ()
                          with
                          | Error m -> err "%s" m
                          | Ok db -> with_db db))))))

let db_path =
  Arg.(
    value & opt string "secshare.db"
    & info [ "db" ] ~docv:"FILE" ~doc:"Database file written by ssdb_encode.")

let socket_path =
  Arg.(
    value & opt (some string) None
    & info [ "connect" ] ~docv:"SOCKET" ~doc:"Query a remote ssdb_server instead.")

let map_path =
  Arg.(value & opt string "secshare.map" & info [ "map" ] ~docv:"FILE" ~doc:"Map file.")

let seed_path =
  Arg.(value & opt string "secshare.seed" & info [ "seed" ] ~docv:"FILE" ~doc:"Seed file.")

let p_arg = Arg.(value & opt int 83 & info [ "p" ] ~docv:"P" ~doc:"Field characteristic.")
let e_arg = Arg.(value & opt int 1 & info [ "e" ] ~docv:"E" ~doc:"Extension degree.")

let engine_arg =
  Arg.(
    value & opt string "advanced"
    & info [ "engine" ] ~docv:"NAME" ~doc:"Query engine: simple or advanced.")

let strictness_arg =
  Arg.(
    value & opt string "strict"
    & info [ "test" ] ~docv:"NAME"
        ~doc:"Matching test: strict (equality) or nonstrict (containment).")

let timeout_arg =
  Arg.(
    value & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"Per-RPC deadline for remote queries (with --connect).")

let max_retries_arg =
  Arg.(
    value & opt int 0
    & info [ "max-retries" ] ~docv:"N"
        ~doc:
          "Retry failed idempotent RPCs up to N times with exponential backoff, \
           reconnecting a dead socket (with --connect).")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Print the executed plan and a per-operator table (rows in/out, batches, \
           evaluation pairs, RPC calls/bytes, cumulative wall time) after each query.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Print each query's trace id (hex).  The same id rides every RPC frame the \
           query sends, so a server started with --trace-log records its spans under \
           it.")

let trace_log_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace-log" ] ~docv:"FILE"
        ~doc:
          "Append every finished client-side span (query, operators, RPCs) to FILE as \
           JSON lines.")

let queries =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"QUERY"
        ~doc:
          "XPath queries: location paths ($(b,/site//item)) or aggregates over one \
           ($(b,count(//item)), $(b,sum(//price)), $(b,avg(//price))).")

let cmd =
  let doc = "query an encrypted share database" in
  Cmd.v (Cmd.info "ssdb_query" ~doc)
    Term.(
      ret
        (const run $ db_path $ socket_path $ map_path $ seed_path $ p_arg $ e_arg
       $ engine_arg $ strictness_arg $ timeout_arg $ max_retries_arg $ explain_arg
       $ trace_arg $ trace_log_arg $ queries))

let () = exit (Cmd.eval' cmd)

(* The deployments the workloads query, built as a user builds them,
   plus the tracing shims the traced run puts around their layers.

   A set-up covers everything before the first query can run, and
   reports its phases: encoding, then saving the bundle and starting
   the server that reopens it, or splitting into shards. *)

module DB = Secshare_core.Database
module Server_filter = Secshare_core.Server_filter
module Transport = Secshare_rpc.Transport
module Protocol = Secshare_rpc.Protocol
module Server = Secshare_rpc.Server
module Node_table = Secshare_store.Node_table
module Split = Secshare_shard.Split
module Manifest = Secshare_shard.Manifest
module Router = Secshare_shard.Router

let now_ns = Spans.now_ns
let fail fmt = Printf.ksprintf failwith fmt
let must what = function Ok v -> v | Error msg -> fail "%s: %s" what msg
let p = 83
let e = 1

(* --- tracing shims ------------------------------------------------- *)

let rows_of = function
  | Protocol.Nodes l | Protocol.Batch (l, _) -> List.length l
  | Protocol.Values l -> List.length l
  | Protocol.Shares_data l -> List.length l
  | Protocol.Scan_batch { rows; _ } -> List.length rows
  | Protocol.Node_opt (Some _)
  | Protocol.Value _ | Protocol.Share_data _ | Protocol.Agg_partial _ ->
      1
  | Protocol.Node_opt None | Protocol.Pong | Protocol.Cursor _ | Protocol.Stats _
  | Protocol.Manifest_data _ | Protocol.Error_msg _ ->
      0

(* A handler as a traced layer: a span around each call, and the rows
   it returned.  Untraced, it is a plain call. *)
let handler_span kind handler request =
  Spans.with_span kind (fun () ->
      let response = handler request in
      Spans.set_rows (rows_of response);
      response)

(* The traced query's (request, response) pairs, newest first. *)
let messages : (Protocol.request * Protocol.response) list ref = ref []

(* The traced client's transport: an in-process transport whose handler
   forwards to the real one, so each real [Transport.call] is timed
   whole.  The forwarding adds one codec pass per call on the client
   side; the ledger measures that pass ([protocol.codec_us]) and takes
   it out of the client's self time. *)
let forwarding inner =
  Transport.local ~handler:(fun request ->
      let response =
        Spans.with_span Spans.Call (fun () -> Transport.call inner request)
      in
      if !Spans.enabled then messages := (request, response) :: !messages;
      response)

let client_over ~mapping ~seed transport =
  must "client" (DB.of_transport ~p ~e ~mapping ~seed transport)

(* --- deployments --------------------------------------------------- *)

type remote_span = {
  trace_id : int64;
  r_start : int;
  r_stop : int;
  r_words : float;
  r_rows : int;
}

type finished = {
  rows : int;  (** rows of the node table (of one shard) *)
  data_bytes : int;  (** summed over every table the server side holds *)
  index_bytes : int;
  remote_heap_words : int;  (** the forked server's peak heap; 0 in-process *)
  remote_spans : remote_span list;  (** the forked server's traced requests *)
}

type t = {
  client : DB.t;  (** the untraced client *)
  traced : unit -> DB.t;  (** a new client whose layers run behind spans *)
  phases : (string * int) list;  (** set-up phases, ns *)
  shutdown : unit -> finished;
}

let table_bytes tables =
  List.fold_left
    (fun (d, i) t -> (d + Node_table.data_bytes t, i + Node_table.index_bytes t))
    (0, 0) tables

let local_tables db = DB.table db :: Option.to_list (DB.numbers_table db)

let local_finished db =
  let data_bytes, index_bytes = table_bytes (local_tables db) in
  {
    rows = Node_table.row_count (DB.table db);
    data_bytes;
    index_bytes;
    remote_heap_words = 0;
    remote_spans = [];
  }

(* Closers for the traced clients a deployment hands out. *)
let closing closers f =
  let v, close = f () in
  closers := close :: !closers;
  v

let local ~config doc =
  let t0 = now_ns () in
  let db = must "encode" (DB.create_tree ~config doc) in
  let t1 = now_ns () in
  let closers = ref [] in
  let traced () =
    closing closers (fun () ->
        let filter =
          Server_filter.create ?numbers:(DB.numbers_table db) (DB.ring db) (DB.table db)
        in
        let inner =
          Transport.local
            ~handler:(handler_span Spans.Server (Server_filter.handler filter))
        in
        let client =
          client_over ~mapping:(DB.mapping db) ~seed:(DB.seed db) (forwarding inner)
        in
        ( client,
          fun () ->
            DB.close client;
            Server_filter.close filter ))
  in
  let shutdown () =
    let finished = local_finished db in
    List.iter (fun close -> close ()) !closers;
    DB.close db;
    finished
  in
  { client = db; traced; phases = [ ("setup.encode_s", t1 - t0) ]; shutdown }

let sharded ~config ~dir ~dealer_seed doc =
  let shards = 3 and threshold = 2 in
  let t0 = now_ns () in
  let db = must "encode" (DB.create_tree ~config doc) in
  let t1 = now_ns () in
  let ring = DB.ring db in
  let file i suffix = Filename.concat dir (Printf.sprintf "shard%d%s" (i + 1) suffix) in
  let sinks = Array.init shards (fun i -> Node_table.create_file (file i ".db")) in
  let num_sinks = Array.init shards (fun i -> Node_table.create_file (file i ".nums")) in
  let manifests =
    Split.split_table ring ~threshold ~shards ~dealer_seed ~source:(DB.table db) ~sinks
  in
  (match DB.numbers_table db with
  | Some source ->
      Split.split_numbers ~threshold ~shards ~dealer_seed ~source ~sinks:num_sinks
  | None -> fail "encode: no numeric column");
  Array.iter Node_table.flush sinks;
  Array.iter Node_table.flush num_sinks;
  let filters =
    Array.init shards (fun i ->
        Server_filter.create ~manifest:(Manifest.to_info manifests.(i))
          ~numbers:num_sinks.(i) ring sinks.(i))
  in
  let shard_transport filter =
    Transport.local ~handler:(handler_span Spans.Shard (Server_filter.handler filter))
  in
  let router =
    must "router"
      (Router.of_transports ring (Array.to_list (Array.map shard_transport filters)))
  in
  let mapping = DB.mapping db and seed = DB.seed db in
  let client =
    client_over ~mapping ~seed (Transport.local ~handler:(Router.handler router))
  in
  DB.close db;
  let t2 = now_ns () in
  let closers = ref [] in
  let traced () =
    closing closers (fun () ->
        let inner =
          Transport.local ~handler:(handler_span Spans.Router (Router.handler router))
        in
        let client = client_over ~mapping ~seed (forwarding inner) in
        (client, fun () -> DB.close client))
  in
  let shutdown () =
    let tables = Array.to_list sinks @ Array.to_list num_sinks in
    let data_bytes, index_bytes = table_bytes tables in
    let rows = Node_table.row_count sinks.(0) in
    List.iter (fun close -> close ()) !closers;
    DB.close client;
    Router.close router;
    Array.iter Server_filter.close filters;
    List.iter Node_table.close tables;
    { rows; data_bytes; index_bytes; remote_heap_words = 0; remote_spans = [] }
  in
  {
    client;
    traced;
    phases = [ ("setup.encode_s", t1 - t0); ("setup.split_s", t2 - t1) ];
    shutdown;
  }

(* --- the socket workload's server process --------------------------- *)

(* The report the server writes when it exits: peak heap, storage and,
   when traced, one line per handled request. *)
let read_report path =
  let lines = In_channel.with_open_text path In_channel.input_lines in
  let field key =
    match List.find_map (fun l -> Scanf.sscanf_opt l (key ^^ " %d") Fun.id) lines with
    | Some v -> v
    | None -> fail "server report: missing %s" (string_of_format key)
  in
  let span line =
    Scanf.sscanf_opt line "span %Ld %d %d %f %d"
      (fun trace_id r_start r_stop r_words r_rows ->
        { trace_id; r_start; r_stop; r_words; r_rows })
  in
  {
    rows = field "rows";
    data_bytes = field "data_bytes";
    index_bytes = field "index_bytes";
    remote_heap_words = field "heap_words";
    remote_spans = List.filter_map span lines;
  }

let write_report path db records =
  let finished = local_finished db in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "heap_words %d\nrows %d\ndata_bytes %d\nindex_bytes %d\n"
        (Gc.quick_stat ()).Gc.top_heap_words finished.rows finished.data_bytes
        finished.index_bytes;
      List.iter
        (fun r ->
          Printf.fprintf oc "span %Ld %d %d %.0f %d\n" r.trace_id r.r_start r.r_stop
            r.r_words r.r_rows)
        records)

(* [perfbench.exe serve]: reopen the bundle and serve it until SIGTERM
   (or until the client that started it is gone).  Traced, every
   connection's handler is wrapped in a shim that records each request
   under the trace id its frame carried. *)
let serve ~bundle ~socket ~report ~trace ~parent =
  (* the client may stop this server the moment the socket appears *)
  let stop = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
  let db = must "open bundle" (DB.open_bundle ~dir:bundle ()) in
  let records = ref [] in
  let shim on_request request =
    let trace_id = Secshare_obs.Trace.current_id () in
    let words = Gc.minor_words () in
    let r_start = now_ns () in
    let response = on_request request in
    let r_stop = now_ns () in
    let r_words = Gc.minor_words () -. words in
    let r_rows = rows_of response in
    records := { trace_id; r_start; r_stop; r_words; r_rows } :: !records;
    response
  in
  let server =
    if not trace then DB.serve db ~path:socket
    else
      let filter =
        Server_filter.create ?numbers:(DB.numbers_table db) (DB.ring db) (DB.table db)
      in
      Server.start_sessions ~path:socket
        ~session:(fun () ->
          let on_request, on_close = Server_filter.connection filter in
          { Server.on_request = shim on_request; on_close })
        ()
  in
  while (not !stop) && Unix.getppid () = parent do
    Unix.sleepf 0.01
  done;
  Server.stop server;
  write_report report db (List.rev !records);
  DB.close db

let rec wait_for_socket ~pid path deadline =
  if Sys.file_exists path then ()
  else if now_ns () > deadline then fail "server did not start"
  else
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        Unix.sleepf 0.002;
        wait_for_socket ~pid path deadline
    | _ -> fail "server exited during start-up"

(* The path appears at bind, a moment before the server listens. *)
let rec connect ~mapping ~seed ~path tries =
  match DB.connect ~p ~e ~mapping ~seed ~path () with
  | Ok client -> client
  | Error _ when tries > 0 ->
      Unix.sleepf 0.002;
      connect ~mapping ~seed ~path (tries - 1)
  | Error msg -> fail "connect: %s" msg

let socket ~config ~dir ~trace doc =
  let t0 = now_ns () in
  let db = must "encode" (DB.create_tree ~config doc) in
  let t1 = now_ns () in
  let bundle = Filename.concat dir "bundle" in
  must "save bundle" (DB.save_bundle db ~dir:bundle);
  let mapping = DB.mapping db and seed = DB.seed db in
  DB.close db;
  (* relative paths keep the socket under the sun_path length limit *)
  let path = Filename.concat dir "s.sock" in
  let report = Filename.concat dir "server.report" in
  let pid =
    Unix.create_process Sys.executable_name
      [|
        Sys.executable_name; "serve"; "--bundle"; bundle; "--socket"; path;
        "--report"; report; "--trace"; (if trace then "1" else "0");
        "--parent"; string_of_int (Unix.getpid ());
      |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let stopped = ref false in
  let stop () =
    if not !stopped then begin
      stopped := true;
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid : int * Unix.process_status)
    end
  in
  match
    wait_for_socket ~pid path (now_ns () + 60_000_000_000);
    connect ~mapping ~seed ~path 500
  with
  | exception exn ->
      stop ();
      raise exn
  | client ->
      let t2 = now_ns () in
      let closers = ref [] in
      let traced () =
        closing closers (fun () ->
            let inner = must "connect" (Transport.socket path) in
            let client = client_over ~mapping ~seed (forwarding inner) in
            (client, fun () -> DB.close client))
      in
      let shutdown () =
        List.iter (fun close -> close ()) !closers;
        DB.close client;
        stop ();
        read_report report
      in
      {
        client;
        traced;
        phases = [ ("setup.encode_s", t1 - t0); ("setup.bundle_s", t2 - t1) ];
        shutdown;
      }

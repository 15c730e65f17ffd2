module Ring = Secshare_poly.Ring
module Node_table = Secshare_store.Node_table
module Transport = Secshare_rpc.Transport
module Ast = Secshare_xpath.Ast
module Obs = Secshare_obs

type client_config = {
  share_cache : int;
  timeout : float option;
  max_retries : int;
  cursor_ttl : float option;
  max_cursors : int;
  slow_query_ms : float option;
  workers : int;
}

let default_client_config =
  {
    share_cache = 4096;
    timeout = None;
    max_retries = 0;
    cursor_ttl = None;
    max_cursors = 1024;
    slow_query_ms = None;
    workers = 1;
  }

type config = {
  p : int;
  e : int;
  trie : Secshare_trie.Expand.mode option;
  seed : Secshare_prg.Seed.t option;
  mapping : [ `From_document | `From_dtd of Secshare_xml.Dtd.t | `Explicit of Mapping.t ];
  page_size : int;
  client : client_config;
}

let default_config =
  {
    p = 83;
    e = 1;
    trie = None;
    seed = None;
    mapping = `From_document;
    page_size = 8192;
    client = default_client_config;
  }

(* Process-wide client-side query families, mirroring the per-query
   [Metrics.t] deltas into the registry after each query. *)
let obs_client_queries =
  Obs.Registry.counter ~help:"Queries executed by this process's clients."
    "ssdb_client_queries_total"

let obs_query_seconds =
  Obs.Registry.histogram ~help:"End-to-end query latency in seconds."
    "ssdb_client_query_seconds"

let obs_evaluations =
  Obs.Registry.counter ~help:"Containment evaluation pairs (figure 5's quantity)."
    "ssdb_client_evaluations_total"

let obs_equality_tests =
  Obs.Registry.counter ~help:"Equality tests performed."
    "ssdb_client_equality_tests_total"

let obs_reconstructions =
  Obs.Registry.counter ~help:"Full polynomial reconstructions for equality tests."
    "ssdb_client_reconstructions_total"

let obs_nodes_examined =
  Obs.Registry.counter ~help:"Candidate nodes inspected."
    "ssdb_client_nodes_examined_total"

let obs_degenerate_divisions =
  Obs.Registry.counter ~help:"Equality tests aborted on a zero child product."
    "ssdb_client_degenerate_divisions_total"

(* Field-exhaustive on purpose, like [Metrics.add]: a new counter that
   is not mirrored here fails to compile. *)
let mirror_query_metrics
    {
      Metrics.evaluations;
      equality_tests;
      reconstructions;
      nodes_examined;
      degenerate_divisions;
    } =
  Obs.Registry.inc ~by:evaluations obs_evaluations;
  Obs.Registry.inc ~by:equality_tests obs_equality_tests;
  Obs.Registry.inc ~by:reconstructions obs_reconstructions;
  Obs.Registry.inc ~by:nodes_examined obs_nodes_examined;
  Obs.Registry.inc ~by:degenerate_divisions obs_degenerate_divisions

type engine = Simple | Advanced

(* The server half a handle owns when it is local (in-process
   transport or a bundle opened from disk).  A remote handle
   ([connect]) has none: its server lives across the socket. *)
type local = {
  table : Node_table.t;
  numbers : Node_table.t option;  (** numeric share column (aggregation) *)
  server : Server_filter.t;
  encode_stats : Encode.stats;
}

type t = {
  ring : Ring.t;
  map : Mapping.t;
  seed : Secshare_prg.Seed.t;
  filter : Client_filter.t;
  local : local option;
}

type query_result = {
  value : Query_common.value;
  metrics : Metrics.t;
  operators : Metrics.op_stats list;
  rpc_calls : int;
  rpc_bytes : int;
  seconds : float;
  trace_id : int64;
}

let result_nodes r =
  match r.value with Query_common.Nodes nodes -> nodes | _ -> []

let local_exn t what =
  match t.local with
  | Some l -> l
  | None ->
      invalid_arg
        (Printf.sprintf "Database.%s: remote handle (no local server half)" what)

(* The field admission rule, the one place it lives: every entry
   point (the constructors below, the encoder and server binaries, the
   shard router) asks it before touching a file or a socket.  Both
   filters evaluate shares only through the flat byte-table kernels,
   which exist exactly for q <= 256.  [p^e] is built by repeated
   multiplication against the bound, so a huge [e] cannot wrap it. *)
let max_field_order = 256

let checked_field_order ~p ~e =
  let rec go acc i =
    if i = 0 then Ok acc
    else if acc > max_field_order / p then
      Error
        (Printf.sprintf
           "p^e = %d^%d exceeds the field-order bound of %d (the share kernels need q \
            <= %d)"
           p e max_field_order max_field_order)
    else go (acc * p) (i - 1)
  in
  if not (Secshare_field.Prime.is_prime p) then
    Error (Printf.sprintf "p = %d is not prime" p)
  else if e < 1 then Error "e must be >= 1"
  else go 1 e

let build_mapping config ~q tree =
  let base =
    match config.mapping with
    | `Explicit m -> Ok m
    | `From_dtd dtd -> Mapping.of_dtd ~q dtd
    | `From_document -> Mapping.of_tree ~q tree
  in
  match (base, config.trie) with
  | (Error _ as e), _ -> e
  | (Ok _ as ok), None -> ok
  | Ok m, Some _ -> Mapping.with_trie_alphabet m

(* Assemble the in-process client/server pair every local constructor
   ends in: one server filter (with its evaluation pool) over the
   table, a local transport, and a caching client filter on top. *)
let assemble_local ~(client : client_config) ~ring ~map ~seed ~table ?numbers
    ~encode_stats () =
  let server =
    Server_filter.create ?cursor_ttl:client.cursor_ttl ~max_cursors:client.max_cursors
      ?slow_query_ms:client.slow_query_ms ~workers:client.workers ?numbers ring table
  in
  let transport = Transport.local ~handler:(Server_filter.handler server) in
  let filter = Client_filter.create ring ~seed ~share_cache:client.share_cache transport in
  { ring; map; seed; filter; local = Some { table; numbers; server; encode_stats } }

let create_tree ?(config = default_config) tree =
  match checked_field_order ~p:config.p ~e:config.e with
  | Error _ as e -> e
  | Ok q -> (
      let ring = Ring.of_prime_power ~p:config.p ~e:config.e in
      match build_mapping config ~q tree with
      | Error _ as e -> e
      | Ok map -> (
          let seed =
            match config.seed with
            | Some s -> s
            | None -> Secshare_prg.Seed.generate ()
          in
          let table = Node_table.create ~page_size:config.page_size () in
          let numbers = Node_table.create ~page_size:config.page_size () in
          match
            Encode.encode_tree ring ~mapping:map ~seed ~table ~numbers
              ?trie:config.trie tree
          with
          | Error e -> Error (Encode.error_to_string e)
          | Ok encode_stats ->
              Ok
                (assemble_local ~client:config.client ~ring ~map ~seed ~table ~numbers
                   ~encode_stats ())))

let zero_encode_stats =
  {
    Encode.nodes = 0;
    elements = 0;
    trie_nodes = 0;
    numeric_nodes = 0;
    max_depth = 0;
    duration_seconds = 0.0;
  }

let of_parts ?(client = default_client_config) ~p ~e ~mapping:map ~seed ~table ?numbers
    () =
  match checked_field_order ~p ~e with
  | Error _ as err -> err
  | Ok _ ->
      let ring = Ring.of_prime_power ~p ~e in
      Ok
        (assemble_local ~client ~ring ~map ~seed ~table ?numbers
           ~encode_stats:zero_encode_stats ())

let create ?config xml =
  match Secshare_xml.Tree.of_string xml with
  | Error msg -> Error ("XML parse error: " ^ msg)
  | Ok tree -> create_tree ?config tree

let create_file ?config path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> create ?config contents
  | exception Sys_error msg -> Error msg

let run_query_on filter ~map ?(engine = Advanced) ?(strictness = Query_common.Strict)
    ?agg ast =
  Client_filter.reset_metrics filter;
  let counters = Client_filter.rpc_counters filter in
  let calls0 = counters.Transport.calls in
  let bytes0 = counters.Transport.bytes_sent + counters.Transport.bytes_received in
  (* one trace per query: the ambient id flows into every operator
     span and rides the frame header of every RPC the query makes *)
  let trace_id = Obs.Trace.genid () in
  let t0 = Unix.gettimeofday () in
  match
    Obs.Trace.with_ambient trace_id (fun () ->
        Obs.Trace.with_span ~kind:Obs.Span.Client "query" (fun () ->
            if List.for_all (fun n -> Mapping.value map n <> None) (Ast.name_tests ast)
            then
              Operator.run filter
                (match engine with
                | Simple -> Simple_query.lower ?agg ~mapping:map ~strictness ast
                | Advanced ->
                    Advanced_query.lower ?agg ~fused:true ~mapping:map ~strictness ast)
            else
              (* a name with no map entry matches nothing, as in
                 plaintext XPath: no server traffic *)
              ( (match agg with
                | None -> Query_common.Nodes []
                | Some func -> Query_common.empty_agg_value func),
                [] )))
  with
  | value, operators ->
      let seconds = Unix.gettimeofday () -. t0 in
      let counters = Client_filter.rpc_counters filter in
      let metrics = Metrics.copy (Client_filter.metrics filter) in
      Obs.Registry.inc obs_client_queries;
      Obs.Histogram.observe obs_query_seconds seconds;
      mirror_query_metrics metrics;
      Ok
        {
          value;
          operators;
          metrics;
          rpc_calls = counters.Transport.calls - calls0;
          rpc_bytes =
            counters.Transport.bytes_sent + counters.Transport.bytes_received - bytes0;
          seconds;
          trace_id;
        }
  | exception Query_common.Query_error msg -> Error msg
  | exception Client_filter.Filter_error msg -> Error ("filter: " ^ msg)

(* Client-side aggregate admission: a [sum]/[avg] is refused before any
   RPC unless the path ends in a plain tag name whose every occurrence
   the encoder proved to be a numeric leaf.  An *unmapped* final name
   is fine — the engine short-circuits it to the empty-set value, the
   same semantics plaintext XPath gives a name the document cannot
   contain. *)
let validate_agg map func (q : Ast.query) =
  match func with
  | Ast.Count -> Ok ()
  | Ast.Sum | Ast.Avg -> (
      match List.rev q.Ast.path with
      | { Ast.test = Ast.Name _; contains = Some _; _ } :: _ ->
          Error
            (Printf.sprintf
               "%s() cannot aggregate over a contains() predicate step"
               (Ast.func_to_string func))
      | { Ast.test = Ast.Name name; _ } :: _ ->
          if Mapping.value map name = None then Ok ()
          else if Mapping.aggregatable_scale map name = None then
            Error
              (Printf.sprintf
                 "tag %S is not aggregatable (not every occurrence is a numeric leaf)"
                 name)
          else Ok ()
      | _ ->
          Error
            (Printf.sprintf "%s() needs a path ending in a tag name"
               (Ast.func_to_string func)))

let rewrite_parsed (q : Ast.query) =
  match Ast.rewrite_contains q.Ast.path with
  | rewritten -> Ok { q with Ast.path = rewritten }
  | exception Invalid_argument msg -> Error msg

let query_ast ?engine ?strictness ?agg t ast =
  run_query_on t.filter ~map:t.map ?engine ?strictness ?agg ast

let query ?engine ?strictness t q =
  match Secshare_xpath.Parser.parse_query q with
  | Error msg -> Error ("query parse error: " ^ msg)
  | Ok parsed -> (
      let admitted =
        match parsed.Ast.func with
        | None -> Ok ()
        | Some func -> validate_agg t.map func parsed
      in
      match admitted with
      | Error _ as e -> e
      | Ok () -> (
          match rewrite_parsed parsed with
          | Error _ as e -> e
          | Ok { Ast.func; path } -> query_ast ?engine ?strictness ?agg:func t path))

let accuracy ?engine t q =
  match query ?engine ~strictness:Query_common.Strict t q with
  | Error _ as e -> e
  | Ok strict -> (
      match query ?engine ~strictness:Query_common.Non_strict t q with
      | Error _ as e -> e
      | Ok loose ->
          let e_size = List.length (result_nodes strict)
          and c_size = List.length (result_nodes loose) in
          if c_size = 0 then Ok 1.0
          else Ok (float_of_int e_size /. float_of_int c_size))

type storage_stats = {
  rows : int;
  data_bytes : int;
  index_bytes : int;
  encode_stats : Encode.stats;
}

let storage_stats t =
  let local = local_exn t "storage_stats" in
  {
    rows = Node_table.row_count local.table;
    data_bytes = Node_table.data_bytes local.table;
    index_bytes = Node_table.index_bytes local.table;
    encode_stats = local.encode_stats;
  }

let mapping t = t.map
let ring t = t.ring
let seed t = t.seed
let client_filter t = t.filter
let table t = (local_exn t "table").table
let numbers_table t = (local_exn t "numbers_table").numbers
let is_remote t = t.local = None
let rpc_counters t = Client_filter.rpc_counters t.filter
let share_cache_stats t = Client_filter.share_cache_stats t.filter
let workers t = Server_filter.workers (local_exn t "workers").server

let serve ?send_timeout t ~path =
  let local = local_exn t "serve" in
  (* session-scoped handlers so a dropped connection takes its open
     cursors with it *)
  Secshare_rpc.Server.start_sessions ?send_timeout ~path
    ~session:(fun () ->
      let on_request, on_close = Server_filter.connection local.server in
      { Secshare_rpc.Server.on_request; on_close })
    ()

let open_cursors t = Server_filter.open_cursors (local_exn t "open_cursors").server
let cursor_stats t = Server_filter.cursor_stats (local_exn t "cursor_stats").server
let sweep_cursors t = Server_filter.sweep_cursors (local_exn t "sweep_cursors").server

let of_transport ?(client = default_client_config) ~p ~e ~mapping ~seed transport =
  match checked_field_order ~p ~e with
  | Error _ as err -> err
  | Ok _ ->
      let ring = Ring.of_prime_power ~p ~e in
      let filter = Client_filter.create ring ~seed ~share_cache:client.share_cache transport in
      Ok { ring; map = mapping; seed; filter; local = None }

let connect ?(client = default_client_config) ~p ~e ~mapping ~seed ~path () =
  let policy =
    {
      Transport.default_policy with
      Transport.call_timeout = client.timeout;
      max_retries = client.max_retries;
    }
  in
  match checked_field_order ~p ~e with
  | Error _ as err -> err
  | Ok _ -> (
      match Transport.socket ~policy path with
      | Error msg -> Error ("connect: " ^ msg)
      | Ok transport -> of_transport ~client ~p ~e ~mapping ~seed transport)

let close t =
  Client_filter.close t.filter;
  match t.local with
  | None -> ()
  | Some local ->
      Server_filter.close local.server;
      Node_table.close local.table;
      Option.iter Node_table.close local.numbers

(* --- bundles: a complete database persisted to a directory --- *)

let bundle_config_string t =
  Printf.sprintf "p = %d\ne = %d\n" t.ring.Ring.characteristic t.ring.Ring.degree

let parse_bundle_config contents =
  let table = Hashtbl.create 4 in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then
        match String.index_opt line '=' with
        | Some i ->
            let key = String.trim (String.sub line 0 i) in
            let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
            Hashtbl.replace table key value
        | None -> ())
    (String.split_on_char '\n' contents);
  match (Hashtbl.find_opt table "p", Hashtbl.find_opt table "e") with
  | Some p, Some e -> (
      match (int_of_string_opt p, int_of_string_opt e) with
      | Some p, Some e -> Ok (p, e)
      | _ -> Error "bundle config: p and e must be integers")
  | _ -> Error "bundle config: missing p or e"

let save_bundle ?durable ?checkpoint_every t ~dir =
  let local = local_exn t "save_bundle" in
  match
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    (* copy the rows into a fresh page file *)
    let file_table =
      Node_table.create_file ?durable ?checkpoint_every (Filename.concat dir "shares.db")
    in
    Node_table.iter local.table ~f:(Node_table.insert file_table);
    Node_table.close file_table;
    Option.iter
      (fun numbers ->
        let file_nums =
          Node_table.create_file ?durable ?checkpoint_every
            (Filename.concat dir "nums.db")
        in
        Node_table.iter numbers ~f:(Node_table.insert file_nums);
        Node_table.close file_nums)
      local.numbers;
    Mapping.save (Filename.concat dir "client.map") t.map;
    Secshare_prg.Seed.save (Filename.concat dir "client.seed") t.seed;
    Out_channel.with_open_text (Filename.concat dir "config") (fun oc ->
        output_string oc (bundle_config_string t))
  with
  | () -> Ok ()
  | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
  | exception Sys_error msg -> Error msg
  | exception Invalid_argument msg -> Error msg

let open_bundle ?client ?durable ?checkpoint_every ~dir () =
  match In_channel.with_open_text (Filename.concat dir "config") In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
      match parse_bundle_config contents with
      | Error _ as e -> e
      | Ok (p, e) -> (
          match checked_field_order ~p ~e with
          | Error _ as err -> err
          | Ok q -> (
              match Mapping.load (Filename.concat dir "client.map") with
              | Error msg -> Error ("map: " ^ msg)
              | Ok mapping when Mapping.field_order mapping > q ->
                  (* mapped values would not be elements of the field *)
                  Error
                    (Printf.sprintf "map: declares q = %d but the bundle's field has q = %d"
                       (Mapping.field_order mapping) q)
              | Ok mapping -> (
                  match Secshare_prg.Seed.load (Filename.concat dir "client.seed") with
                  | Error msg -> Error ("seed: " ^ msg)
                  | Ok seed -> (
                      match
                        Node_table.open_file ?durable ?checkpoint_every
                          (Filename.concat dir "shares.db")
                      with
                      | Error msg -> Error ("shares: " ^ msg)
                      | Ok table -> (
                          let nums_path = Filename.concat dir "nums.db" in
                          if not (Sys.file_exists nums_path) then
                            of_parts ?client ~p ~e ~mapping ~seed ~table ()
                          else
                            match
                              Node_table.open_file ?durable ?checkpoint_every nums_path
                            with
                            | Error msg -> Error ("nums: " ^ msg)
                            | Ok numbers ->
                                of_parts ?client ~p ~e ~mapping ~seed ~table
                                  ~numbers ()))))))

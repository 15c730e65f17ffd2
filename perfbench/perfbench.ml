(* The repository's query benchmark: three closed-loop workloads over
   generated XMark documents, every answer checked against the
   plaintext oracle.  README.md beside this file gives the rationale
   for each workload and maps each layer metric to the end-to-end
   metric it should move.

     perfbench.exe --workload xmark-local --seed 1 --seconds 10 --trace 0

   prints a human-readable report, then one JSON object as the last
   line of standard output: the end-to-end metrics with [--trace 0],
   the per-layer ledger with [--trace 1].  Every time it reports is
   scaled to a host of fixed speed (see [Calibrate]); the report also
   prints the raw figures.  The socket workload runs this executable
   again as its server ([perfbench.exe serve ...]). *)

module DB = Secshare_core.Database
module Metrics = Secshare_core.Metrics
module Protocol = Secshare_rpc.Protocol
module Seed = Secshare_prg.Seed

let now_ns = Spans.now_ns
let fail = Deploy.fail

(* --- running cells ------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

(* Count a query and check its answer against the oracle. *)
let checked (cell : Workload.cell) result =
  tally.attempted <- tally.attempted + 1;
  match result with
  | Ok r when Workload.answer_ok cell r.DB.value -> Some r
  | Ok _ ->
      tally.failed <- tally.failed + 1;
      Printf.eprintf "wrong answer: %s\n%!" (Workload.label cell);
      None
  | Error msg ->
      tally.failed <- tally.failed + 1;
      Printf.eprintf "query failed: %s: %s\n%!" (Workload.label cell) msg;
      None

let plain_query client (cell : Workload.cell) () =
  DB.query ~engine:DB.Advanced ~strictness:cell.strictness client cell.text

(* The traced path makes the library calls [DB.query] makes — parse,
   then evaluate the AST — with the lowering also timed on its own. *)
let traced_query client (cell : Workload.cell) () =
  Spans.with_span Spans.Query (fun () ->
      match
        Spans.with_span Spans.Parse (fun () ->
            Secshare_xpath.Parser.parse_query cell.text)
      with
      | Error msg -> Error msg
      | Ok { Secshare_xpath.Ast.func; path } ->
          Spans.with_span Spans.Lower (fun () ->
              let filter = DB.client_filter client in
              let fused = Secshare_core.Client_filter.fused_scan filter in
              ignore
                (Secshare_core.Advanced_query.lower ?agg:func ~fused
                   ~mapping:(DB.mapping client) ~strictness:cell.strictness path
                  : Secshare_core.Plan.t));
          DB.query_ast ~engine:DB.Advanced ~strictness:cell.strictness ?agg:func client
            path)

(* Timing stops here (monotonic ns) whatever the round count, so that
   a run on a slow machine still ends inside its time limit; a timed
   phase cut short of its rounds then fails the run. *)
let give_up_at = ref max_int

(* Closed loop, one client: cells round-robin, whole rounds only, until
   [seconds] have passed and at least [min_rounds] rounds are done (or
   [give_up_at] arrives).  [each] sees the phase's [query]th call: its
   checked answer and its latency.  Between calls the host's speed is
   sampled (see [Calibrate]).  Returns the rounds run, the host samples,
   the factor each call's latency scales by, and the phase's wall time
   with each call's stretch scaled by its factor, ns. *)
let run_rounds ~cells ~seconds ~min_rounds ~run ~each =
  let host = Calibrate.create () in
  Calibrate.sample host;
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let rounds = ref 0 and calls = ref [] and query = ref 0 in
  while
    let t = now_ns () in
    (t < deadline || !rounds < min_rounds) && t < !give_up_at
  do
    Array.iteri
      (fun i cell ->
        let a = now_ns () in
        let result = run cell () in
        let b = now_ns () in
        each ~query:!query i (checked cell result) (b - a);
        calls := (a, b, now_ns ()) :: !calls;
        incr query;
        Calibrate.tick host)
      cells;
    incr rounds
  done;
  Calibrate.sample host;
  let calls = Array.of_list (List.rev !calls) in
  let scales = Calibrate.scales_at host (Array.map (fun (a, b, _) -> (a + b) / 2) calls) in
  let wall = ref 0.0 in
  Array.iteri
    (fun k (a, _, c) -> wall := !wall +. (scales.(k) *. float_of_int (c - a)))
    calls;
  (!rounds, host, scales, !wall)

let warm_up client cells =
  Array.iter
    (fun cell ->
      ignore (checked cell (plain_query client cell ()) : DB.query_result option))
    cells;
  Gc.compact ()

(* Per-query means over whole rounds are exact: every cell runs the same
   number of times, and its calls, bytes and evaluations depend neither
   on timing nor on the share cache. *)
type counts = {
  mutable queries : int;
  mutable calls : int;
  mutable bytes : int;
  mutable evaluations : int;
  mutable reconstructions : int;
  mutable nodes_examined : int;
}

let fresh_counts () =
  {
    queries = 0;
    calls = 0;
    bytes = 0;
    evaluations = 0;
    reconstructions = 0;
    nodes_examined = 0;
  }

let count c (r : DB.query_result) =
  c.queries <- c.queries + 1;
  c.calls <- c.calls + r.DB.rpc_calls;
  c.bytes <- c.bytes + r.DB.rpc_bytes;
  c.evaluations <- c.evaluations + r.DB.metrics.Metrics.evaluations;
  c.reconstructions <- c.reconstructions + r.DB.metrics.Metrics.reconstructions;
  c.nodes_examined <- c.nodes_examined + r.DB.metrics.Metrics.nodes_examined

let per_query c n = float_of_int n /. float_of_int (max 1 c.queries)

(* --- the traced ledger --------------------------------------------- *)

let opcodes =
  [
    "ping"; "root"; "children"; "parent"; "descendants"; "cursor_next"; "cursor_close";
    "eval"; "eval_batch"; "share"; "shares"; "table_stats"; "scan_eval"; "scan_next";
    "manifest"; "agg_eval";
  ]

(* The relative gap allowed between the summed self times and the
   summed query walls.  Spans nest exactly on one monotonic clock, so
   any gap means a span escaped its parent or two siblings overlapped. *)
let ledger_tolerance = 0.001

(* The layer counters that must repeat exactly on a seed: they do not
   depend on timing, and the cache-dependent one is taken from the
   first traced round, whose cache state the warm-up pass fixes. *)
let is_exact name =
  List.mem name
    [
      "client_filter.evaluations";
      "client_filter.reconstructions";
      "client_filter.regenerations";
      "router.shard_calls";
      "server_filter.rows_out";
    ]
  || String.starts_with ~prefix:"transport.calls." name

type ledger = {
  layer : (string * float * string) list;  (** per-layer metrics *)
  traced_qps : float;
  gap : float;
  exact : (string * float) list;
}

let cache_counts client =
  match DB.share_cache_stats client with
  | Some s -> (s.Secshare_core.Lru.hits, s.Secshare_core.Lru.misses)
  | None -> (0, 0)

(* What the traced phase collects besides the spans. *)
type traced = {
  counts : counts;
  wall : float;  (** phase wall time, scaled, ns *)
  host : Calibrate.t;  (** the host's speed during the phase *)
  op_calls : (string, int) Hashtbl.t;
  codec_ns : int;  (** re-running every message through the codec *)
  codec_words : float;
  codec_bytes : int;  (** the messages' sizes as [Protocol.encode_*] gives them *)
  first_round_cache : int * int;  (** share-cache hits and misses *)
  trace_ids : (int64, int) Hashtbl.t;  (** trace id -> traced query *)
}

let run_traced client cells ~seconds =
  warm_up client cells;
  let counts = fresh_counts () in
  let op_calls = Hashtbl.create 16 and trace_ids = Hashtbl.create 1024 in
  let codec_ns = ref 0 and codec_words = ref 0.0 and codec_bytes = ref 0 in
  let hits0, misses0 = cache_counts client in
  let first_round_cache = ref (0, 0) in
  let last_cell = Array.length cells - 1 in
  (* the codec cost of a query's messages, measured by running them
     through the codec again after the query returns *)
  let codec msgs =
    let t0 = now_ns () and w0 = Gc.minor_words () in
    List.iter
      (fun (request, response) ->
        let req = Protocol.encode_request request in
        ignore (Protocol.decode_request req : Protocol.request);
        let resp = Protocol.encode_response response in
        ignore (Protocol.decode_response resp : Protocol.response);
        codec_bytes := !codec_bytes + String.length req + String.length resp)
      msgs;
    codec_ns := !codec_ns + (now_ns () - t0);
    codec_words := !codec_words +. (Gc.minor_words () -. w0)
  in
  let each ~query _ r _ =
    Option.iter
      (fun r ->
        count counts r;
        Hashtbl.replace trace_ids r.DB.trace_id !Spans.current_query)
      r;
    codec !Deploy.messages;
    List.iter
      (fun (request, _) ->
        let op = Protocol.request_name request in
        let n = Option.value ~default:0 (Hashtbl.find_opt op_calls op) in
        Hashtbl.replace op_calls op (n + 1))
      !Deploy.messages;
    if query = last_cell then begin
      let hits, misses = cache_counts client in
      first_round_cache := (hits - hits0, misses - misses0)
    end
  in
  let run cell =
    incr Spans.current_query;
    Deploy.messages := [];
    traced_query client cell
  in
  Spans.enabled := true;
  let (_ : int), host, (_ : float array), wall =
    run_rounds ~cells ~seconds ~min_rounds:1 ~run ~each
  in
  Spans.enabled := false;
  {
    counts;
    wall;
    host;
    op_calls;
    codec_ns = !codec_ns;
    codec_words = !codec_words;
    codec_bytes = !codec_bytes;
    first_round_cache = !first_round_cache;
    trace_ids;
  }

(* Join the socket server's handler spans to the calls that caused
   them: one connection carries one request at a time, so the k-th
   request of a query is its k-th call. *)
let join_remote t (remote : Deploy.remote_span list) =
  let calls = Hashtbl.create 1024 in
  let local = Spans.all () in
  for i = Array.length local - 1 downto 0 do
    let s = local.(i) in
    if s.Spans.kind = Spans.Call then
      Hashtbl.replace calls s.Spans.query
        (i :: Option.value ~default:[] (Hashtbl.find_opt calls s.Spans.query))
  done;
  List.iter
    (fun (r : Deploy.remote_span) ->
      match Hashtbl.find_opt t.trace_ids r.trace_id with
      | None -> () (* a request of an untraced query *)
      | Some q -> (
          match Hashtbl.find_opt calls q with
          | Some (call :: rest) ->
              Hashtbl.replace calls q rest;
              Spans.add_remote ~query:q ~parent:call ~start:r.r_start ~stop:r.r_stop
                ~words:r.r_words ~rows:r.r_rows
          | _ -> fail "a server span has no matching call"))
    remote

let ledger t ~cells =
  let spans = Spans.all () in
  let selfs =
    Stats.self_times
      (Array.map
         (fun (s : Spans.span) ->
           { Stats.parent = s.Spans.parent; start = s.Spans.start; stop = s.Spans.stop })
         spans)
  in
  let sum kind f =
    let acc = ref 0.0 in
    Array.iteri
      (fun i (s : Spans.span) -> if s.Spans.kind = kind then acc := !acc +. f i s)
      spans;
    !acc
  in
  let self kind = sum kind (fun i _ -> float_of_int selfs.(i)) in
  let words kind = sum kind (fun _ s -> s.Spans.words) in
  let rows kind = sum kind (fun _ s -> float_of_int s.Spans.rows) in
  let number kind = sum kind (fun _ _ -> 1.0) in
  let wall = sum Spans.Query (fun _ s -> float_of_int (s.Spans.stop - s.Spans.start)) in
  let total_self = float_of_int (Array.fold_left ( + ) 0 selfs) in
  let gap = Float.abs (total_self -. wall) /. wall in
  if gap > ledger_tolerance then
    fail "ledger does not close: self times sum to %.0f ns, query walls to %.0f ns"
      total_self wall;
  let nq = float_of_int t.counts.queries in
  let scale = Calibrate.scale t.host in
  let ms ns = ns *. scale /. nq /. 1e6 and us ns = ns *. scale /. nq /. 1e3 in
  let kwords w = w /. nq /. 1e3 and each v = v /. nq in
  let hits, misses = t.first_round_cache in
  let calls =
    List.map
      (fun op ->
        let n = Option.value ~default:0 (Hashtbl.find_opt t.op_calls op) in
        ("transport.calls." ^ op, each (float_of_int n), "count"))
      opcodes
  in
  let codec = float_of_int t.codec_ns in
  let client_words =
    words Spans.Query -. words Spans.Parse -. words Spans.Lower -. words Spans.Call
    -. t.codec_words
  in
  let c = t.counts in
  let layer =
    [
      ("xpath.parse_us", us (self Spans.Parse), "us");
      ("plan.lower_us", us (self Spans.Lower), "us");
      ("client_filter.self_ms", ms (self Spans.Query -. codec), "ms");
      ("client_filter.evaluations", per_query c c.evaluations, "count");
      ("client_filter.reconstructions", per_query c c.reconstructions, "count");
      ("client_filter.nodes_examined", per_query c c.nodes_examined, "count");
      ( "client_filter.share_cache_hit_ratio",
        float_of_int hits /. float_of_int (max 1 (hits + misses)),
        "ratio" );
      ( "client_filter.regenerations",
        float_of_int misses /. float_of_int (Array.length cells),
        "count" );
      ("client_filter.minor_kwords", kwords client_words, "kwords");
    ]
    @ calls
    @ [
        ("protocol.codec_us", us codec, "us");
        ("transport.wait_ms", ms (self Spans.Call), "ms");
        ("server_filter.handler_ms", ms (self Spans.Server +. self Spans.Shard), "ms");
        ("server_filter.rows_out", each (rows Spans.Server +. rows Spans.Shard), "count");
        ( "server_filter.minor_kwords",
          kwords (words Spans.Server +. words Spans.Shard),
          "kwords" );
        ("router.self_ms", ms (self Spans.Router), "ms");
        ("router.shard_calls", each (number Spans.Shard), "count");
        ( "router.minor_kwords",
          kwords (words Spans.Router -. words Spans.Shard),
          "kwords" );
        ("trace.query_ms", ms wall, "ms");
        ("host.reference_ms", Calibrate.median_ns t.host /. 1e6, "ms");
      ]
  in
  let exact =
    List.filter_map
      (fun (name, v, _) -> if is_exact name then Some (name, v) else None)
      layer
  in
  (* the codec re-run is measurement, not query work *)
  let traced_qps = nq /. ((t.wall -. (codec *. scale)) /. 1e9) in
  { layer; traced_qps; gap; exact }

(* --- output -------------------------------------------------------- *)

let print_result metrics =
  let field (name, v, unit) =
    if not (Float.is_finite v) then fail "metric %s is not a finite number" name;
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.failed = 0) tally.attempted tally.failed
    (String.concat ", " (List.map field metrics))

(* --- main ---------------------------------------------------------- *)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Scratch space for bundles, shard files and the server socket, inside
   the working directory and removed on exit. *)
let with_scratch f =
  let top = ".perfbench-run" in
  let dir = Filename.concat top (string_of_int (Unix.getpid ())) in
  (try Unix.mkdir top 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      remove_tree dir;
      try Sys.rmdir top with Sys_error _ -> ())
    (fun () -> f dir)

(* Set up [w.setups] times; the last deployment serves the queries.
   The host's speed is sampled before each set-up and after the last,
   and each set-up's times are scaled by the samples around it.
   Returns the median set-up time and a median phase time by name, s. *)
let set_up (w : Workload.t) ~scratch ~config ~dealer_seed ~trace doc =
  let host = Calibrate.create () in
  let sample_host () =
    for _ = 1 to 6 do
      Calibrate.sample host
    done
  in
  let rec go i timings =
    let dir = Filename.concat scratch (Printf.sprintf "setup%d" i) in
    Unix.mkdir dir 0o755;
    sample_host ();
    let t0 = now_ns () in
    let d =
      match w.kind with
      | Workload.Local -> Deploy.local ~config doc
      | Workload.Socket -> Deploy.socket ~config ~dir ~trace doc
      | Workload.Sharded -> Deploy.sharded ~config ~dir ~dealer_seed doc
    in
    let t1 = now_ns () in
    let timings = ((t0 + t1) / 2, ("setup", t1 - t0) :: d.Deploy.phases) :: timings in
    if i + 1 >= w.setups then (d, timings)
    else begin
      ignore (d.Deploy.shutdown () : Deploy.finished);
      Gc.compact ();
      go (i + 1) timings
    end
  in
  let d, timings = go 0 [] in
  sample_host ();
  let timings = Array.of_list (List.rev timings) in
  let scales = Calibrate.scales_at host (Array.map fst timings) in
  let median name =
    Stats.median
      (Array.mapi
         (fun i (_, phases) ->
           let ns = Option.value ~default:0 (List.assoc_opt name phases) in
           scales.(i) *. float_of_int ns /. 1e9)
         timings)
  in
  (d, median "setup", median)

let bench ~workload ~seed ~seconds ~trace =
  give_up_at := now_ns () + 150_000_000_000;
  let w =
    match Workload.find workload with
    | Some w -> w
    | None -> fail "unknown workload %S" workload
  in
  let doc = Workload.document ~factor:w.factor ~seed in
  let xml = Secshare_xml.Print.to_string doc in
  let cells = Array.of_list (List.map (Workload.cell doc) w.cells) in
  let secret name = Seed.of_passphrase (Printf.sprintf "perfbench-%s-%d" name seed) in
  let config = { DB.default_config with seed = Some (secret "client") } in
  with_scratch @@ fun scratch ->
  Gc.compact ();
  let d, setup_s, phase =
    set_up w ~scratch ~config ~dealer_seed:(secret "dealer") ~trace doc
  in
  let latencies = Array.make (Array.length cells) [] in
  let counts = fresh_counts () in
  let phase_seconds = if trace then seconds /. 2.0 else seconds in
  let (rounds, host, scales, wall), traced, finished =
    match
      warm_up d.Deploy.client cells;
      let timed =
        run_rounds ~cells ~seconds:phase_seconds
          ~min_rounds:(if trace then 1 else w.rounds)
          ~run:(plain_query d.Deploy.client)
          ~each:(fun ~query i r ns ->
            Option.iter
              (fun r ->
                count counts r;
                latencies.(i) <- (query, float_of_int ns /. 1e6) :: latencies.(i))
              r)
      in
      let traced =
        if trace then Some (run_traced (d.Deploy.traced ()) cells ~seconds:phase_seconds)
        else None
      in
      (timed, traced, d.Deploy.shutdown ())
    with
    | result -> result
    | exception exn ->
        (try ignore (d.Deploy.shutdown () : Deploy.finished) with _ -> ());
        raise exn
  in
  (* too few rounds leave fewer than ten samples beyond a cell's p90 *)
  if (not trace) && rounds < w.rounds then
    fail "timed only %d of the %d rounds a run needs before the time limit" rounds
      w.rounds;
  let qps = float_of_int counts.queries /. (wall /. 1e9) in
  let input_bytes = String.length xml in
  let heap_bytes =
    ((Gc.quick_stat ()).Gc.top_heap_words + finished.remote_heap_words)
    * (Sys.word_size / 8)
  in
  let e2e_exact =
    [
      ("round_trips_per_query", per_query counts counts.calls, "count");
      ("wire_bytes_per_query", per_query counts counts.bytes, "B");
      ( "stored_bytes_per_input_byte",
        float_of_int (finished.data_bytes + finished.index_bytes)
        /. float_of_int input_bytes,
        "ratio" );
    ]
  in
  Printf.printf
    "workload %s seed %d: document %d bytes (digest %s), %d rows, %d set-ups\n" w.name
    seed input_bytes
    (Digest.to_hex (Digest.string xml))
    finished.rows w.setups;
  Printf.printf "timed: %d rounds of %d cells, %d queries\n" rounds (Array.length cells)
    counts.queries;
  Printf.printf
    "host: reference kernel %.3f ms (median), %.3f ms nominal; cell timings below are \
     raw, the reported ones are scaled by %.4f on average\n"
    (Calibrate.median_ns host /. 1e6)
    (float_of_int Calibrate.nominal_ns /. 1e6)
    (Array.fold_left ( +. ) 0.0 scales /. float_of_int (max 1 (Array.length scales)));
  let ledger =
    Option.map
      (fun t ->
        (* [wire_bytes_per_query] is the untraced client's own count; the
           traced phase's messages, re-encoded, must give the same mean *)
        if counts.bytes * t.counts.queries <> t.codec_bytes * counts.queries then
          fail "wire bytes: the client counted %.2f per query, re-encoding gives %.2f"
            (per_query counts counts.bytes)
            (per_query t.counts t.codec_bytes);
        join_remote t finished.remote_spans;
        ledger t ~cells)
      traced
  in
  let exact =
    List.map (fun (name, v, _) -> (name, v)) e2e_exact
    @ match ledger with Some l -> l.exact | None -> []
  in
  List.iter (fun (name, v) -> Printf.printf "exact %s %.17g\n" name v) exact;
  let metrics =
    match ledger with
    | None ->
        let samples f = Array.map (fun l -> Array.of_list (List.map f l)) latencies in
        let raw = samples snd and scaled = samples (fun (q, ms) -> scales.(q) *. ms) in
        Array.iteri
          (fun i a ->
            Printf.printf "cell %-80s p50 %9.3f ms  p90 %9.3f ms  n %d\n"
              (Workload.label cells.(i)) (Stats.percentile ~p:50 a)
              (Stats.percentile ~p:90 a) (Array.length a))
          raw;
        let gmean p =
          Stats.gmean (Array.to_list (Array.map (Stats.percentile ~p) scaled))
        in
        [
          ("setup_s", setup_s, "s");
          ("queries_per_s", qps, "1/s");
          ("query_p50_gmean_ms", gmean 50, "ms");
          ("query_p90_gmean_ms", gmean 90, "ms");
        ]
        @ e2e_exact
        @ [ ("heap_peak_mb", float_of_int heap_bytes /. 1048576.0, "MB") ]
    | Some l ->
        Printf.printf
          "ledger: self times close on the query walls within %.4f%% (tolerance %.1f%%)\n"
          (l.gap *. 100.0) (ledger_tolerance *. 100.0);
        Printf.printf "tracing overhead: %.2f q/s untraced, %.2f q/s traced\n" qps
          l.traced_qps;
        l.layer
        @ [
            ("trace.untraced_queries_per_s", qps, "1/s");
            ("trace.traced_queries_per_s", l.traced_qps, "1/s");
            ("trace.overhead_ratio", qps /. l.traced_qps, "ratio");
            ("trace.ledger_gap_pct", l.gap *. 100.0, "%");
            ("setup.encode_s", phase "setup.encode_s", "s");
            ("setup.bundle_s", phase "setup.bundle_s", "s");
            ("setup.split_s", phase "setup.split_s", "s");
            ("node_table.data_bytes", float_of_int finished.data_bytes, "B");
            ("node_table.index_bytes", float_of_int finished.index_bytes, "B");
          ]
  in
  print_result metrics

let () =
  let rec options acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
        options ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | arg :: _ -> fail "unexpected argument %S" arg
  in
  let serve, opts =
    match List.tl (Array.to_list Sys.argv) with
    | "serve" :: rest -> (true, options [] rest)
    | rest -> (false, options [] rest)
  in
  let get key =
    match List.assoc_opt key opts with Some v -> v | None -> fail "missing --%s" key
  in
  let int key =
    match int_of_string_opt (get key) with
    | Some v -> v
    | None -> fail "--%s: not an integer" key
  in
  if serve then
    Deploy.serve ~bundle:(get "bundle") ~socket:(get "socket") ~report:(get "report")
      ~trace:(get "trace" = "1") ~parent:(int "parent")
  else begin
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let seconds =
      match float_of_string_opt (get "seconds") with
      | Some s when s > 0.0 -> s
      | _ -> fail "--seconds: not a positive number"
    in
    bench ~workload:(get "workload") ~seed:(int "seed") ~seconds ~trace:(int "trace" = 1)
  end

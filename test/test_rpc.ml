module Wire = Secshare_rpc.Wire
module Protocol = Secshare_rpc.Protocol
module Transport = Secshare_rpc.Transport
module Server = Secshare_rpc.Server
module Frame = Secshare_rpc.Frame

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- wire primitives --- *)

let test_wire_roundtrip () =
  let w = Wire.writer () in
  Wire.write_u8 w 200;
  Wire.write_u32 w 0;
  Wire.write_u32 w 0xFFFFFFFF;
  Wire.write_i64 w (-42);
  Wire.write_string w "hello";
  Wire.write_bytes w (Bytes.of_string "\x00\xff");
  Wire.write_list w (Wire.write_u32 w) [ 1; 2; 3 ];
  let r = Wire.reader (Wire.contents w) in
  check Alcotest.int "u8" 200 (Wire.read_u8 r);
  check Alcotest.int "u32 zero" 0 (Wire.read_u32 r);
  check Alcotest.int "u32 max" 0xFFFFFFFF (Wire.read_u32 r);
  check Alcotest.int "i64" (-42) (Wire.read_i64 r);
  check Alcotest.string "string" "hello" (Wire.read_string r);
  check Alcotest.string "bytes" "\x00\xff" (Bytes.to_string (Wire.read_bytes r));
  check Alcotest.(list int) "list" [ 1; 2; 3 ] (Wire.read_list r (fun () -> Wire.read_u32 r));
  Wire.expect_end r

let test_wire_errors () =
  let r = Wire.reader "\x01" in
  ignore (Wire.read_u8 r);
  Alcotest.check_raises "underflow" (Wire.Decode_error "need 4 bytes at offset 1, have 1")
    (fun () -> ignore (Wire.read_u32 r));
  let w = Wire.writer () in
  Wire.write_u8 w 7;
  Wire.write_u8 w 8;
  let r = Wire.reader (Wire.contents w) in
  ignore (Wire.read_u8 r);
  (match Wire.expect_end r with
  | exception Wire.Decode_error _ -> ()
  | () -> Alcotest.fail "trailing bytes accepted");
  Alcotest.check_raises "u32 range" (Invalid_argument "Wire.write_u32: -1 out of range")
    (fun () -> Wire.write_u32 (Wire.writer ()) (-1))

(* --- protocol codec --- *)

let gen_meta =
  QCheck2.Gen.(
    let* pre = int_range 0 1000000 in
    let* post = int_range 0 1000000 in
    let* parent = int_range 0 1000000 in
    return { Protocol.pre; post; parent })

let gen_request =
  QCheck2.Gen.(
    oneof
      [
        return Protocol.Ping;
        return Protocol.Root;
        map (fun p -> Protocol.Children p) (int_range 0 100000);
        map (fun p -> Protocol.Parent p) (int_range 0 100000);
        map (fun c -> Protocol.Cursor_close c) (int_range 0 1000);
        map (fun (ps, x) -> Protocol.Eval_batch { pres = ps; point = x })
          (pair (list_size (int_range 0 20) (int_range 0 100000)) (int_range 1 82));
        map (fun ps -> Protocol.Shares ps) (list_size (int_range 0 20) (int_range 0 100000));
        return Protocol.Table_stats;
        map
          (fun (ps, (xs, m)) ->
            Protocol.Scan_eval
              { target = Protocol.Children_of ps; points = xs; max_items = m })
          (pair
             (list_size (int_range 0 10) (int_range 0 100000))
             (pair (list_size (int_range 0 5) (int_range 1 82)) (int_range 1 100)));
        map
          (fun (rs, (xs, m)) ->
            Protocol.Scan_eval
              { target = Protocol.Pre_ranges rs; points = xs; max_items = m })
          (pair
             (list_size (int_range 0 10) (pair (int_range 0 100000) (int_range 0 100000)))
             (pair (list_size (int_range 0 5) (int_range 1 82)) (int_range 1 100)));
        map
          (fun (rs, (xs, m)) ->
            Protocol.Scan_eval
              { target = Protocol.Bounded_pre_ranges rs; points = xs; max_items = m })
          (pair
             (list_size (int_range 0 10)
                (triple (int_range 0 100000) (int_range 0 100000) (int_range 0 100000)))
             (pair (list_size (int_range 0 5) (int_range 1 82)) (int_range 1 100)));
        map (fun (c, m) -> Protocol.Scan_next { cursor = c; max_items = m })
          (pair (int_range 0 1000) (int_range 1 100));
        return Protocol.Manifest;
        map
          (fun ps -> Protocol.Agg_eval { pres = ps })
          (list_size (int_range 0 20) (int_range 0 100000));
      ])

let gen_bytes = QCheck2.Gen.(map Bytes.of_string (string_size (int_range 0 50)))

let gen_response =
  QCheck2.Gen.(
    oneof
      [
        return Protocol.Pong;
        return (Protocol.Node_opt None);
        map (fun m -> Protocol.Node_opt (Some m)) gen_meta;
        map (fun ms -> Protocol.Nodes ms) (list_size (int_range 0 20) gen_meta);
        map (fun c -> Protocol.Cursor c) (int_range 0 100000);
        map (fun (ms, e) -> Protocol.Batch (ms, e))
          (pair (list_size (int_range 0 20) gen_meta) bool);
        map (fun v -> Protocol.Value v) (int_range 0 100000);
        map (fun vs -> Protocol.Values vs) (list_size (int_range 0 30) (int_range 0 100000));
        map (fun b -> Protocol.Share_data b) gen_bytes;
        map (fun bs -> Protocol.Shares_data bs) (list_size (int_range 0 10) gen_bytes);
        map
          (fun (r, d, i) -> Protocol.Stats { rows = r; data_bytes = d; index_bytes = i })
          (triple (int_range 0 100000) (int_range 0 10000000) (int_range 0 10000000));
        map (fun s -> Protocol.Error_msg s) (string_size (int_range 0 40));
        map
          (fun (rows, c) -> Protocol.Scan_batch { rows; cursor = c })
          (pair
             (list_size (int_range 0 10)
                (pair gen_meta (list_size (int_range 0 5) (int_range 0 100000))))
          @@ map (fun c -> if c = 0 then None else Some c) (int_range 0 1000));
        map
          (fun ((id, (n, t)), (rows, bounds)) ->
            Protocol.Manifest_data
              { shard_id = id; shards = n; threshold = t; total_rows = rows; bounds })
          (pair
             (pair (int_range 0 8) (pair (int_range 1 8) (int_range 1 8)))
             (pair (int_range 0 100000) (list_size (int_range 1 8) (int_range 1 100000))));
      ])

let protocol_codec_suite =
  [
    qtest "request roundtrip" gen_request (fun req ->
        Protocol.decode_request (Protocol.encode_request req) = req);
    qtest "response roundtrip" gen_response (fun resp ->
        Protocol.decode_response (Protocol.encode_response resp) = resp);
  ]

let fuzz_suite =
  let gen_garbage = QCheck2.Gen.(string_size (int_range 0 64)) in
  [
    qtest ~count:500 "decode_request never crashes" gen_garbage (fun s ->
        match Protocol.decode_request s with
        | _ -> true
        | exception Wire.Decode_error _ -> true);
    qtest ~count:500 "decode_response never crashes" gen_garbage (fun s ->
        match Protocol.decode_response s with
        | _ -> true
        | exception Wire.Decode_error _ -> true);
    qtest ~count:200 "bit-flipped requests decode or fail cleanly"
      QCheck2.Gen.(pair gen_request (pair (int_range 0 1000) (int_range 0 7)))
      (fun (req, (pos, bit)) ->
        let encoded = Bytes.of_string (Protocol.encode_request req) in
        if Bytes.length encoded = 0 then true
        else begin
          let pos = pos mod Bytes.length encoded in
          Bytes.set_uint8 encoded pos (Bytes.get_uint8 encoded pos lxor (1 lsl bit));
          match Protocol.decode_request (Bytes.to_string encoded) with
          | _ -> true
          | exception Wire.Decode_error _ -> true
        end);
  ]

(* A frame in the wire shape of one of the retired per-node requests:
   tag 4 (subtree cursor open: pre, post), 5 (cursor drain: cursor,
   max_items), 7 (one-node evaluation: pre, point) or 9 (one-share
   fetch: pre). *)
let retired_request tag =
  let w = Wire.writer () in
  Wire.write_u8 w tag;
  Wire.write_u32 w 1;
  if tag <> 9 then Wire.write_u32 w 2;
  Wire.contents w

let test_decode_garbage () =
  (match Protocol.decode_request "\xFF" with
  | exception Wire.Decode_error _ -> ()
  | _ -> Alcotest.fail "bad tag accepted");
  List.iter
    (fun tag ->
      match Protocol.decode_request (retired_request tag) with
      | exception Wire.Decode_error _ -> ()
      | _ -> Alcotest.failf "retired request tag %d accepted" tag)
    [ 4; 5; 7; 9 ];
  (match Protocol.decode_request "" with
  | exception Wire.Decode_error _ -> ()
  | _ -> Alcotest.fail "empty accepted");
  match Protocol.decode_response (Protocol.encode_response Protocol.Pong ^ "x") with
  | exception Wire.Decode_error _ -> ()
  | _ -> Alcotest.fail "trailing bytes accepted"

(* --- transports --- *)

(* A tiny handler: Eval_batch returns pre + point per node, Children
   returns one fake node, everything else pongs. *)
let toy_handler : Protocol.request -> Protocol.response = function
  | Protocol.Eval_batch { pres; point } ->
      Protocol.Values (List.map (fun pre -> pre + point) pres)
  | Protocol.Children parent ->
      Protocol.Nodes [ { Protocol.pre = parent + 1; post = parent + 2; parent } ]
  | _ -> Protocol.Pong

(* The toy handler's one-node evaluation request. *)
let eval pre point = Protocol.Eval_batch { pres = [ pre ]; point }

let test_local_transport () =
  let t = Transport.local ~handler:toy_handler in
  (match Transport.call t (eval 40 2) with
  | Protocol.Values [ 42 ] -> ()
  | r -> Alcotest.failf "unexpected %s" (Format.asprintf "%a" Protocol.pp_response r));
  let counters = Transport.counters t in
  check Alcotest.int "calls" 1 counters.Transport.calls;
  check Alcotest.bool "bytes counted" true (counters.Transport.bytes_sent > 0);
  Transport.reset_counters t;
  check Alcotest.int "reset" 0 (Transport.counters t).Transport.calls

let test_socket_transport () =
  let path = Filename.temp_file "ssdb" ".sock" in
  Sys.remove path;
  let server = Server.start ~path ~handler:toy_handler in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      match Transport.socket path with
      | Error e -> Alcotest.fail e
      | Ok t ->
          for i = 0 to 20 do
            match Transport.call t (eval i 1) with
            | Protocol.Values [ v ] -> check Alcotest.int "value" (i + 1) v
            | r -> Alcotest.failf "unexpected %s" (Format.asprintf "%a" Protocol.pp_response r)
          done;
          (match Transport.call t (Protocol.Children 7) with
          | Protocol.Nodes [ meta ] -> check Alcotest.int "child pre" 8 meta.Protocol.pre
          | _ -> Alcotest.fail "children failed");
          let counters = Transport.counters t in
          check Alcotest.int "calls" 22 counters.Transport.calls;
          Transport.close t)

let test_socket_multiple_clients () =
  let path = Filename.temp_file "ssdb" ".sock" in
  Sys.remove path;
  let server = Server.start ~path ~handler:toy_handler in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let clients =
        List.init 4 (fun _ ->
            match Transport.socket path with Ok t -> t | Error e -> Alcotest.fail e)
      in
      List.iteri
        (fun i t ->
          match Transport.call t (eval (100 * i) 5) with
          | Protocol.Values [ v ] -> check Alcotest.int "value" ((100 * i) + 5) v
          | _ -> Alcotest.fail "call failed")
        clients;
      List.iter Transport.close clients)

let test_socket_connect_failure () =
  match Transport.socket "/nonexistent/never/here.sock" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "connected to nothing"

let test_server_survives_handler_exception () =
  let path = Filename.temp_file "ssdb" ".sock" in
  Sys.remove path;
  let handler = function
    | Protocol.Ping -> failwith "boom"
    | r -> toy_handler r
  in
  let server = Server.start ~path ~handler in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      match Transport.socket path with
      | Error e -> Alcotest.fail e
      | Ok t ->
          (match Transport.call t Protocol.Ping with
          | Protocol.Error_msg _ -> ()
          | _ -> Alcotest.fail "expected handler error");
          (* connection must still work *)
          (match Transport.call t (eval 1 1) with
          | Protocol.Values [ 2 ] -> ()
          | _ -> Alcotest.fail "connection broken after handler error");
          Transport.close t)

let test_retired_opcodes_over_socket () =
  (* the event-loop server answers a frame carrying a retired request
     tag with a codec error and keeps serving the same connection *)
  let path = Filename.temp_file "ssdb" ".sock" in
  Sys.remove path;
  let server = Server.start ~path ~handler:toy_handler in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX path);
          let exchange payload =
            Frame.send fd payload;
            Protocol.decode_response (Frame.recv fd)
          in
          List.iter
            (fun tag ->
              (match exchange (retired_request tag) with
              | Protocol.Error_msg msg ->
                  check Alcotest.bool
                    (Printf.sprintf "tag %d: codec error (%s)" tag msg)
                    true
                    (String.length msg >= 7 && String.sub msg 0 7 = "codec: ")
              | r -> Alcotest.failf "tag %d: expected an error, got %a" tag
                       Protocol.pp_response r);
              match exchange (Protocol.encode_request (eval 40 2)) with
              | Protocol.Values [ 42 ] -> ()
              | r -> Alcotest.failf "tag %d: connection broken: %a" tag
                       Protocol.pp_response r)
            [ 4; 5; 7; 9 ]))

(* --- resilience: deadlines, retry, reconnect, drain --- *)

module Flaky = Test_support.Flaky

let fast_policy =
  {
    Transport.call_timeout = Some 1.0;
    max_retries = 2;
    backoff_base = 0.02;
    backoff_max = 0.1;
    backoff_jitter = 0.5;
  }

let with_flaky ?handler plan f =
  let path = Filename.temp_file "ssdb-flaky" ".sock" in
  Sys.remove path;
  let flaky = Flaky.start ?handler ~plan path in
  Fun.protect ~finally:(fun () -> Flaky.stop flaky) (fun () -> f flaky path)

let must_connect ?policy path =
  match Transport.socket ?policy path with
  | Ok t -> t
  | Error e -> Alcotest.fail ("connect: " ^ e)

let test_call_timeout_bounded () =
  (* a stalled server must not hang the client: the call fails within
     the configured deadline *)
  with_flaky
    (fun n -> if n = 1 then Some (Flaky.Stall 1.5) else None)
    (fun _flaky path ->
      let t =
        must_connect
          ~policy:{ fast_policy with Transport.call_timeout = Some 0.25; max_retries = 0 }
          path
      in
      let t0 = Unix.gettimeofday () in
      (match Transport.call t Protocol.Ping with
      | Protocol.Error_msg msg ->
          check Alcotest.bool ("timeout surfaced: " ^ msg) true
            (String.length msg >= 7)
      | r -> Alcotest.failf "expected timeout, got %a" Protocol.pp_response r);
      let elapsed = Unix.gettimeofday () -. t0 in
      check Alcotest.bool "bounded by deadline" true (elapsed < 1.0);
      check Alcotest.int "timeout counted" 1 (Transport.counters t).Transport.timeouts;
      Transport.close t)

let test_retry_reconnects () =
  (* server drops the connection on the first call: an idempotent
     request recovers transparently on a fresh connection *)
  with_flaky ~handler:toy_handler
    (fun n -> if n = 1 then Some Flaky.Close_before_reply else None)
    (fun _flaky path ->
      let t = must_connect ~policy:fast_policy path in
      (match Transport.call t (eval 40 2) with
      | Protocol.Values [ 42 ] -> ()
      | r -> Alcotest.failf "expected recovery, got %a" Protocol.pp_response r);
      let counters = Transport.counters t in
      check Alcotest.int "one retry" 1 counters.Transport.retries;
      check Alcotest.int "one reconnect" 1 counters.Transport.reconnects;
      Transport.close t)

let test_truncated_reply_recovers () =
  with_flaky ~handler:toy_handler
    (fun n -> if n = 1 then Some Flaky.Truncate_reply else None)
    (fun _flaky path ->
      let t = must_connect ~policy:fast_policy path in
      (match Transport.call t (eval 1 1) with
      | Protocol.Values [ 2 ] -> ()
      | r -> Alcotest.failf "expected recovery, got %a" Protocol.pp_response r);
      check Alcotest.bool "reconnected" true
        ((Transport.counters t).Transport.reconnects >= 1);
      Transport.close t)

let test_scan_next_never_retried () =
  (* Scan_next is not idempotent (a resend could skip a batch): the
     failure must surface instead of being retried *)
  with_flaky ~handler:toy_handler
    (fun n -> if n = 1 then Some Flaky.Close_before_reply else None)
    (fun flaky path ->
      let t = must_connect ~policy:fast_policy path in
      (match Transport.call t (Protocol.Scan_next { cursor = 1; max_items = 4 }) with
      | Protocol.Error_msg _ -> ()
      | r -> Alcotest.failf "expected failure, got %a" Protocol.pp_response r);
      check Alcotest.int "no retries" 0 (Transport.counters t).Transport.retries;
      check Alcotest.int "server saw exactly one call" 1 (Flaky.calls flaky);
      Transport.close t)

let test_protocol_error_not_retried () =
  (* an undecodable reply from a live peer is a protocol error: no
     retry, and the connection stays usable *)
  with_flaky ~handler:toy_handler
    (fun n -> if n = 1 then Some Flaky.Garbage_reply else None)
    (fun _flaky path ->
      let t = must_connect ~policy:fast_policy path in
      (match Transport.call t Protocol.Ping with
      | Protocol.Error_msg msg ->
          check Alcotest.bool "codec error" true
            (String.length msg >= 5 && String.sub msg 0 5 = "codec")
      | r -> Alcotest.failf "expected codec error, got %a" Protocol.pp_response r);
      check Alcotest.int "no retries" 0 (Transport.counters t).Transport.retries;
      (match Transport.call t (eval 1 1) with
      | Protocol.Values [ 2 ] -> ()
      | r -> Alcotest.failf "connection broken: %a" Protocol.pp_response r);
      check Alcotest.int "no reconnect" 0 (Transport.counters t).Transport.reconnects;
      Transport.close t)

let test_server_restart_recovery () =
  (* the acceptance scenario: kill the server between calls, restart
     it on the same path; the client recovers via retry + reconnect *)
  let path = Filename.temp_file "ssdb" ".sock" in
  Sys.remove path;
  let server = Server.start ~path ~handler:toy_handler in
  let t =
    must_connect
      ~policy:{ fast_policy with Transport.max_retries = 5; call_timeout = Some 1.0 }
      path
  in
  (match Transport.call t (eval 1 1) with
  | Protocol.Values [ 2 ] -> ()
  | r -> Alcotest.failf "before restart: %a" Protocol.pp_response r);
  Server.stop server;
  let server = Server.start ~path ~handler:toy_handler in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      (match Transport.call t (eval 40 2) with
      | Protocol.Values [ 42 ] -> ()
      | r -> Alcotest.failf "after restart: %a" Protocol.pp_response r);
      check Alcotest.bool "reconnected" true
        ((Transport.counters t).Transport.reconnects >= 1);
      Transport.close t)

let test_stopped_server_fails_fast () =
  (* with the server gone for good, the client must fail within the
     deadline/backoff budget — never hang *)
  let path = Filename.temp_file "ssdb" ".sock" in
  Sys.remove path;
  let server = Server.start ~path ~handler:toy_handler in
  let t = must_connect ~policy:fast_policy path in
  (match Transport.call t Protocol.Ping with
  | Protocol.Pong -> ()
  | r -> Alcotest.failf "ping failed: %a" Protocol.pp_response r);
  Server.stop server;
  let t0 = Unix.gettimeofday () in
  (match Transport.call t (eval 1 1) with
  | Protocol.Error_msg _ -> ()
  | r -> Alcotest.failf "expected failure, got %a" Protocol.pp_response r);
  let elapsed = Unix.gettimeofday () -. t0 in
  check Alcotest.bool "failed fast" true (elapsed < 4.0);
  Transport.close t

let test_graceful_drain () =
  (* stop must let the in-flight request finish (and its response go
     out) before returning, then leave no handler thread behind *)
  let slow_handler request =
    match request with
    | Protocol.Eval_batch _ ->
        Thread.delay 0.3;
        toy_handler request
    | r -> toy_handler r
  in
  let path = Filename.temp_file "ssdb" ".sock" in
  Sys.remove path;
  let server = Server.start ~path ~handler:slow_handler in
  let t = must_connect path in
  let result = ref None in
  let client =
    Thread.create
      (fun () -> result := Some (Transport.call t (eval 40 2)))
      ()
  in
  Thread.delay 0.1;
  let t0 = Unix.gettimeofday () in
  Server.stop server;
  let stop_elapsed = Unix.gettimeofday () -. t0 in
  Thread.join client;
  (match !result with
  | Some (Protocol.Values [ 42 ]) -> ()
  | Some r -> Alcotest.failf "in-flight request lost: %a" Protocol.pp_response r
  | None -> Alcotest.fail "client never finished");
  check Alcotest.bool "stop waited for the in-flight request" true (stop_elapsed > 0.05);
  let stats = Server.stats server in
  check Alcotest.int "no active connections after drain" 0
    stats.Server.connections_active;
  Transport.close t

let test_server_stats () =
  let path = Filename.temp_file "ssdb" ".sock" in
  Sys.remove path;
  let server = Server.start ~path ~handler:toy_handler in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let t = must_connect path in
      for _ = 1 to 5 do
        ignore (Transport.call t Protocol.Ping)
      done;
      Transport.close t;
      (* the handler thread notices the close asynchronously *)
      let rec settle n =
        let stats = Server.stats server in
        if stats.Server.connections_active > 0 && n > 0 then begin
          Thread.delay 0.02;
          settle (n - 1)
        end
        else stats
      in
      let stats = settle 100 in
      check Alcotest.int "accepted" 1 stats.Server.connections_accepted;
      check Alcotest.int "handled" 5 stats.Server.requests_handled;
      check Alcotest.int "drained" 0 stats.Server.connections_active)

let test_accept_backoff_schedule () =
  (* the EMFILE accept backoff carried over from the threaded server:
     doubles from 10ms, saturates at 1s.  Pinned as a pure function so
     a schedule regression (e.g. losing the cap and sleeping for
     minutes under descriptor exhaustion) fails here instead of in
     production *)
  let expect =
    [ (1, 0.01); (2, 0.02); (3, 0.04); (4, 0.08); (5, 0.16); (6, 0.32);
      (7, 0.64); (8, 1.0); (9, 1.0); (100, 1.0) ]
  in
  List.iter
    (fun (failures, delay) ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "delay after %d failures" failures)
        delay
        (Server.backoff_delay ~consecutive_failures:failures))
    expect;
  (* monotone non-decreasing: more failures never back off LESS *)
  for n = 1 to 63 do
    check Alcotest.bool "monotone" true
      (Server.backoff_delay ~consecutive_failures:(n + 1)
      >= Server.backoff_delay ~consecutive_failures:n)
  done

let test_many_concurrent_connections () =
  (* the event loop must hold well over the old thread-per-connection
     comfort zone on one poll set: open 128 connections at once, issue
     interleaved requests on all of them, and drain cleanly *)
  let path = Filename.temp_file "ssdb" ".sock" in
  Sys.remove path;
  let server = Server.start ~path ~handler:toy_handler in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let conns = Array.init 128 (fun _ -> must_connect path) in
      Fun.protect
        ~finally:(fun () -> Array.iter Transport.close conns)
        (fun () ->
          for round = 1 to 3 do
            Array.iteri
              (fun i t ->
                match Transport.call t (eval (40 + i) round) with
                | Protocol.Values [ v ] ->
                    check Alcotest.int
                      (Printf.sprintf "conn %d round %d" i round)
                      (40 + i + round) v
                | r -> Alcotest.failf "unexpected response: %a" Protocol.pp_response r)
              conns
          done;
          let stats = Server.stats server in
          check Alcotest.int "accepted all" 128 stats.Server.connections_accepted;
          check Alcotest.int "handled all" (128 * 3) stats.Server.requests_handled))

let () =
  Alcotest.run "rpc"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "errors" `Quick test_wire_errors;
        ] );
      ( "protocol",
        protocol_codec_suite @ fuzz_suite
        @ [ Alcotest.test_case "garbage rejected" `Quick test_decode_garbage ] );
      ( "transport",
        [
          Alcotest.test_case "local" `Quick test_local_transport;
          Alcotest.test_case "socket end to end" `Quick test_socket_transport;
          Alcotest.test_case "multiple clients" `Quick test_socket_multiple_clients;
          Alcotest.test_case "connect failure" `Quick test_socket_connect_failure;
          Alcotest.test_case "handler exceptions contained" `Quick
            test_server_survives_handler_exception;
          Alcotest.test_case "retired opcodes answered with codec error" `Quick
            test_retired_opcodes_over_socket;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "timeout is bounded" `Quick test_call_timeout_bounded;
          Alcotest.test_case "retry reconnects" `Quick test_retry_reconnects;
          Alcotest.test_case "truncated reply recovers" `Quick
            test_truncated_reply_recovers;
          Alcotest.test_case "scan_next never retried" `Quick
            test_scan_next_never_retried;
          Alcotest.test_case "protocol errors not retried" `Quick
            test_protocol_error_not_retried;
          Alcotest.test_case "server restart recovery" `Quick
            test_server_restart_recovery;
          Alcotest.test_case "stopped server fails fast" `Quick
            test_stopped_server_fails_fast;
          Alcotest.test_case "graceful drain" `Quick test_graceful_drain;
          Alcotest.test_case "server stats" `Quick test_server_stats;
          Alcotest.test_case "accept backoff schedule" `Quick
            test_accept_backoff_schedule;
          Alcotest.test_case "128 concurrent connections" `Quick
            test_many_concurrent_connections;
        ] );
    ]

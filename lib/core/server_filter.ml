module Protocol = Secshare_rpc.Protocol
module Node_table = Secshare_store.Node_table
module Page = Secshare_store.Page
module Obs = Secshare_obs

(* Cursor-lifecycle metric families.  The gauge is maintained
   incrementally (every insert and removal goes through one pair of
   functions below) so several filter instances in one process — the
   two server parts of a test database — aggregate naturally. *)
let () =
  Obs.Registry.declare ~kind:Obs.Registry.K_counter
    ~help:"Cursors evicted before being drained, by reason."
    "ssdb_server_cursor_evictions_total"

let obs_open_cursors =
  Obs.Registry.gauge ~help:"Server-side cursors currently open."
    "ssdb_server_open_cursors"

let obs_cursors_opened =
  Obs.Registry.counter ~help:"Server-side cursors opened."
    "ssdb_server_cursors_opened_total"

let obs_queries =
  Obs.Registry.counter
    ~help:"Query-opening requests handled (scan_eval)."
    "ssdb_server_queries_total"

let obs_slow_queries =
  Obs.Registry.counter
    ~help:"Query lifetimes that exceeded the slow-query threshold."
    "ssdb_server_slow_queries_total"

(* A fused scan in flight: what remains to be walked, plus the points
   every emitted row is evaluated at.  Nothing is materialized up
   front — the scan resumes from the node table one batch at a time
   (the resumable range-scan API), so an abandoned scan pins no row
   memory. *)
type scan_state = {
  point_rows : Bytes.t list;
      (** one multiplication-table row per query point, precomputed
          once per scan (the flat kernel, DESIGN.md §13) *)
  mutable pending_parents : int list;  (** Children_of mode *)
  mutable buffered_rows : Page.row list;  (** children fetched but not yet sent *)
  mutable current_range : (int * int * int) option;
      (** (next_pre, until_pre, below_post); [until_pre = max_int]
          for an unbounded range *)
  mutable pending_ranges : (int * int * int) list;
}

(* Besides its scan, a cursor carries the accounting the slow-query
   log reports when its lifetime ends: nothing here derives from query
   plaintext — counts, sizes and times only. *)
type cursor = {
  scan : scan_state;
  created : float;
  trace_id : int64;  (** the opener's ambient trace; 0 = untraced *)
  mutable next_calls : int;  (** [Scan_next] requests served *)
  mutable batches : int;
  mutable rows : int;
  mutable resp_bytes : int;  (** approximate response payload bytes *)
}

type cursor_stats = {
  open_cursors : int;
  evicted_cursors : int;  (** removed by TTL, cap pressure, or connection close *)
  expired_cursors : int;  (** the TTL subset of [evicted_cursors] *)
  scoped_cursors : int;  (** open cursors owned by a live connection *)
}

type t = {
  ring : Secshare_poly.Ring.t;
  tab : Secshare_field.Table.t;  (** the ring's flat op-tables *)
  table : Node_table.t;
  cursors : cursor Cursor_table.t;
  slow_query_ms : float option;
  now : unit -> float;
  pool : Pool.t;  (** share evaluation fans out here, outside the cursor lock *)
  manifest : Protocol.manifest_info option;
      (** this server's place in a sharded deployment; [None] answers
          the handshake with the trivial 1-of-1 manifest *)
  numbers : Node_table.t option;
      (** numeric share column (one row per aggregatable leaf); [None]
          rejects [Agg_eval] *)
}

(* One structured line per query whose lifetime crossed the threshold.
   Everything in it is safe under the information-flow argument
   (DESIGN.md §9): trace id, opcode names, counts, sizes, duration —
   never evaluation points, pre/post numbers, or share values. *)
let maybe_log_slow ~slow_query_ms ~trace_id ~cursor ~next_calls ~batches ~rows ~resp_bytes
    ~duration ~reason =
  match slow_query_ms with
  | None -> ()
  | Some threshold_ms ->
      let ms = duration *. 1000.0 in
      if ms >= threshold_ms then begin
        Obs.Registry.inc obs_slow_queries;
        let ops =
          if next_calls = 0 then "scan_eval:1"
          else Printf.sprintf "scan_eval:1,scan_next:%d" next_calls
        in
        Obs.Events.info
          "slow-query trace=%016Lx cursor=%s ops=%s batches=%d rows=%d bytes=%d \
           duration_ms=%.1f reason=%s"
          trace_id
          (match cursor with Some id -> string_of_int id | None -> "-")
          ops batches rows resp_bytes ms reason
      end

(* Every cursor's lifetime ends here, once, whatever removed it: the
   open-cursor gauge, the per-reason eviction counters and the
   slow-query check can never drift apart. *)
let on_remove ~slow_query_ms ~now id c (reason : Cursor_table.reason) =
  Obs.Registry.gauge_add obs_open_cursors (-1);
  (match reason with
  | Ttl | Cap | Connection_close ->
      Obs.Registry.inc
        (Obs.Registry.counter
           ~labels:[ ("reason", Cursor_table.reason_label reason) ]
           "ssdb_server_cursor_evictions_total")
  | Drained | Client_close -> ());
  maybe_log_slow ~slow_query_ms ~trace_id:c.trace_id ~cursor:(Some id)
    ~next_calls:c.next_calls ~batches:c.batches ~rows:c.rows ~resp_bytes:c.resp_bytes
    ~duration:(now () -. c.created)
    ~reason:(Cursor_table.reason_label reason)

let create ?cursor_ttl ?(max_cursors = 1024) ?slow_query_ms ?(now = Unix.gettimeofday)
    ?(workers = 1) ?manifest ?numbers ring table =
  {
    ring;
    tab = Share.kernel_table ring;
    table;
    cursors =
      Cursor_table.create ?ttl:cursor_ttl ~now ~max_cursors
        ~on_remove:(on_remove ~slow_query_ms ~now) ();
    slow_query_ms;
    now;
    pool = Pool.create ~workers ();
    manifest;
    numbers;
  }

let workers t = Pool.size t.pool
let close t = Pool.close t.pool

let meta_of_row (row : Page.row) =
  { Protocol.pre = row.Page.pre; post = row.Page.post; parent = row.Page.parent }

(* A query point's multiplication-table row: every share evaluation
   at that point is then an allocation-free Horner pass straight over
   the packed share bytes.  The zero point raises [Invalid_argument]
   here, which the handler turns into an [Error_msg]. *)
let point_row t point =
  Secshare_poly.Flat.point_row t.tab ~point:(t.ring.Secshare_poly.Ring.normalize point)

let eval_share t ~mul_row (row : Page.row) =
  Secshare_poly.Flat.eval_share t.tab ~mul_row ~n:t.ring.Secshare_poly.Ring.n
    row.Page.share

(* Register a cursor for a scan whose opening request already
   returned one batch.  Called on the thread that carries the opener's
   ambient trace. *)
let register_cursor t ~scope scan ~created ~rows ~resp_bytes =
  Obs.Registry.gauge_add obs_open_cursors 1;
  Obs.Registry.inc obs_cursors_opened;
  Cursor_table.add ?scope t.cursors
    {
      scan;
      created;
      trace_id = Obs.Trace.current_id ();
      next_calls = 0;
      batches = 1;
      rows;
      resp_bytes;
    }

(* Approximate response payload: 12 bytes of metadata per row plus 4
   per evaluated value — what the slow-query log reports as [bytes].
   Wire-exact sizes live in the server frame-byte counters. *)
let batch_bytes rows =
  List.fold_left (fun acc (_, values) -> acc + 12 + (4 * List.length values)) 0 rows

(* Nested pre-ranges cover the same rows twice.  Subtree ranges either
   nest or are disjoint, so after sorting by [from_pre] a range is
   redundant exactly when it ends before the previously kept one. *)
let dedup_ranges ranges =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) ranges in
  let rec keep last_post = function
    | [] -> []
    | (from_pre, below_post) :: rest ->
        if below_post <= last_post then keep last_post rest
        else (from_pre, below_post) :: keep below_post rest
  in
  keep min_int sorted

(* Evaluate one row's share at every point of the scan: the share is
   never unpacked, each point's precomputed table row drives a Horner
   pass directly over the packed bytes.  Pure: reads only the
   immutable row payload, so it is safe on any pool worker. *)
let row_values t (scan : scan_state) (row : Page.row) =
  (meta_of_row row, List.map (fun mul_row -> eval_share t ~mul_row row) scan.point_rows)

(* Fan a batch's share evaluations out across the worker pool.  Called
   OUTSIDE the cursor lock: evaluation is the dominant cost of a scan
   and must not serialise concurrent sessions. *)
let eval_rows t scan rows = Pool.map_list t.pool rows ~f:(row_values t scan)

(* Pull up to [max_items] rows out of a scan, advancing its resumable
   position.  Returns the raw rows (unevaluated — see [eval_rows]) and
   whether the scan is done. *)
let scan_collect t (scan : scan_state) ~max_items =
  let taken = ref [] in
  let count = ref 0 in
  let emit row =
    taken := row :: !taken;
    incr count
  in
  let exhausted = ref false in
  while (not !exhausted) && !count < max_items do
    match scan.buffered_rows with
    | row :: rest ->
        scan.buffered_rows <- rest;
        emit row
    | [] -> (
        match scan.current_range with
        | Some (from_pre, until_pre, below_post) ->
            let rows, resume =
              Node_table.scan_range t.table ~from_pre ~below_post
                ~max_rows:(max_items - !count)
            in
            (* Enforce the pre upper bound: subtree ranges are
               pre-contiguous, so the first row at or past [until_pre]
               ends this piece (the rest belongs to another bounded
               piece, served elsewhere). *)
            let truncated = ref false in
            List.iter
              (fun (row : Page.row) ->
                if row.Page.pre >= until_pre then truncated := true
                else if not !truncated then emit row)
              rows;
            scan.current_range <-
              (match resume with
              | Some pre when (not !truncated) && pre < until_pre ->
                  Some (pre, until_pre, below_post)
              | Some _ | None -> None)
        | None -> (
            match (scan.pending_ranges, scan.pending_parents) with
            | range :: rest, _ ->
                scan.current_range <- Some range;
                scan.pending_ranges <- rest
            | [], parent :: rest ->
                scan.pending_parents <- rest;
                scan.buffered_rows <- Node_table.children t.table ~parent
            | [], [] -> exhausted := true))
  done;
  let done_ =
    !exhausted
    || (scan.buffered_rows = [] && scan.current_range = None
       && scan.pending_ranges = [] && scan.pending_parents = [])
  in
  (List.rev !taken, done_)

let handle t ~scope (request : Protocol.request) : Protocol.response =
  match request with
  | Protocol.Ping -> Protocol.Pong
  | Protocol.Root -> Protocol.Node_opt (Option.map meta_of_row (Node_table.root t.table))
  | Protocol.Children parent ->
      Protocol.Nodes (List.map meta_of_row (Node_table.children t.table ~parent))
  | Protocol.Parent pre ->
      Protocol.Node_opt (Option.map meta_of_row (Node_table.parent_of t.table ~pre))
  | Protocol.Scan_eval { target; points; max_items } ->
      Obs.Registry.inc obs_queries;
      let started = t.now () in
      let point_rows = List.map (point_row t) points in
      let scan =
        match target with
        | Protocol.Children_of parents ->
            {
              point_rows;
              pending_parents = List.sort_uniq compare parents;
              buffered_rows = [];
              current_range = None;
              pending_ranges = [];
            }
        | Protocol.Pre_ranges ranges ->
            {
              point_rows;
              pending_parents = [];
              buffered_rows = [];
              current_range = None;
              pending_ranges =
                List.map (fun (a, b) -> (a, max_int, b)) (dedup_ranges ranges);
            }
        | Protocol.Bounded_pre_ranges ranges ->
            (* Router-issued pieces: already disjoint, just ordered;
               empty windows are dropped rather than scanned. *)
            {
              point_rows;
              pending_parents = [];
              buffered_rows = [];
              current_range = None;
              pending_ranges =
                List.filter (fun (a, u, _) -> a < u) (List.sort compare ranges);
            }
      in
      (* The scan is still private (no cursor registered), and table
         reads are latch-striped, so both the row collection and the
         pool-parallel evaluation run without the cursor lock; only
         cursor registration takes it. *)
      let rows_raw, done_ = scan_collect t scan ~max_items:(max 1 max_items) in
      let rows = eval_rows t scan rows_raw in
      let bytes = batch_bytes rows in
      if done_ then begin
        (* a one-shot scan never registers a cursor, so its
           slow-query check happens inline *)
        maybe_log_slow ~slow_query_ms:t.slow_query_ms
          ~trace_id:(Obs.Trace.current_id ())
          ~cursor:None ~next_calls:0 ~batches:1 ~rows:(List.length rows) ~resp_bytes:bytes
          ~duration:(t.now () -. started)
          ~reason:"drained";
        Protocol.Scan_batch { rows; cursor = None }
      end
      else
        let id =
          register_cursor t ~scope scan ~created:started ~rows:(List.length rows)
            ~resp_bytes:bytes
        in
        Protocol.Scan_batch { rows; cursor = Some id }
  | Protocol.Scan_next { cursor; max_items } -> (
      (* Phase 1 (locked): advance the scan position and collect raw
         rows.  Cursor affinity — a cursor is only ever drained by the
         connection that opened it — means no two drains race on one
         scan state; the lock protects the cursor table itself. *)
      let step =
        Cursor_table.use t.cursors cursor (fun c ->
            (c.scan, scan_collect t c.scan ~max_items:(max 1 max_items)))
      in
      match step with
      | None -> Protocol.Error_msg (Printf.sprintf "unknown cursor %d" cursor)
      | Some (scan, (rows_raw, done_)) ->
          (* Phase 2 (unlocked): pool-parallel share evaluation. *)
          let rows = eval_rows t scan rows_raw in
          (* Phase 3 (locked): accounting, and the single removal path
             when the scan drained.  The cursor may have been evicted
             (TTL/cap/connection close) while we evaluated; eviction
             already closed its accounting lifetime, so skip it here. *)
          ignore
            (Cursor_table.use t.cursors cursor (fun c ->
                 c.next_calls <- c.next_calls + 1;
                 c.batches <- c.batches + 1;
                 c.rows <- c.rows + List.length rows;
                 c.resp_bytes <- c.resp_bytes + batch_bytes rows)
              : unit option);
          if done_ then Cursor_table.remove t.cursors cursor Drained;
          Protocol.Scan_batch
            { rows; cursor = (if done_ then None else Some cursor) })
  | Protocol.Cursor_close cursor ->
      Cursor_table.remove t.cursors cursor Client_close;
      Protocol.Pong
  | Protocol.Eval_batch { pres; point } -> (
      (* row lookups stay on the handler thread (cheap, latch-striped);
         the evaluations fan out across the pool *)
      match
        List.map
          (fun pre ->
            match Node_table.find_by_pre t.table pre with
            | None -> failwith (Printf.sprintf "unknown node pre=%d" pre)
            | Some row -> row)
          pres
      with
      | rows ->
          (* one evaluation table for the whole batch; each pool task
             is then a single allocation-free Horner pass *)
          let mul_row = point_row t point in
          Protocol.Values (Pool.map_list t.pool rows ~f:(eval_share t ~mul_row))
      | exception Failure msg -> Protocol.Error_msg msg)
  | Protocol.Shares pres -> (
      match
        List.map
          (fun pre ->
            match Node_table.find_by_pre t.table pre with
            | None -> failwith (Printf.sprintf "unknown node pre=%d" pre)
            | Some row -> row.Page.share)
          pres
      with
      | shares -> Protocol.Shares_data shares
      | exception Failure msg -> Protocol.Error_msg msg)
  | Protocol.Table_stats ->
      Protocol.Stats
        {
          Protocol.rows = Node_table.row_count t.table;
          data_bytes = Node_table.data_bytes t.table;
          index_bytes = Node_table.index_bytes t.table;
        }
  | Protocol.Manifest ->
      Protocol.Manifest_data
        (match t.manifest with
        | Some m -> m
        | None ->
            (* unsharded: one shard holding everything, one partition *)
            {
              Protocol.shard_id = 1;
              shards = 1;
              threshold = 1;
              total_rows = Node_table.row_count t.table;
              bounds = [ 1 ];
            })
  | Protocol.Agg_eval { pres } -> (
      (* Fold numeric shares into one field element.  The sum is an
         additive share, uniformly random on its own — but it must
         still never reach logs or error text, only the wire. *)
      match t.numbers with
      | None -> Protocol.Error_msg "this server has no numeric share column"
      | Some numbers ->
          let rec fold acc count = function
            | [] -> Protocol.Agg_partial { count; sum = acc }
            | pre :: rest -> (
                match Node_table.find_by_pre numbers pre with
                | None ->
                    Protocol.Error_msg
                      (Printf.sprintf "no numeric share for node pre=%d" pre)
                | Some row -> (
                    match Numeric.of_bytes row.Page.share with
                    | v -> fold (Numeric.add acc v) (count + 1) rest
                    | exception Invalid_argument _ ->
                        Protocol.Error_msg
                          (Printf.sprintf "corrupt numeric share at pre=%d" pre)))
          in
          fold 0 0 pres)

let respond t ~scope request =
  match handle t ~scope request with
  | response -> response
  | exception exn -> Protocol.Error_msg (Printexc.to_string exn)

let handler t request = respond t ~scope:None request

(* A per-connection view: the cursors this connection opens belong to
   its scope, so they are evicted the moment it goes away instead of
   lingering until the TTL sweep. *)
let connection t =
  let scope = Cursor_table.scope t.cursors in
  ( respond t ~scope:(Some scope),
    fun () -> Cursor_table.close_scope t.cursors scope )

let sweep_cursors t = Cursor_table.sweep t.cursors
let open_cursors t = Cursor_table.length t.cursors

let cursor_stats t =
  let removed = Cursor_table.removed t.cursors in
  let expired = removed Ttl in
  {
    open_cursors = Cursor_table.length t.cursors;
    evicted_cursors = expired + removed Cap + removed Connection_close;
    expired_cursors = expired;
    scoped_cursors = Cursor_table.scoped t.cursors;
  }

(** The server half of the filter (paper §5.2): answers protocol
    requests from the node table.

    The server sees only [pre]/[post]/[parent] numbers and share
    polynomials; it never learns tag names, mapped values or which tag
    a query is about (it evaluates shares at client-supplied field
    points, which are themselves meaningless without the map).

    Cursors implement the [nextNode()] pipeline: a [Scan_eval] whose
    first batch does not exhaust its target opens a server-side scan
    cursor; the client drains it with [Scan_next] in small batches so
    it holds only one batch at a time.  Abandoned
    cursors cannot accumulate: each cursor carries a last-used
    timestamp and is evicted once idle past [cursor_ttl] (swept on
    every cursor operation or via {!sweep_cursors}); the total is
    capped at [max_cursors] with least-recently-used eviction; and a
    {!connection}-scoped handler evicts a connection's cursors the
    moment it closes. *)

type t

val create :
  ?cursor_ttl:float ->
  ?max_cursors:int ->
  ?slow_query_ms:float ->
  ?now:(unit -> float) ->
  ?workers:int ->
  ?manifest:Secshare_rpc.Protocol.manifest_info ->
  ?numbers:Secshare_store.Node_table.t ->
  Secshare_poly.Ring.t ->
  Secshare_store.Node_table.t ->
  t
(** [numbers] (default: none) is the numeric share column backing
    [Agg_eval]: one row per aggregatable leaf, its share bytes an
    8-byte little-endian {!Numeric} field element.  Without it,
    [Agg_eval] answers [Error_msg].
    [cursor_ttl] (seconds, default: none) evicts cursors idle longer
    than that; [max_cursors] (default 1024) bounds concurrently open
    cursors, evicting the least recently used past the cap.
    [slow_query_ms] (default: off) logs one structured info-level line
    per query lifetime — cursor open to removal, or a one-shot scan —
    that took at least this many milliseconds: trace id, opcode mix,
    batch/row/byte counts and duration only, never evaluation points,
    node numbers or share values.  [now] is the clock, injectable for
    tests.  [workers] (default 1 = inline) sizes the {!Pool} of
    evaluator domains that batch share evaluation fans out over; the
    cursor table stays behind its own lock, and evaluation happens
    outside it.  [manifest] (default: the trivial 1-of-1 topology over
    the table's rows) is what the [Manifest] handshake reports — set it
    when this server is one shard of a threshold deployment.
    @raise Invalid_argument when the ring's field order exceeds 256
    (see {!Share.kernel_table}). *)

val workers : t -> int
(** The configured evaluation-pool size (1 = inline). *)

val dedup_ranges : (int * int) list -> (int * int) list
(** The server's [Pre_ranges] normalisation — sort by [from_pre] and
    drop ranges nested inside an earlier one.  Exposed for the
    sharding router, which must replicate it exactly before splitting
    a scan at partition boundaries so the merged shard streams emit
    rows in the single server's order. *)

val close : t -> unit
(** Stop and join the evaluation pool.  Idempotent; a closed filter
    still answers requests (evaluating inline). *)

val handler : t -> Secshare_rpc.Protocol.request -> Secshare_rpc.Protocol.response
(** Total: errors come back as [Error_msg]. *)

val connection :
  t ->
  (Secshare_rpc.Protocol.request -> Secshare_rpc.Protocol.response) * (unit -> unit)
(** A per-connection handler plus its close hook: the hook evicts
    every cursor the connection opened and still holds.  Feed the pair
    to {!Secshare_rpc.Server.start_sessions}. *)

val sweep_cursors : t -> int
(** Evict cursors idle past the TTL now; returns how many. *)

val open_cursors : t -> int
(** Number of cursors currently open (for leak tests). *)

type cursor_stats = {
  open_cursors : int;
  evicted_cursors : int;  (** removed by TTL, cap pressure, or connection close *)
  expired_cursors : int;  (** the TTL subset of [evicted_cursors] *)
}

val cursor_stats : t -> cursor_stats

(** The client half of the filter (paper §5.2).

    "ClientFilter first regenerates the client polynomial by using the
    pseudorandom generator with the secret seed and the pre location of
    the polynomial.  After the evaluation of its generated polynomial
    it will add the result to the retrieved value from the server.
    Only when the sum equals zero, the location is returned to the
    invoking query engine."

    All structure navigation goes through the transport (so it works
    identically in-process and over a socket); all secret material
    (seed, map values) stays on this side. *)

type t

exception Filter_error of string
(** Transport or protocol failure. *)

val create :
  Secshare_poly.Ring.t ->
  seed:Secshare_prg.Seed.t ->
  ?scan_batch:int ->
  ?share_cache:int ->
  Secshare_rpc.Transport.t ->
  t
(** [scan_batch] (default 256) bounds fused [Scan_eval] batches: the
    client holds at most one batch of scanned rows at a time.
    [share_cache] (default 4096
    polynomials, 0 = off) bounds the LRU cache of regenerated client
    polynomials keyed by [pre]; regeneration is a pure function of the
    seed and [pre], so a cached entry is exact forever and eviction
    can only cost time, never correctness.  An evaluation memo keyed
    by [(pre, point)] rides along at 4x that capacity and is dropped
    by {!reset_metrics}.
    @raise Invalid_argument when the ring's field order exceeds 256
    (see {!Share.kernel_table}). *)

val metrics : t -> Metrics.t

val reset_metrics : t -> unit
(** Zero the metrics and drop the per-workload evaluation memo (the
    polynomial cache itself survives: its entries stay exact). *)

val rpc_counters : t -> Secshare_rpc.Transport.counters
val scan_batch : t -> int

val fused_scan : t -> bool
(** Always [true]: the fused [Scan_eval] protocol is the only one.
    Kept because perfbench/perfbench.ml still reads it. *)

val share_cache_stats : t -> Lru.stats option
(** Hit/miss/eviction counts of the polynomial cache; [None] when the
    cache is disabled. *)

val share_cache_capacity : t -> int
(** Configured capacity in polynomials (0 = disabled). *)

(** {2 Structure navigation} *)

val root : t -> Secshare_rpc.Protocol.node_meta option
val children : t -> pre:int -> Secshare_rpc.Protocol.node_meta list
val parent : t -> pre:int -> Secshare_rpc.Protocol.node_meta option

val cursor_close : t -> int -> unit
(** Release a scan cursor early.  The streaming operators manage scan
    cursors themselves so they can stop early (e.g. a satisfied
    [limit]) and close the server side eagerly instead of waiting for
    TTL eviction. *)

(** {2 Fused scans}

    One [Scan_eval] round trip both walks an axis range server-side
    and evaluates every scanned share at the supplied points — the
    scan and the containment test of a name step travel in the same
    message. *)

val scan_eval :
  t ->
  target:Secshare_rpc.Protocol.scan_target ->
  points:int list ->
  max_items:int ->
  (Secshare_rpc.Protocol.node_meta * int list) list * int option
(** First batch plus a continuation cursor when more rows remain. *)

val scan_next :
  t ->
  cursor:int ->
  max_items:int ->
  (Secshare_rpc.Protocol.node_meta * int list) list * int option

val filter_scan_rows :
  t ->
  (Secshare_rpc.Protocol.node_meta * int list) list ->
  points:int list ->
  Secshare_rpc.Protocol.node_meta list
(** Client half of a fused batch: combine each row's server
    evaluations with regenerated client shares and keep the rows
    passing the containment test at every point (counted in the
    metrics, one evaluation pair per point).  With no points, strips
    the (empty) value lists. *)

val table_stats : t -> Secshare_rpc.Protocol.stats

(** {2 Oblivious aggregation} *)

val agg_eval : t -> int list -> int * int
(** One [Agg_eval] round trip: [(count, sum)] where [sum] is the
    server's blinded partial sum over the listed [pre]s — constant
    reply bytes whatever the list length. *)

val blind_sum : t -> int list -> int
(** The client's half: the {!Numeric} sum of the PRG blinding values
    for the listed [pre]s.  [server sum + blind_sum] (mod the numeric
    field) is the scaled plaintext total. *)

(** {2 The two tests of §5.2 / §6.3} *)

val containment_batch :
  t ->
  Secshare_rpc.Protocol.node_meta list ->
  point:int ->
  Secshare_rpc.Protocol.node_meta list
(** Non-strict test: keep the candidates whose subtree (including
    the node itself) contains a node mapped to [point] — one
    [Eval_batch] round trip, one evaluation pair per node in the
    metrics. *)

val tag_value : t -> Secshare_rpc.Protocol.node_meta -> int option
(** Strict machinery: reconstruct the node and all its children,
    divide out the child product and return the node's own mapped
    value.  [None] when the division is degenerate (counted in the
    metrics). *)

val equality : t -> Secshare_rpc.Protocol.node_meta -> point:int -> bool
(** Strict: is the node itself mapped to [point]? *)

val close : t -> unit

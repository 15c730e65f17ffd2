(** Batch-pull execution of a {!Plan}.

    Volcano-style streaming, batch-at-a-time: {!build} turns a plan
    into a chain of operators, {!next} pulls one bounded batch of node
    metadata from an operator (pulling upstream on demand), and
    {!drain} runs the chain to exhaustion with guaranteed teardown —
    server cursors opened by scans are closed eagerly when an operator
    stops early (a satisfied [Limit], an exception mid-query) instead
    of lingering until TTL eviction.

    Every operator carries a {!Metrics.op_stats} record: batches and
    rows in/out, evaluation pairs, and the RPC calls/bytes and
    (cumulative) wall time attributable to it — the data behind
    [--explain]. *)

type t

type batch = Secshare_rpc.Protocol.node_meta array

val build : Client_filter.t -> Plan.t -> t list
(** Operators in plan order; the last element is the sink to drain.
    Every axis scan runs on the fused [Scan_eval] protocol (a root
    scan without a fused point is one [Root] call).
    @raise Invalid_argument on a plan whose first operator is not a
    source. *)

val next : t -> batch option
(** One batch, or [None] when the stream is dry.  Batches are
    unordered and may be empty only at the source level; operators
    skip empty intermediate results. *)

val close : t -> unit
(** Release the operator's server-side resources (idempotent). *)

val stats : t -> Metrics.op_stats

val agg_value : t -> Query_common.value option
(** The result deposited by an [Aggregate] sink once it has been
    drained; [None] on every other operator (and before draining). *)

val drain : t list -> Secshare_rpc.Protocol.node_meta list
(** Pull every batch from the sink, then close every operator (also on
    exception).  Row order is arrival order — callers sort. *)

val stats_list : t list -> Metrics.op_stats list
(** A snapshot of every operator's counters, in plan order. *)

val run : Client_filter.t -> Plan.t -> Secshare_rpc.Protocol.node_meta list
(** [build] + [drain]. *)

(** The shard router: one [Filter]-protocol endpoint fanning out over
    [n] threshold shard servers.

    The router speaks exactly the single-server protocol on both
    sides, so clients (and the whole query layer above them) are
    unchanged: point lookups and share fetches go to a group of
    [threshold] shards and the replies are folded with the fixed
    Lagrange multipliers ({!Secshare_core.Share}); fused scans are
    split at the manifest's partition boundaries, each piece drained
    in lockstep from its partition's shard group, and the combined
    rows streamed back in the exact order the single server would
    have produced — bit-identical results by construction.

    {b Degradation.}  A shard whose transport dies is marked dead and
    its work fails over to the surviving shards — including mid-scan:
    the router reopens the scan on a fresh group and skips the rows
    already delivered.  Queries keep succeeding until fewer than
    [threshold] shards are live, at which point requests fail with a
    clear error rather than wrong answers.  An application-level error
    from a {e live} shard (distinguished by a [Ping] probe) is
    propagated, never failed over.

    {b Information flow.}  Like every serving component, the router
    logs and exports topology only — shard ids, liveness, call counts
    — never query content, evaluation points or node numbers. *)

type t

val of_transports :
  Secshare_poly.Ring.t ->
  ?max_cursors:int ->
  Secshare_rpc.Transport.t list ->
  (t, string) result
(** Build a router over already-connected transports, one per shard.
    Each shard is asked for its {!Manifest.t} via the [Manifest]
    handshake; the group must be consistent and complete (exactly
    [shards] members with distinct ids 1..n).  [max_cursors] (default
    1024) bounds concurrently open router cursors, evicting the least
    recently used past the cap. *)

val connect :
  ?policy:Secshare_rpc.Transport.policy ->
  p:int ->
  e:int ->
  ?max_cursors:int ->
  string list ->
  (t, string) result
(** [of_transports] over socket transports to the given Unix-socket
    paths, each carrying the retry/deadline [policy].  The field [p^e]
    passes {!Secshare_core.Database.checked_field_order} before any
    socket is opened. *)

val handler :
  t -> Secshare_rpc.Protocol.request -> Secshare_rpc.Protocol.response
(** The routing request handler — plug into
    {!Secshare_rpc.Transport.local} for in-process use. *)

val connection :
  t -> (Secshare_rpc.Protocol.request -> Secshare_rpc.Protocol.response) * (unit -> unit)
(** A session-scoped handler for {!Secshare_rpc.Server.start_sessions}:
    the second component closes every cursor the connection still has
    open (router-side and on the shards). *)

val manifest : t -> Manifest.t
(** The deployment summary ([shard_id = 0]). *)

val shards : t -> int
val threshold : t -> int
val live_shards : t -> int

val kill_shard : t -> int -> unit
(** Mark shard [id] dead without probing it (test hook for the
    degraded-serving paths; the real path marks shards dead when their
    transport fails a call and a [Ping] probe). *)

val open_cursors : t -> int

val close : t -> unit
(** Close all cursors and every shard transport. *)

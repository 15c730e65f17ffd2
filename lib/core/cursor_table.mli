(** The cursor registry shared by the server filter and the shard
    router: every open scan cursor, keyed by the id the client drains
    it with.

    Generic over the cursor payload (the server's resumable scan, the
    router's lockstep merge).  The registry owns:

    - id allocation, and touch-on-use recency;
    - least-recently-used eviction once [max_cursors] are open;
    - the optional idle-TTL sweep, run on every {!add} and {!use} and
      on demand ({!sweep}), against an injectable clock;
    - per-connection ownership ({!scope}): a cursor opened under a
      scope leaves the table when the scope closes;
    - one removal path.  Every cursor leaves exactly once, whatever
      the reason, and [on_remove] hears about it exactly once.

    [on_remove] runs after the table lock is released, on the thread
    that removed the cursor, so it may do slow work — log a slow
    query, close a router's shard cursors over the network — without
    stalling other sessions.  The registry itself exports no metrics:
    each owner counts what it needs in [on_remove].

    Thread-safe: one mutex guards the table.  The payload is not
    guarded — the owner's discipline (one in-flight request per
    cursor) keeps it single-owner. *)

type reason =
  | Drained  (** the scan ran out of rows *)
  | Client_close  (** the client sent [Cursor_close] *)
  | Ttl  (** idle longer than the TTL *)
  | Cap  (** least recently used when a new cursor needed room *)
  | Connection_close  (** its scope closed *)

val reason_label : reason -> string
(** A fixed lower-case name per reason, safe as a metric label. *)

type 'a t

val create :
  ?ttl:float ->
  ?now:(unit -> float) ->
  max_cursors:int ->
  on_remove:(int -> 'a -> reason -> unit) ->
  unit ->
  'a t
(** [ttl] (seconds, default: none) evicts cursors idle longer than
    that; [max_cursors] (at least 1) bounds the open cursors; [now]
    (default [Unix.gettimeofday]) is the TTL clock. *)

type scope
(** A connection's ownership token. *)

val scope : 'a t -> scope
(** A fresh scope owning no cursor. *)

val add : ?scope:scope -> 'a t -> 'a -> int
(** Sweep, evict least-recently-used cursors until there is room, then
    register the payload under a fresh id (touched now), owned by
    [scope] if given. *)

val use : 'a t -> int -> ('a -> 'b) -> 'b option
(** Sweep, then touch cursor [id] and apply [f] to its payload with
    the table lock held; [None] when [id] is not open.  [f] must not
    call back into the table. *)

val remove : 'a t -> int -> reason -> unit
(** Remove cursor [id] if it is still open. *)

val close_scope : 'a t -> scope -> unit
(** Remove every cursor the scope still owns ([Connection_close]). *)

val close_all : 'a t -> unit
(** Remove every cursor ([Connection_close]): the owner is shutting
    down. *)

val sweep : 'a t -> int
(** Remove the cursors idle past the TTL now; returns how many. *)

val length : 'a t -> int
(** Cursors currently open. *)

val scoped : 'a t -> int
(** Open cursors owned by some scope. *)

val removed : 'a t -> reason -> int
(** Cursors removed for [reason] since creation. *)

(** Additive secret sharing of node polynomials (paper §3 steps 3–4).

    The client polynomial is pseudorandom, regenerated from the seed
    and the node's [pre] number; the server share is chosen so that
    client + server equals the node's true polynomial.  Either share
    alone is uniformly distributed and reveals nothing. *)

val client :
  Secshare_poly.Ring.t -> seed:Secshare_prg.Seed.t -> pre:int -> Secshare_poly.Cyclic.t
(** The regenerated client share of node [pre]. *)

val server_share :
  Secshare_poly.Ring.t ->
  seed:Secshare_prg.Seed.t ->
  pre:int ->
  Secshare_poly.Cyclic.t ->
  Secshare_poly.Cyclic.t
(** [server_share r ~seed ~pre f] is [f - client], the share stored in
    the public table. *)

val reconstruct :
  Secshare_poly.Ring.t ->
  seed:Secshare_prg.Seed.t ->
  pre:int ->
  server:Secshare_poly.Cyclic.t ->
  Secshare_poly.Cyclic.t
(** [client + server]: the node's true polynomial. *)

val combine_evaluations : Secshare_poly.Ring.t -> client:int -> server:int -> int
(** Sum of the two shares' evaluations at the same point — zero iff
    the true polynomial evaluates to zero there (the containment
    test). *)

val kernel_table : Secshare_poly.Ring.t -> Secshare_field.Table.t
(** The ring's flat byte op-tables, which both filters evaluate
    through.  @raise Invalid_argument when the field order exceeds 256
    (such fields are refused at admission, see
    {!Database.checked_field_order}). *)

(** {2 Shamir t-of-n re-sharing of the server share}

    Sharded serving (lib/shard) splits the {e server} share again:
    coefficient-wise Shamir with x-coordinates [1 .. shards], so shard
    [i]'s table stores a polynomial share that any [threshold] shards
    recombine by the fixed Lagrange multipliers
    {!shard_lambdas} — and, by linearity, the same multipliers
    recombine per-shard {e evaluations}
    ({!combine_threshold_evaluations}), which is all the containment
    test needs.  Every shard share packs byte-identically to a
    single-server share, so storage, kernels and the wire format are
    unchanged. *)

val shard_xs : shards:int -> int list
(** The shard x-coordinates [\[1; ...; shards\]]; shard ids are
    1-based and double as interpolation points. *)

val shard_server_share :
  Secshare_poly.Ring.t ->
  threshold:int ->
  shards:int ->
  gen:(unit -> int) ->
  bytes ->
  bytes list
(** Split one packed server share into [shards] packed shard shares
    (order of {!shard_xs}); [gen] supplies the dealer's uniform field
    draws, [threshold - 1] per coefficient.  @raise Invalid_argument
    unless [1 <= threshold <= shards < field order]. *)

val shard_lambdas : Secshare_poly.Ring.t -> xs:int list -> int list
(** Lagrange-at-zero multipliers for a live subset of shard ids. *)

val reconstruct_packed :
  Secshare_poly.Ring.t -> lambdas:int list -> bytes list -> bytes
(** Recombine [t] packed shard shares into the original packed server
    share — exact, bit-identical bytes (field arithmetic, then the
    same codec). *)

val combine_threshold_evaluations :
  Secshare_poly.Ring.t -> lambdas:int list -> int list -> int
(** Fold [t] per-shard evaluations at one point into the server
    share's evaluation there: [sum_i lambda_i v_i]. *)

(** Deterministic regeneration of client-side share polynomials.

    The client tree is generated pseudorandomly and discarded; only the
    seed survives.  [client_poly] regenerates the client polynomial of
    the node at pre-order position [pre]: ChaCha20 keyed by the seed,
    nonce domain-separated by [pre], coefficients drawn uniformly in
    [0, q) by rejection sampling (so the shares are uniform — the
    secret-sharing hiding property depends on this).

    Every draw reads the keystream in block order from counter 0, each
    byte exactly once: the draws of one [(pre, tag)] stream are the
    continuous keystream, cut into draws. *)

type t
(** A per-seed generator: the seed expanded once into a ChaCha20
    state, plus one block of keystream scratch.  It is mutable scratch,
    so one generator serves one thread. *)

val create : Seed.t -> t

val start : t -> pre:int -> tag:string -> unit
(** Position the generator at the start (block 0) of the stream for
    [(pre, tag)]: the nonce is 8 bytes of [pre], little-endian, then
    the 4-byte domain [tag] (["poly"] for polynomial coefficients).
    Allocates nothing.
    @raise Invalid_argument on negative [pre] or a tag that is not 4
    bytes. *)

val next_byte : t -> int
(** The next keystream byte of the current stream, generating the next
    block when the current one is used up.  Allocates nothing. *)

val fill : t -> pre:int -> q:int -> int array -> unit
(** [fill t ~pre ~q out] overwrites all of [out] with the uniform
    draws in [0, q) of node [pre]'s ["poly"] stream: big-endian draws
    of the fewest bytes that cover [q], rejected at or above the
    largest multiple of [q] they can express.  Allocates nothing.
    @raise Invalid_argument on negative [pre] or [q < 2]. *)

val client_poly :
  ring:Secshare_poly.Ring.t -> seed:Seed.t -> pre:int -> Secshare_poly.Cyclic.t
(** The client polynomial for node [pre]: {!fill} with [ring]'s order
    and dimension.  Deterministic in [(seed, ring, pre)].
    @raise Invalid_argument on negative [pre]. *)

val coefficients : seed:Seed.t -> pre:int -> q:int -> count:int -> int array
(** A fresh array of [count] draws of {!fill}: the dealer's stream and
    the statistical tests' view of the generator. *)

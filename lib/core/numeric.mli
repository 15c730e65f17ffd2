(** Additive numeric shares over the prime field F_M, M = 2^61 - 1.

    Numeric leaf values are fixed-point integers (a decimal string
    scaled by 10^scale) lifted into F_M and split additively at encode
    time: the server stores [value - blind(seed, pre)] and the client
    can regenerate [blind(seed, pre)] from its secret seed alone, so a
    partial sum returned by the server is one uniformly blinded field
    element — constant size, independent of how many rows went into
    it.  Because the split is linear, the same Lagrange-at-zero
    recombination the polynomial shares use carries partial sums
    across a Shamir t-of-n shard fleet (see {!shard_value} /
    {!lambdas_at_zero}).

    M is a Mersenne prime small enough that every element fits OCaml's
    63-bit [int] and the sum of two elements never overflows;
    multiplication (only needed for Shamir dealing and Lagrange
    weights — never on the per-row hot path) uses a double-and-add
    ladder, trading speed for overflow-proof simplicity. *)

val modulus : int
(** 2^61 - 1 (prime). *)

val default_scale : int
(** Fixed-point fractional digits used by the encoder by default (2). *)

val normalize : int -> int
(** Canonical representative in [\[0, modulus)] (negatives wrap). *)

val add : int -> int -> int
(** Field addition; arguments must already be normalized. *)

val sub : int -> int -> int
val neg : int -> int

val mul : int -> int -> int
(** Field multiplication (double-and-add; no intermediate overflow). *)

val inv : int -> int
(** Multiplicative inverse via Fermat. @raise Division_by_zero on 0. *)

val lift : int -> int
(** Centered lift: the unique representative in
    [\[-(M-1)/2, (M-1)/2\]] — how a recombined sum becomes a signed
    fixed-point integer again. *)

val max_magnitude : int
(** Largest |scaled value| {!parse_decimal} accepts: (M - 1) / 2. *)

val parse_decimal : scale:int -> string -> int option
(** Parse a decimal literal ([-12], [3.50], [ 0.07 ]; surrounding
    whitespace ignored) into an integer scaled by 10^scale.  [None]
    if the text is not a plain decimal, has more than [scale]
    fractional digits, or exceeds {!max_magnitude}. *)

val blind : seed:Secshare_prg.Seed.t -> pre:int -> int
(** The client's additive blind for node [pre]: a uniform field
    element from a ChaCha20 stream keyed by the seed, domain-separated
    from the polynomial-share PRG ({!Secshare_prg.Node_prg}). *)

val blind_with : Secshare_prg.Node_prg.t -> pre:int -> int
(** {!blind} through a caller-owned generator for the same seed:
    allocates nothing. *)

val dealer_draws :
  seed:Secshare_prg.Seed.t -> pre:int -> count:int -> int array
(** [count] uniform field elements for the offline dealer (Shamir
    coefficients), again domain-separated per [pre]. *)

val shard_value : threshold:int -> gen:(unit -> int) -> xs:int list -> int -> int list
(** Shamir-share a field element: a degree-[threshold - 1] polynomial
    with constant term the value and [gen]-drawn coefficients,
    evaluated at each x in [xs] (nonzero, distinct, in order). *)

val lambdas_at_zero : int list -> int list
(** Lagrange weights recombining evaluations at [xs] into the value at
    zero: value = sum_i lambda_i * share_i.  Linear, so the same
    weights recombine per-shard partial {e sums}. *)

val combine : lambdas:int list -> int list -> int
(** [sum_i lambda_i * share_i] in F_M. *)

val to_bytes : int -> bytes
(** 8-byte little-endian cell for the numeric column. *)

val of_bytes : bytes -> int
(** @raise Invalid_argument unless exactly 8 bytes holding a
    normalized field element. *)

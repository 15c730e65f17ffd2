(** Allocation-free polynomial kernels over flat byte tables.

    These are the hot loops of the whole system: evaluating
    secret-share polynomials during scans and multiplying reduced
    child polynomials during equality recovery.  The reference
    implementations ({!Dense.eval}, {!Cyclic.eval}, {!Cyclic.mul})
    walk closure-cached field operations; the kernels here walk the
    flat byte tables of {!Secshare_field.Table} instead, so a Horner
    step is two [Bytes.unsafe_get]s and results stay bit-identical
    (the tables are built from the same field operations).

    Every entry point takes the table and any per-query scratch
    explicitly; none allocates on the per-coefficient path.  The
    module is a designated kernel module for [ssdb_lint]: allocating
    combinators ([Array.map], [List.map], ...) are banned inside it.

    All evaluation here is evaluation in the cyclic quotient
    [F_q[x]/(x^n - 1)], which agrees with the unreduced polynomial
    only at nonzero points — {!point_row} enforces that, mirroring
    {!Cyclic.eval}. *)

val point_row : Secshare_field.Table.t -> point:int -> Bytes.t
(** The per-query evaluation table for [point]: the multiplication-
    table row [x -> x * point] every Horner step multiplies by.
    [point] must already be canonical (callers hold a {!Ring.t} and
    normalise with it, exactly as {!Cyclic.eval} does internally).
    @raise Invalid_argument on the zero point (evaluation at 0 is not
    preserved by cyclic reduction; see {!Cyclic.eval}) or a
    non-canonical one. *)

val eval_coeffs : Secshare_field.Table.t -> mul_row:Bytes.t -> int array -> int
(** Horner evaluation of a coefficient vector (least degree first,
    canonical encodings — e.g. {!Cyclic.view}) at the point whose
    {!point_row} is [mul_row].  Bit-identical to {!Cyclic.eval}. *)

val eval_share :
  Secshare_field.Table.t -> mul_row:Bytes.t -> n:int -> Bytes.t -> int
(** Horner evaluation straight over a {!Codec}-packed share — the
    coefficients are field-decoded inline from the bit-packed buffer,
    so the per-row [Codec.unpack] allocation of the reference path
    disappears entirely.  Validates exactly like [Codec.unpack]:
    @raise Invalid_argument if the buffer is short or a decoded
    coefficient is outside [0, q). *)

val eval_share_batch :
  Secshare_field.Table.t ->
  mul_row:Bytes.t ->
  n:int ->
  Bytes.t array ->
  out:int array ->
  unit
(** Evaluate a whole scan batch of packed shares at one point in a
    single pass, writing [out.(i) <- eval of shares.(i)].  [out] is
    caller-allocated (at least as long as the batch) so the kernel
    itself allocates nothing.
    @raise Invalid_argument if [out] is shorter than the batch. *)

val add_share_into :
  Secshare_field.Table.t ->
  n:int ->
  Bytes.t ->
  client:int array ->
  out:int array ->
  unit
(** [add_share_into tab ~n share ~client ~out] writes
    [out.(i) <- client.(i) + s_i] for the [n] coefficients [s_i]
    decoded from the {!Codec}-packed server [share]: the client half
    plus the server half, i.e. the node's reconstructed polynomial,
    without the reference path's [Codec.unpack] array.  Bit-identical
    to [Cyclic.add] of the two halves.  [out] may be [client] itself.
    Validates exactly like [Codec.unpack]:
    @raise Invalid_argument if the share is short, a decoded
    coefficient is outside [0, q), or a buffer is shorter than [n]. *)

val mul_into :
  Secshare_field.Table.t ->
  n:int ->
  a:int array ->
  b:int array ->
  out:int array ->
  unit
(** Cyclic schoolbook product [out <- a * b] in [F_q[x]/(x^n - 1)],
    identical fold order to {!Cyclic.mul} but through the byte
    tables.  [out] must be distinct from [a] and [b]; all three must
    have length at least [n].  The equality path ping-pongs two
    caller-owned scratch buffers through this to fold a product of
    children without allocating per step. *)

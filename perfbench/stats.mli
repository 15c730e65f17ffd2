(** Order statistics and span arithmetic the benchmark reports with.

    Percentiles use the nearest-rank rule on an integer percent, so
    the rank is exact integer arithmetic: the [p]th percentile of [n]
    samples is the [ceil (p * n / 100)]th smallest, and the samples
    ranked above it are the ones "beyond" it. *)

val rank : p:int -> int -> int
(** 1-based nearest rank of the [p]th percentile among [n > 0]
    samples. *)

val beyond : p:int -> int -> int
(** Samples ranked strictly above the [p]th percentile among [n]. *)

val min_samples : p:int -> beyond:int -> int
(** The fewest samples that leave at least [beyond] of them above the
    [p]th percentile ([p < 100]). *)

val percentile : p:int -> float array -> float
(** Nearest-rank percentile of a non-empty array (the array is not
    modified). *)

val median : float array -> float
(** [percentile ~p:50]. *)

val gmean : float list -> float
(** Geometric mean of positive values, so every value weighs the same
    whatever its magnitude.
    @raise Invalid_argument on an empty list or a value [<= 0]. *)

(** {2 Spans} *)

type span = {
  parent : int;  (** index of the parent span in the same array; -1 for a root *)
  start : int;
  stop : int;  (** same clock as [start], [stop >= start] *)
}

val self_times : span array -> int array
(** Each span's duration minus the part of its own interval that its
    direct children cover.  Children are clipped to the parent's
    interval and overlapping children count their shared stretch once,
    so a span's self time is never negative.

    When every child lies inside its parent and siblings do not
    overlap, the self times of a tree sum to its root's duration; the
    benchmark's ledger check relies on that. *)

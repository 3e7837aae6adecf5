(** Deterministic pseudo-random number generation.

    All randomness in the simulator flows through explicit generator values
    seeded by the caller, so that every experiment is reproducible bit for
    bit. The implementation is SplitMix64, which has good statistical
    quality, a tiny state and supports cheap stream splitting. *)

type t
(** A mutable generator. Generators are cheap; split rather than share.
    A draw allocates nothing but a result that is itself boxed
    ([int64], [float]). *)

val create : int -> t
(** [create seed] makes a fresh generator from a seed. Distinct seeds give
    independent-looking streams. *)

val split : t -> t
(** [split g] derives a new generator from [g], advancing [g]. The two
    streams are statistically independent. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform in [\[lo, hi\]] inclusive. Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val bits53 : t -> int
(** The next draw's top 53 bits, uniform in [\[0, 2{^53})]. {!float}
    scales exactly this draw: [float g b] is
    [float_of_int (bits53 g) /. 2{^53} *. b]. A caller that only
    compares the draw against thresholds can scale it itself and so
    keep the float unboxed. *)

val bool : t -> bool
(** Fair coin. *)

val exponential : t -> float -> float
(** [exponential g mean] samples an exponential distribution with the given
    mean; used for inter-arrival times in load generators. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniformly pick an element. Requires a non-empty array. *)

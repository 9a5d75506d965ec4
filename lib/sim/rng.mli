(** Deterministic, seedable pseudo-random numbers (SplitMix64).

    The Monte-Carlo availability engine must be reproducible across runs
    and platforms, so it does not use [Stdlib.Random]. SplitMix64 passes
    BigCrush, is trivially splittable, and needs one 64-bit word of
    state, kept unboxed so that a draw does not allocate. *)

type t

val create : int -> t
(** [create seed] — equal seeds yield equal streams. *)

val split : t -> t
(** A statistically independent generator derived from (and advancing)
    the given one; used to give each simulation replication its own
    stream. *)

val copy : t -> t
val next_int64 : t -> int64

val float : t -> float
(** Uniform in [0, 1). *)

val uniform : t -> lo:float -> hi:float -> float
val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). [bound] must be positive. *)

val exponential : t -> rate:float -> float
(** Exponential variate with the given rate (mean [1/rate]). [rate] must
    be positive. *)

val weibull : t -> shape:float -> scale:float -> float
(** Weibull variate; [shape = 1] degenerates to exponential with mean
    [scale]. Used by the non-exponential failure ablation. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Lognormal variate: exp of a Gaussian with parameters [mu], [sigma];
    used to model repair times with heavy right tails. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Box–Muller transform. *)

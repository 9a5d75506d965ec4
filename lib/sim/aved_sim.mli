(** Engine C's discrete-event simulator: a seedable random stream,
    sampling distributions, a timestamped event heap and the replication
    loop that drives them over a tier.

    All four live in one compilation unit, so the loop's draws, samples
    and heap operations are inlined into it and no float is boxed per
    simulated event, whatever the build profile. *)

(** Deterministic, seedable pseudo-random numbers (SplitMix64).

    The Monte-Carlo availability engine must be reproducible across runs
    and platforms, so it does not use [Stdlib.Random]. SplitMix64 passes
    BigCrush, is trivially splittable, and needs one 64-bit word of
    state, kept unboxed so that a draw does not allocate. *)
module Rng : sig
  type t

  val create : int -> t
  (** [create seed] — equal seeds yield equal streams. *)

  val split : t -> t
  (** A statistically independent generator derived from (and
      advancing) the given one; used to give each simulation replication
      its own stream. *)

  val copy : t -> t
  val next_int64 : t -> int64

  val float : t -> float
  (** Uniform in [0, 1). *)

  val uniform : t -> lo:float -> hi:float -> float
  val int : t -> int -> int
  (** [int t bound] is uniform in [0, bound). [bound] must be positive. *)

  val exponential : t -> rate:float -> float
  (** Exponential variate with the given rate (mean [1/rate]). [rate]
      must be positive. *)

  val weibull : t -> shape:float -> scale:float -> float
  (** Weibull variate; [shape = 1] degenerates to exponential with mean
      [scale]. Used by the non-exponential failure ablation. *)

  val lognormal : t -> mu:float -> sigma:float -> float
  (** Lognormal variate: exp of a Gaussian with parameters [mu],
      [sigma]; used to model repair times with heavy right tails. *)

  val gaussian : t -> mean:float -> stddev:float -> float
  (** Box–Muller transform. *)
end

(** Sampling distributions for failure and repair processes.

    The analytic engines assume exponential interarrivals (as the paper
    does); the simulator also supports Weibull and lognormal shapes for
    sensitivity ablations. *)
module Distribution : sig
  type t =
    | Deterministic of float  (** Always the given value (seconds). *)
    | Exponential of float  (** Mean (seconds); rate is its inverse. *)
    | Weibull of { shape : float; scale : float }
    | Lognormal of { mu : float; sigma : float }

  val exponential_of_mean : float -> t
  (** Raises [Invalid_argument] for a non-positive mean. *)

  val weibull_of_mean : shape:float -> mean:float -> t
  (** The Weibull with the given shape whose mean equals [mean]. *)

  val lognormal_of_mean : sigma:float -> mean:float -> t
  (** The lognormal with the given [sigma] whose mean equals [mean]. *)

  val mean : t -> float
  val sample : t -> Rng.t -> float
  val pp : Format.formatter -> t -> unit
end

(** A binary min-heap of timestamped events.

    The discrete-event simulator processes events in time order; ties
    are broken by insertion order so simulations are fully
    deterministic. An event's payload is an int (the simulator codes its
    events as ints). The heap is stored as parallel arrays (unboxed
    times, sequence numbers, payloads), and neither {!push} nor
    {!pop_min} allocates once the arrays have grown to the queue's
    working size. *)
module Event_queue : sig
  type t

  val create : unit -> t
  val is_empty : t -> bool
  val length : t -> int

  val push : t -> time:float -> int -> unit
  (** Raises [Invalid_argument] for a non-finite time. *)

  val min_time : t -> float
  (** Time of the earliest event; [infinity] when the queue is empty. *)

  val pop_min : t -> int
  (** Removes the earliest event (the first pushed among equal times)
      and returns its payload; its time is {!min_time} before the call.
      Raises [Invalid_argument] when the queue is empty. *)

  val pushes : t -> int
  (** The number of events pushed since {!create}. *)

  val clear : t -> unit
end

(** One replication of a tier: N = n + s resources; every serving
    resource carries its own failure clock (one candidate time per
    failure class, earliest wins, ties to the lower class), a failure's
    repair takes a time drawn from its class, and a failover-eligible
    failure activates a free spare after the class's deterministic
    failover delay while the active set is short. A repaired resource
    rejoins service when the active set is short and becomes a spare
    otherwise. The tier is down while fewer than [n_min] resources
    serve. *)
module Replication : sig
  type plan = {
    n_active : int;
    n_min : int;
    n_spare : int;
    proposes : bool array;  (** Per class: it arms a failure clock. *)
    failure_dists : Distribution.t array;  (** Per class, seconds. *)
    repair_dists : Distribution.t array;  (** Per class, seconds. *)
    fails_over : bool array;  (** Per class: failover is considered. *)
    failover_seconds : float array;  (** Per class. *)
  }
  (** The tier's parameters, flattened into per-class arrays. *)

  (** A finite job: work accrues at [rate_per_second] while the tier is
      up, a checkpoint completes every [loss_window] seconds of running
      time, and every failure rewinds the work to the last checkpoint. *)
  type job = {
    rate_per_second : float;
    job_size : float;
    loss_window : float option;
  }

  type t

  val create : ?job:job -> plan -> Rng.t -> t
  (** A replication at time 0 with every active resource's failure
      clock armed from the given stream. *)

  val run : t -> stop:float -> unit
  (** Processes events up to time [stop], or, for a job, until the job
      completes if that comes first. *)

  val downtime : t -> float
  (** Seconds spent down so far. *)

  val class_downtime : t -> float array
  (** Downtime so far charged to each class: every down interval goes to
      the class whose failure took the tier down, so the entries sum to
      {!downtime}. *)

  val completion : t -> float option
  (** The job's completion time, in seconds, once it has completed. *)

  val events : t -> int
  (** The events scheduled so far. *)
end

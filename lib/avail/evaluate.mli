(** Design evaluation (paper §4.2): cost is evaluated by the model
    layer; this module evaluates availability and expected job
    completion time, through a chosen engine. *)

module Duration = Aved_units.Duration
module Availability = Aved_reliability.Availability

type engine =
  | Analytic  (** Engine A — used inside the search loop. *)
  | Exact of { max_states : int }  (** Engine B — validation. *)
  | Monte_carlo of Monte_carlo.config  (** Engine C — validation. *)

val default_engine : engine

val memoized : unit -> engine
(** [Analytic]. A former name kept only because the committed serving
    benchmark ([perfbench/serving.ml]) still calls it; the search's
    per-domain [Aved_search.Eval_cache] is the one downtime cache.
    Delete once the benchmark stops calling it. *)

val tier_downtime_fraction : engine -> Tier_model.t -> float

type class_contribution = {
  label : string;  (** The failure class, e.g. ["machineA/hard"]. *)
  repair_mechanism : string option;
      (** The mechanism the mode delegates repair to, when any. *)
  fraction : float;  (** Long-run downtime fraction attributed to it. *)
}

type decomposition = {
  total : float;  (** The engine's downtime fraction for the tier. *)
  by_class : class_contribution list;
      (** One entry per failure class, in model order; the fractions
          sum to [total] (within float accumulation error). *)
}

val tier_downtime_decomposition : engine -> Tier_model.t -> decomposition
(** Per-failure-mode downtime attribution through the chosen engine:
    Markov steady-state occupancy for [Analytic] (first-order
    split of the chain mass) and [Exact] (exact per-state split), the
    empirical charge-to-cause attribution for [Monte_carlo]. *)

val by_mechanism : decomposition -> (string option * float) list
(** Contributions grouped by repair mechanism, in first-appearance
    order; [None] collects the fixed-repair modes. *)

val tier_availability : engine -> Tier_model.t -> Availability.t
val tier_annual_downtime : engine -> Tier_model.t -> Duration.t

val service_availability : engine -> Tier_model.t list -> Availability.t
(** Tiers compose in series: the service is up iff every tier is up
    (independence across tiers, as the paper assumes). *)

val service_annual_downtime : engine -> Tier_model.t list -> Duration.t

val job_completion_time_of :
  downtime_fraction:float -> Tier_model.t -> job_size:float -> Duration.t
(** The analytic completion-time formula with the downtime fraction
    supplied by the caller — bitwise identical to
    {!job_completion_time} when the fraction is the engine's own
    [tier_downtime_fraction], which lets the search reuse a cached
    fraction without re-solving. Not meaningful for [Monte_carlo],
    whose completion time is simulated rather than derived from the
    fraction. Raises [Tier_model.Rejected] when the model has no
    throughput. *)

val job_completion_time :
  engine -> Tier_model.t -> job_size:float -> Duration.t
(** Expected completion time of a finite job on a single computation
    tier (paper §4.2): the failure-free compute time divided by tier
    availability and by the loss-window efficiency lw/T_lw, where the
    tier MTBF covers all failure modes of all [n] active resources.
    Without a loss window the whole remaining job is lost per failure.
    For [Monte_carlo] the simulated mean is returned. *)

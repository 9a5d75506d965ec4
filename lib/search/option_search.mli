(** The design-space search of one resource option (paper §4.1), shared
    by the enterprise tier search ({!Tier_search}) and the finite-job
    search ({!Job_search}).

    The search starts from the smallest resource count that can meet
    the requirement and grows the count one resource at a time. At each
    count it enumerates every admissible split into active and spare
    resources, every spare operational mode (when
    [config.explore_spare_modes]) and every mechanism-settings
    combination. A design is priced before it is evaluated, and a
    design strictly costlier than the incumbent is skipped without
    evaluation. A design is evaluated as two floats, its cost and its
    measure; its design record, model and candidate are built only
    when the search keeps it. The search stops when no design at the current count
    can beat the incumbent, or — while nothing feasible has been found
    — when growing the count fails twice in a row to improve the best
    measure. The two kinds of search differ only in what a {!kind}
    supplies: where the count starts and ends, which active counts a
    total admits, and the measure a candidate is ranked by (downtime
    fraction or completion time).

    With a pool of several domains the options, and within an option
    the mechanism-settings combinations, run in parallel; the result is
    bit-identical to the sequential search because candidates are
    ranked under the kind's total order and cross-branch pruning uses
    only sound cost bounds (see {!Aved_parallel.Incumbent}). *)

module Duration = Aved_units.Duration
module Money = Aved_units.Money

type 'c kind = {
  start :
    tier_name:string -> Aved_model.Service.resource_option -> int option;
      (** The first total resource count worth searching for the
          option of tier [tier_name], or [None] when the option can
          never meet the requirement. *)
  limit : Aved_model.Service.resource_option -> start:int -> int;
      (** The last total resource count searched. *)
  actives :
    Aved_model.Service.resource_option ->
    total:int ->
    (Eval_cache.entry -> int list) option;
      (** The admissible active counts at [total] (the rest of [total]
          are spares), per mechanism-settings entry, in enumeration
          order. [None] when no design at [total] is admissible. *)
  demand : float option;
      (** The throughput the tier models are built for. *)
  measure_of :
    Eval_cache.entry -> n_active:int -> n_spare:int -> float -> float;
      (** The measure of the design at the given counts from its
          Engine A downtime fraction. May raise
          {!Aved_avail.Tier_model.Rejected}. *)
  make :
    Aved_model.Design.tier_design ->
    Aved_avail.Tier_model.t ->
    Money.t ->
    float ->
    'c;
      (** A candidate from its design, model, cost and measure. *)
  design : 'c -> Aved_model.Design.tier_design;
  cost : 'c -> Money.t;
  measure : 'c -> float;
      (** What the requirement bounds (lower is better): the downtime
          fraction or the completion time in seconds. *)
  reported : 'c -> Duration.t option * Duration.t option;
      (** The (annual downtime, execution time) a provenance record
          shows for the candidate. *)
  compare : 'c -> 'c -> int;
      (** The search's total order: cost first, then the measure, then
          {!Aved_model.Design.compare_tier}. *)
}

type keep =
  | All  (** Every evaluated candidate, in enumeration order. *)
  | Best_within of float
      (** Only the best candidate whose measure is at most the bound. *)

type 'c batch = {
  candidates : 'c list;
      (** As {!keep} asks. [Best_within] builds a candidate only for a
          design that beats the kept one on (cost, measure), or ties it
          exactly. *)
  least : float;
      (** The least measure over every evaluated candidate. *)
  min_cost : float;
      (** The least cost over every generated design, those pruned by
          the cost cap or rejected by the model included; infinite when
          there is none. *)
}

val with_pool :
  ?pool:Aved_parallel.Pool.t ->
  Search_config.t ->
  (Aved_parallel.Pool.t -> 'a) ->
  'a
(** Run on [pool] when given, otherwise on a fresh pool of
    [config.jobs] domains. *)

val enumerate :
  ?pool:Aved_parallel.Pool.t ->
  Search_config.t ->
  Aved_model.Infrastructure.t ->
  'c kind ->
  tier_name:string ->
  option:Aved_model.Service.resource_option ->
  total:int ->
  keep:keep ->
  ?cost_cap:Money.t ->
  unit ->
  'c batch
(** Every design of the option at exactly [total] resources. Designs
    costing more than [cost_cap] are skipped without evaluation (equal
    cost is kept, so ties still resolve toward the better measure).
    With a pool of several domains, the mechanism-settings
    combinations are fanned out over it. *)

val optimal :
  ?pool:Aved_parallel.Pool.t ->
  Search_config.t ->
  Aved_model.Infrastructure.t ->
  'c kind ->
  bound:float ->
  excess:('c -> Duration.t) ->
  tier:Aved_model.Service.tier ->
  'c option
(** The least candidate under [kind.compare] whose measure is at most
    [bound], over all the tier's options, or [None]. [excess] is how
    far an infeasible candidate overshoots, for its provenance record.
    Each option's search is traced as a ["search.option:<resource>"]
    span. *)

val frontier :
  ?pool:Aved_parallel.Pool.t ->
  ?cost_cap:Money.t ->
  Search_config.t ->
  Aved_model.Infrastructure.t ->
  'c kind ->
  tier:Aved_model.Service.tier ->
  'c list
(** The (cost, measure) Pareto frontier of every design of every option
    at every count from [kind.start] to [kind.limit] that costs at most
    [cost_cap] (default: no cap), by strictly rising cost and strictly
    falling measure; of designs
    with equal cost and measure, the first in enumeration order. Each
    design is evaluated as two floats and fed to a {!Skyline}, one per
    (option, total) task, fanned out over the pool; only the points of
    the merged skyline are built into candidates. The set and its
    order are those of sorting every candidate stably by (cost,
    measure) and keeping each strict improvement of the measure. Counts
    the skyline's insertions in [search.frontier.inserted].

    A point is beaten only by points costing no more, so the capped
    frontier is exactly the prefix of the uncapped one up to
    [cost_cap], the same candidates in the same order. A design
    costing more than the cap is priced but not evaluated, and counted
    in [search.candidates.outside_window]. An option's totals stop at
    the first one whose cheapest design costs more than the cap: an
    option's cheapest design never gets cheaper as its total grows,
    the property {!optimal}'s stop rule rests on too. *)

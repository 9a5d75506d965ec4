(** Per-tier design-space search for enterprise services (paper §4.1).

    For each resource option of a tier, the search starts from the
    minimum number of resources that meets the performance requirement
    with no failures and grows the total count one resource at a time.
    At each count it enumerates every split into active and spare
    resources, every spare operational-mode assignment, and every
    availability-mechanism configuration; costs are evaluated first and
    designs strictly costlier than the incumbent are rejected without
    evaluating availability. The search for an option stops when every
    design at the current count costs at least as much as the
    incumbent, or — when no feasible design has been found — once
    growing the count stops improving the best achievable downtime.

    With [config.jobs > 1] the resource options (and, within an
    option, the mechanism-settings combinations) are searched on a
    domain pool; the result is bit-identical to the sequential search
    because candidates are ranked under the total order
    {!Candidate.compare_total} and cross-branch pruning uses only
    sound cost bounds (see {!Aved_parallel.Incumbent}). *)

module Duration = Aved_units.Duration
module Money = Aved_units.Money

val settings_product :
  Aved_model.Infrastructure.t ->
  Aved_model.Resource.t ->
  (string * Aved_model.Mechanism.setting) list list
(** Every combination of settings of the mechanisms the resource
    references. [[[]]] when it references none. *)

val enumerate_total :
  Search_config.t ->
  Aved_model.Infrastructure.t ->
  tier_name:string ->
  option:Aved_model.Service.resource_option ->
  demand:float ->
  total:int ->
  ?cost_cap:Money.t ->
  unit ->
  Candidate.t list
(** All evaluated candidates for one resource option using exactly
    [total] resources. Designs whose cost exceeds [cost_cap] are
    skipped without availability evaluation (equal cost is kept, so
    ties can still resolve toward lower downtime). Respects the config
    caps (spares, extras, spare modes). *)

val option_minimum :
  option:Aved_model.Service.resource_option ->
  settings:(string * Aved_model.Mechanism.setting) list list ->
  demand:float ->
  int option
(** The smallest resource count at which the option can meet [demand]
    under at least one mechanism configuration. *)

val optimal :
  ?pool:Aved_parallel.Pool.t ->
  Search_config.t ->
  Aved_model.Infrastructure.t ->
  tier:Aved_model.Service.tier ->
  demand:float ->
  max_downtime:Duration.t ->
  Candidate.t option
(** The minimum-cost design of the tier meeting both requirements
    (ties broken toward lower downtime, then
    {!Aved_model.Design.compare_tier}), or [None]. Runs on [pool] when
    given, otherwise on a fresh pool of [config.jobs] domains. *)

val frontier :
  ?pool:Aved_parallel.Pool.t ->
  Search_config.t ->
  Aved_model.Infrastructure.t ->
  tier:Aved_model.Service.tier ->
  demand:float ->
  Candidate.t list
(** The (cost, downtime) Pareto frontier of the tier at the given
    demand, over all options, counts within the config caps, splits,
    spare modes and mechanism settings. Sorted by increasing cost.
    Runs on [pool] when given, otherwise on a fresh pool of
    [config.jobs] domains. *)

(** Per-tier design-space search for enterprise services (paper §4.1):
    the enterprise kind of the one option search, {!Option_search}.

    Here the requirement is a throughput [demand] and an annual
    downtime budget. An option's counts start at the fewest resources
    that meet [demand] under some mechanism settings and reach at most
    [max_extra_resources + max_spares] further. Candidates are ranked
    by cost, then downtime, then {!Aved_model.Design.compare_tier}. *)

module Duration = Aved_units.Duration
module Money = Aved_units.Money

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

val kind :
  Search_config.t ->
  Aved_model.Infrastructure.t ->
  demand:float ->
  Candidate.t Option_search.kind
(** The enterprise kind of the option search at [demand], which
    {!optimal} and {!frontier} run. *)

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
  ?cost_cap:Money.t ->
  Search_config.t ->
  Aved_model.Infrastructure.t ->
  tier:Aved_model.Service.tier ->
  demand:float ->
  Candidate.t list
(** The (cost, downtime) Pareto frontier of the tier at the given
    demand, over all options, counts within the config caps, splits,
    spare modes and mechanism settings, by strictly increasing cost and
    strictly decreasing downtime: {!Option_search.frontier}'s skyline,
    which builds candidates only for these points. With [cost_cap], the
    prefix of that frontier up to the cap, searched without evaluating
    a design that costs more; only uncapped frontiers count in
    [search.frontiers.computed] and [search.frontier.size]. Runs on
    [pool] when given, otherwise on a fresh pool of [config.jobs]
    domains. *)

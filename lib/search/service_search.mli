(** Whole-service design (the outer loop of paper §4.1).

    Each tier is first designed in isolation against the full
    requirement; if the series composition of the individually optimal
    tiers already meets the service downtime budget, that combination is
    returned. Otherwise per-tier (cost, downtime) Pareto frontiers are
    computed and the exact minimum-cost combination whose series
    downtime fits the budget is selected — a deterministic realization
    of the paper's "incrementally more aggressive per-tier
    requirements" refinement.

    Phase 2 searches only the cost window that can hold the answer
    when no provenance trail is bound. A point of a feasible
    combination meets the budget alone, since the series downtime is
    at least each tier's, so it costs at least its tier's phase-1
    optimum [lo_i]; in a combination costing at most [C], tier [i]'s
    point then costs at most [C − Σ_{j≠i} lo_j]. Starting at
    [C = 1.05·Σ lo_i], each round caps every tier's frontier there
    (plus a few ulps of slack for the rounding of these sums and of
    the answer's), combines the capped frontiers, and accepts the
    answer when its cost, summed as {!combine_frontiers} sums it, is at
    most [C]; otherwise [C] doubles, once. After that second round the
    full frontiers decide. The window is exact: a capped frontier is the
    prefix of the full one up to the cap (a point is beaten only by
    points costing no more), so the combination sees the same points
    at the same indices and breaks ties the same way. One rounding case
    falls back to the full frontiers: a point of a feasible combination
    passes [1 − (1 − d_i) ≤ budget] in floats but need not pass
    [d_i ≤ budget], phase 1's test, so a capped frontier holding a
    point cheaper than [lo_i] that passes the former leaves [lo_i] no
    bound. With a trail bound ([explain]), phase 2 combines the full
    frontiers, whose cheaper points its budget-swap records cite. The
    rounds are counted in [search.service.phase2.rounds].

    The combination ({!combine_frontiers}) is output-sensitive: it
    walks the product of the frontiers depth first, tier by tier, and
    uses the order every frontier has (cost strictly rising, downtime
    strictly falling) to scan only the part of each tier that can
    matter. Three rules, none of which drops a combination that could
    win:
    - {b skip the infeasible prefix}: whether the budget still holds
      with the lowest-downtime points of the remaining tiers is
      monotone along a tier (float rounding is monotone), so the
      infeasible points form a prefix, found by bisection;
    - {b break on cost}: the cheapest completion of a point (running
      cost plus the cheapest point of every remaining tier, summed in
      the same left-to-right order as a complete combination's cost,
      so rounding never lifts it above any combination below) only
      rises along a tier, while the incumbent it is compared with only
      falls; the tier stops at the first point whose completion costs
      strictly more than the incumbent;
    - {b last tier}: only its first feasible point is tested — it is
      the cheapest completion and, on an equal float sum, the one with
      the smallest index.

    All phases run on one domain pool of [config.jobs] domains: tier
    searches fan out over tiers (and within them over options and
    mechanism settings), and the frontier combination fans out over the
    first tier's frontier points. Results are bit-identical to
    [jobs = 1]: combinations are ranked by cost then lexicographic
    frontier-index path, and the shared cost incumbent never prunes an
    equal-cost combination. *)

module Duration = Aved_units.Duration
module Money = Aved_units.Money

type tier_outcome = {
  candidate : Candidate.t;
  tier : Aved_model.Service.tier;
}

type report = {
  design : Aved_model.Design.t;
  cost : Money.t;
  downtime : Duration.t option;
      (** Predicted annual service downtime (enterprise). *)
  execution_time : Duration.t option;
      (** Predicted job completion time (finite jobs). *)
}

val design :
  ?pool:Aved_parallel.Pool.t ->
  Search_config.t ->
  Aved_model.Infrastructure.t ->
  Aved_model.Service.t ->
  Aved_model.Requirements.t ->
  report option
(** The minimum-cost design meeting the requirements, or [None] when
    the design space holds no feasible design. Raises
    [Invalid_argument] when requirements and service type disagree
    (e.g. a job-time requirement for a service without [job_size], or a
    finite job with several tiers). Runs on [pool] when given — a
    long-lived caller (the server) passes one pool so repeated designs
    do not pay domain spawn/join per request — otherwise on a fresh
    pool of [config.jobs] domains. *)

val combine_frontiers :
  ?pool:Aved_parallel.Pool.t ->
  Candidate.t list list ->
  budget_fraction:float ->
  Candidate.t list option
(** [combine_frontiers frontiers ~budget_fraction] is one point per
    frontier (in frontier order) whose summed cost is the least among
    the combinations whose {!series_downtime_fraction} is at most
    [budget_fraction]; of equal-cost combinations, the one whose
    frontier-index path is lexicographically smallest. [None] when no
    combination fits; [Some []] for no frontiers and a non-negative
    budget. The answer does not depend on [pool] or its size.

    Precondition: every frontier is sorted by strictly increasing cost
    and strictly decreasing downtime fraction, every fraction between
    0 and 1 — the order {!Tier_search.frontier} returns. On other input
    the answer is unspecified.

    Counts the partial combinations it checks in
    [search.service.combine.visited] and the complete ones it tests in
    [search.service.combos_tested]. *)

val series_downtime_fraction : Candidate.t list -> float
(** Service downtime fraction of a tier combination (series
    composition, independent tiers). *)

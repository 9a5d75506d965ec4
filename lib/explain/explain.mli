(** Decision provenance reports (the [aved explain] subsystem).

    Assembles, for a chosen design, {e why this one}: the per-failure-mode
    downtime attribution computed by the evaluation engines
    ({!Aved_avail.Evaluate.tier_downtime_decomposition}), and {e why not
    the others}: the top runner-up candidates recovered from the search's
    {!Aved_search.Provenance} trail with their typed fates and their
    cost/downtime deltas against the winner. Renders both as human output
    and as JSON ([aved explain --json]); also annotates the cost steps of
    an availability–cost frontier ([aved frontier --explain]). *)

module Duration = Aved_units.Duration
module Money = Aved_units.Money
module Availability = Aved_reliability.Availability
module Design = Aved_model.Design
module Tier_model = Aved_avail.Tier_model
module Evaluate = Aved_avail.Evaluate
module Provenance = Aved_search.Provenance
module Candidate = Aved_search.Candidate

type runner_up = {
  record : Provenance.record;  (** The candidate's latest trail record. *)
  cost_delta : float;
      (** Runner-up cost minus winner cost, currency units per year;
          negative for candidates cheaper than the winner (those lost on
          feasibility, not on cost). *)
  downtime_delta : float option;
      (** Runner-up annual downtime minus the winner's, min/yr, when the
          runner-up was evaluated by an enterprise search. *)
  execution_time_delta : float option;
      (** Runner-up expected job time minus the winner's, seconds, when
          evaluated by a job search. *)
}

type tier_explanation = {
  tier_name : string;
  design : Design.tier_design;
  cost : Money.t;
  decomposition : Evaluate.decomposition;
  by_mechanism : (string option * float) list;
      (** {!Evaluate.by_mechanism} of the decomposition. *)
  mean_failed_resources : float option;
      (** Stationary mean of the failed-resource count; only the
          analytic engine exposes it. *)
  runner_ups : runner_up list;
  considered : int;
      (** Distinct designs surviving in this tier's trail ring
          (including the winner, when recorded). *)
}

type t = {
  service_name : string;
  engine : string;  (** {!engine_label} of the evaluating engine. *)
  cost : Money.t;
  downtime : Duration.t option;
  execution_time : Duration.t option;
  tiers : tier_explanation list;
  noted : int;  (** {!Provenance.noted} of the trail, 0 without one. *)
  dropped : int;  (** {!Provenance.dropped} of the trail. *)
}

val engine_label : Evaluate.engine -> string
(** ["analytic"], ["exact"], or ["monte-carlo"]. *)

val explain_tier :
  ?top:int ->
  ?trail:Provenance.t ->
  engine:Evaluate.engine ->
  design:Design.tier_design ->
  cost:Money.t ->
  model:Tier_model.t ->
  unit ->
  tier_explanation
(** Decompose the tier's downtime through [engine] and, when a [trail]
    is given, recover its top-[top] (default 5) runner-ups: the trail's
    records for this tier are deduplicated by design keeping each
    design's latest record (its final fate), the winner itself is
    dropped, and the rest are ordered by (cost, downtime or execution
    time, description) — a deterministic order even though parallel
    searches append trail records in schedule-dependent order. *)

val winner_downtime : tier_explanation -> Duration.t
(** Annual downtime of the explained tier ([decomposition.total]). *)

val fate_sentence : Provenance.record -> string
(** Human rendering of the record's fate, e.g.
    ["dominated by tier db: ..."], ["over downtime budget by 116.880
    min/yr"]. Takes the whole record so a budget overrun can be worded
    (and unit-ed) as downtime or as execution time, whichever the record
    carries. *)

val pp : Format.formatter -> t -> unit
(** The human report: winner with per-failure-mode breakdown (min/yr,
    share, nines) and per-mechanism grouping, then runner-ups with
    fates and deltas. *)

val to_json : t -> Json.t
(** Machine form. Downtime fractions are emitted verbatim
    (round-tripping floats) so consumers can check that per-class
    contributions sum to the total within 1e-9. *)

val annotate_step : prev:Candidate.t -> next:Candidate.t -> string
(** One-line narration of a frontier step: what changed between the two
    adjacent frontier designs (resource, counts, mechanism settings) and
    what the extra spend buys, e.g.
    ["n_spare 1->2: +1300/yr buys 12.614->3.204 min/yr (4.6->5.2 nines)"].
    The previous design is the cheapest of its shape still over the
    downtime reached by [next]. *)

(** The Aved engine: the top-level entry points of the library.

    Takes a design-space model (infrastructure + service) and service
    requirements, searches the design space, and returns the
    minimum-cost design that satisfies the requirements together with
    its predicted cost and availability (paper Fig. 1). *)

module Duration = Aved_units.Duration

type report = Aved_search.Service_search.report = {
  design : Aved_model.Design.t;
  cost : Aved_units.Money.t;
  downtime : Duration.t option;
  execution_time : Duration.t option;
}

val design :
  ?config:Aved_search.Search_config.t ->
  ?jobs:int ->
  ?pool:Aved_parallel.Pool.t ->
  Aved_model.Infrastructure.t ->
  Aved_model.Service.t ->
  Aved_model.Requirements.t ->
  report option
(** Minimum-cost design meeting the requirements, or [None]. [jobs]
    overrides [config.jobs] (number of search domains; the result is
    bit-identical for every value). [pool] reuses an existing domain
    pool instead of spawning one per call — the serving daemon passes
    its long-lived pool here. *)

val design_from_files :
  ?config:Aved_search.Search_config.t ->
  ?jobs:int ->
  infra_file:string ->
  service_file:string ->
  Aved_model.Requirements.t ->
  report option
(** Parses and cross-validates the two specification files first.
    Raises {!Aved_spec.Spec.Error} on malformed specifications. *)

val evaluate_design :
  Aved_model.Infrastructure.t ->
  Aved_model.Service.t ->
  Aved_model.Design.t ->
  demand:float option ->
  Aved_avail.Tier_model.t list
(** Re-evaluates a resolved design (e.g. one proposed by hand): builds
    every tier's availability model. Raises [Invalid_argument] when the
    design references tiers or resources the service does not offer. *)

type cross_check = { analytic : float; exact : float option; simulated : float }
(** One tier model's downtime fraction from each availability engine. *)

val cross_check : Aved_avail.Tier_model.t -> cross_check
(** The three engines on one tier model, as [aved validate] runs them:
    Engine A; Engine B with at most 50,000 states ([None] for a larger
    chain); Engine C with 16 replications of 30 simulated years from
    seed 42. *)

val explain :
  ?top:int ->
  ?trail:Aved_search.Provenance.t ->
  config:Aved_search.Search_config.t ->
  Aved_model.Infrastructure.t ->
  Aved_model.Service.t ->
  Aved_model.Requirements.t ->
  report ->
  Aved_explain.Explain.t
(** Decision-provenance explanation of a finished design run:
    re-evaluates the chosen design's tier models, decomposes their
    downtime through Engine A (the search's engine) and recovers the
    top-[top] runner-ups from [trail] when one was installed around the
    search. Shared by the CLI and the server so both attribute
    identically. [config] is not read: the search has one engine. *)

val pp_report : Format.formatter -> report -> unit

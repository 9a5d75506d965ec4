(** Design-space search for finite jobs (paper §2, §5.2): the
    finite-job kind of the one option search, {!Option_search}.

    The only requirement is the expected job completion time. The search
    explores resource type, number of (static) active resources, spares,
    spare modes, and mechanism parameters — for the paper's scientific
    example: the checkpoint interval and the checkpoint storage
    location. Counts whose failure-free completion time misses the
    bound are skipped without evaluation. Candidates are ranked by
    cost, then execution time, then {!Aved_model.Design.compare_tier}. *)

module Duration = Aved_units.Duration
module Money = Aved_units.Money

type candidate = {
  design : Aved_model.Design.tier_design;
  model : Aved_avail.Tier_model.t;
  cost : Money.t;  (** Annual cost of the infrastructure. *)
  execution_time : Duration.t;  (** Expected job completion time. *)
}

val evaluate :
  Aved_model.Infrastructure.t ->
  option:Aved_model.Service.resource_option ->
  job_size:float ->
  Aved_model.Design.tier_design ->
  candidate
(** Evaluate one resolved design with Engine A. *)

val optimal :
  ?pool:Aved_parallel.Pool.t ->
  Search_config.t ->
  Aved_model.Infrastructure.t ->
  tier:Aved_model.Service.tier ->
  job_size:float ->
  max_time:Duration.t ->
  candidate option
(** Minimum-cost design whose expected completion time meets the bound
    (ties broken toward faster completion), or [None]. *)

val pp_candidate : Format.formatter -> candidate -> unit

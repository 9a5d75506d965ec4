(** The availability model of one tier (paper §4.2).

    Aved evaluates a candidate design by translating each tier into the
    parameter set the availability engines consume:

    - [n], the number of active resources;
    - [m], the minimum active resources for the tier to be up — equal to
      [n] for static sizing or tier failure scope, otherwise derived
      from the performance requirement;
    - [s], the number of spares;
    - per failure mode [i]: the failure rate, the full repair time
      [MTTR_i] (detection + repair + dependent restarts) and the
      failover time (detection + reconfiguration + startup of the
      spare's inactive components), with failover considered only when
      it beats repair. *)

module Duration = Aved_units.Duration

exception Rejected of string
(** A design that the model layer rejects on its merits — it cannot
    deliver the required throughput with the resources it has. Distinct
    from [Invalid_argument], which is reserved for malformed inputs
    (dangling references, missing mechanism settings): the search counts
    [Rejected] candidates and lets programming errors propagate. *)

type failure_class = {
  label : string;  (** e.g. ["machineA/hard"]. *)
  rate : float;  (** Failures per second of one active resource. *)
  mttr : Duration.t;
      (** Detect time + repair time + restart of the affected
          components. *)
  failover_time : Duration.t;
      (** Detect time + resource reconfiguration + startup of the
          components that are inactive in a spare. *)
  failover_considered : bool;
      (** Per the paper: only when [mttr > failover_time] and the design
          has spares. *)
  repair_mechanism : string option;
      (** Name of the availability mechanism the mode delegates repair
          to (e.g. a maintenance contract), [None] for a fixed repair
          time. Purely descriptive — engines ignore it; the explain
          layer groups downtime contributions by it. *)
}

type t = {
  tier_name : string;
  n_active : int;
  n_min : int;
  n_spare : int;
  failure_scope : Aved_model.Service.failure_scope;
  classes : failure_class list;
  loss_window : Duration.t option;
      (** Work lost per failure event, when a component defines one
          (directly or through a mechanism such as checkpointing). *)
  effective_performance : float;
      (** Deliverable throughput with [n_active] resources, after
          dividing nominal performance by all mechanism slowdowns
          (work units per hour). *)
}

val total_failure_rate : t -> float
(** Σ rates over classes — failures per second of one active resource. *)

val resource_mtbf : t -> Duration.t
(** Mean time between failures of one active resource. *)

val tier_mtbf : t -> Duration.t
(** Mean time between failures among the [n_active] resources. *)

val mean_repair_time : t -> Duration.t
(** Failure-frequency-weighted mean of the class MTTRs. *)

val build :
  infra:Aved_model.Infrastructure.t ->
  option:Aved_model.Service.resource_option ->
  design:Aved_model.Design.tier_design ->
  demand:float option ->
  t
(** Derives the model. [demand] is the tier's throughput requirement
    (needed to compute [m] under dynamic sizing; [None] only for finite
    jobs, where [m = n]). Raises {!Rejected} when the design does not
    deliver [demand] with all [n_active] resources or when [m] cannot be
    established — genuine model rejections the search counts — and
    [Invalid_argument] on malformed inputs (dangling references, missing
    mechanism settings). *)

val pp : Format.formatter -> t -> unit

val effective_performance_of :
  option:Aved_model.Service.resource_option ->
  settings:(string * Aved_model.Mechanism.setting) list ->
  n:int ->
  float
(** Nominal performance at [n] active resources divided by the product
    of the mechanism slowdowns under [settings] (work units per hour).
    Raises [Invalid_argument] when a mechanism with declared performance
    impact has no setting. *)

val minimum_actives :
  option:Aved_model.Service.resource_option ->
  settings:(string * Aved_model.Mechanism.setting) list ->
  demand:float ->
  int option
(** The smallest admissible member of the option's [nActive] range whose
    effective performance meets [demand]. *)

(** A tier model factored for the search's inner loop. For one (resource
    option, mechanism settings, spare-active set), the failure classes,
    loss window, effective-performance curve and per-resource costs are
    all independent of the candidate's resource counts; {!Skeleton.make}
    derives them once and {!Skeleton.instantiate} replays {!build}'s
    remaining arithmetic per (n, s). The instantiated model — and any
    {!Rejected} it raises — is bitwise identical to a fresh {!build} of
    the corresponding design. *)
module Skeleton : sig
  type tier = t
  type t

  val make :
    infra:Aved_model.Infrastructure.t ->
    tier_name:string ->
    option:Aved_model.Service.resource_option ->
    settings:(string * Aved_model.Mechanism.setting) list ->
    spare_active:string list ->
    t
  (** One-time derivation. Raises [Invalid_argument] on malformed inputs
      (dangling references, missing mechanism settings) — the same cases
      where {!build} would. *)

  val effective_performance : t -> n:int -> float
  (** Cached {!effective_performance_of} at [n] active resources. *)

  val minimum_actives : t -> demand:float -> int option
  (** As the top-level {!minimum_actives}, against the memoized curve. *)

  val tier_cost : t -> n_active:int -> n_spare:int -> Aved_units.Money.t
  (** Bitwise identical to [Design.tier_cost] of the corresponding
      design. *)

  val classes : t -> spares:bool -> failure_class list
  (** The failure classes an instantiated model carries when it has
      (resp. has not) spares. Together with {!failure_scope} and the
      counts (n, m, s) these determine the deterministic engines'
      downtime fraction completely, so callers may share downtime
      caches across skeletons whose classes and scope are equal. *)

  val failure_scope : t -> Aved_model.Service.failure_scope

  val instantiate : t -> n_active:int -> n_spare:int -> demand:float option -> tier
  (** The tier model at the given resource counts. Raises {!Rejected}
      exactly as {!build} does (same messages, same precedence). *)
end

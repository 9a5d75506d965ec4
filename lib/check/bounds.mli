(** Whole-domain downtime bounds per (tier, resource option).

    An {!analyzer} replays {!Aved_avail}'s analytic availability formula
    in outward-rounded interval arithmetic, with every mechanism setting
    left free: the returned interval brackets the downtime fraction of
    every concrete design with the same resource counts, across the
    whole mechanism-settings grid. `aved check --bounds` uses the region
    analysis to certify a budget infeasible or trivially satisfiable
    before any search runs. The search does not consult it.

    The analysis assumes spare resources are inactive (the search
    default). Callers exploring spare-active modes must not consult
    it. *)

type analyzer

val analyzer :
  infra:Aved_model.Infrastructure.t ->
  tier_name:string ->
  option:Aved_model.Service.resource_option ->
  analyzer option
(** [None] when the option is outside the analyzable fragment: unknown
    resource, or a repair mechanism with no mttr under some setting
    (cases where the concrete model build raises). *)

val tier_name : analyzer -> string
val resource_name : analyzer -> string

val downtime_interval :
  analyzer -> n_active:int -> n_min:int -> n_spare:int -> Interval.t
(** Bounds the concrete [downtime_fraction] of every design with these
    counts, over all mechanism settings. Cached per analyzer. *)

val mttr_corner_settings :
  infra:Aved_model.Infrastructure.t ->
  resource:Aved_model.Resource.t ->
  (string * Aved_model.Mechanism.setting) list
  * (string * Aved_model.Mechanism.setting) list
(** The (interval-minimal, interval-maximal) mechanism settings by mttr,
    per mechanism independently; mechanisms without an mttr keep their
    first setting in both corners. Drives the CTMC corner audit. *)

(** {1 Region analysis for [aved check --bounds]} *)

type verdict =
  | Infeasible of Certificate.t
      (** Every design the search could evaluate provably exceeds the
          budget. *)
  | Trivially_satisfiable of Certificate.t
      (** Every design the search could evaluate provably meets the
          budget. *)
  | Inconclusive

type report = {
  rp_tier : string;
  rp_resource : string;
  rp_bounds : Interval.t option;
      (** Downtime-fraction hull over the whole search region; [None]
          when the option is unanalyzable. *)
  rp_region : string;  (** Printable description of the region swept. *)
  rp_note : string option;  (** Why unanalyzable, when bounds are [None]. *)
  rp_verdict : verdict option;
      (** [None] when no budget was given or the option is
          unanalyzable. *)
}

val analyze_option :
  infra:Aved_model.Infrastructure.t ->
  tier_name:string ->
  option:Aved_model.Service.resource_option ->
  demand:float option ->
  budget_fraction:float option ->
  ?max_extra:int ->
  ?max_spares:int ->
  unit ->
  report
(** Sweeps the conservative superset of (n, n_min, n_spare) triples the
    design search enumerates — [max_extra] and [max_spares] must match
    the search configuration (defaults mirror it) — and renders a
    verdict against [budget_fraction] (downtime fraction of a year).
    [demand] is the tier's throughput requirement; required for
    dynamically sized options with resource failure scope. *)

(** Domain-local evaluation cache for the search's inner loop.

    The enumeration in {!Option_search} revisits the
    same (resource option, mechanism settings, spare-active set)
    combination at many resource counts. Everything that does not
    depend on the counts — failure classes, loss window, the effective
    performance curve, per-resource costs — is derived once per
    combination via {!Aved_avail.Tier_model.Skeleton} and kept in
    domain-local storage; Engine A downtime fractions are additionally
    cached per (n, m, s) under one packed integer key. This is the search's
    only downtime cache: no lock, no process-wide table. Its reuse is
    counted by the telemetry counters [search.eval.downtime.fresh] and
    [search.eval.downtime.reused].

    Everything served from the cache is bitwise identical to the
    uncached computation (same operations in the same order), so search
    results — including [Rejected] provenance messages — are unchanged.

    Caches auto-invalidate when a different infrastructure value (by
    physical identity) is presented. *)

type entry

val entry :
  infra:Aved_model.Infrastructure.t ->
  tier_name:string ->
  option:Aved_model.Service.resource_option ->
  settings:(string * Aved_model.Mechanism.setting) list ->
  spare_active:string list ->
  entry
(** Get-or-create the calling domain's entry for the combination. *)

val settings_product :
  Aved_model.Infrastructure.t ->
  Aved_model.Resource.t ->
  (string * Aved_model.Mechanism.setting) list list
(** Every combination of settings of the mechanisms the resource
    references. [[[]]] when it references none. *)

val settings_entries :
  infra:Aved_model.Infrastructure.t ->
  tier_name:string ->
  option:Aved_model.Service.resource_option ->
  ((string * Aved_model.Mechanism.setting) list * entry) list
(** {!settings_product} of the option's resource paired with each
    combination's no-spare entry, memoized per domain so the totals
    loop of a search pays one small lookup per enumeration instead of
    one structural-key lookup per combination. *)

val spare_entries : entry -> (string list * entry) list
(** The spare-operational-mode fan-out of the entry's combination in
    [Resource.downward_closed_subsets] order — the empty mode maps to
    the entry itself — memoized on the entry. The fan-out is derived
    from the infrastructure the entry was made under, even when the
    calling domain's cache has since moved to another one (the
    domain's cache then moves back, as {!entry} would). *)

val skeleton : entry -> Aved_avail.Tier_model.Skeleton.t

val minimum_actives : entry -> demand:float -> int option
(** As {!Aved_avail.Tier_model.minimum_actives}, memoized. *)

val tier_cost : entry -> n_active:int -> n_spare:int -> Aved_units.Money.t
(** Bitwise identical to [Design.tier_cost] of the corresponding
    design. *)

val model :
  entry ->
  n_active:int ->
  n_spare:int ->
  demand:float option ->
  Aved_avail.Tier_model.t
(** Bitwise identical to [Tier_model.build] of the corresponding design,
    including raising the same [Rejected] exceptions. *)

val downtime :
  entry -> n_active:int -> n_spare:int -> demand:float option -> float
(** Engine A's downtime fraction of the model {!model} would build at
    the same arguments, raising the same [Rejected]. Cached per
    (n_active, n_min, n_spare) — the full parameter set of that engine
    beyond the entry's classes and scope — under one packed int key,
    so a hit builds no model and allocates nothing. Engine A is the one
    engine the search uses; Engines B and C validate finished designs
    outside it. Raises [Invalid_argument] for a count of [2^20] or
    more. *)

val reset : unit -> unit
(** Drop the calling domain's cache (tests and benchmarks). *)

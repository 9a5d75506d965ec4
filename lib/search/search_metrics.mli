(** Shared telemetry handles of the tier and job searches.

    The enumeration loops count candidates in local ints and {!flush}
    them in one batch per (settings, total) enumeration — the hot loops
    carry no per-design telemetry work, and nothing here ever changes a
    search result. *)

module Telemetry = Aved_telemetry.Telemetry

val candidates_generated : Telemetry.Counter.h
(** Designs constructed (costed) by the enumeration. *)

val candidates_evaluated : Telemetry.Counter.h
(** Designs whose availability (or job time) was actually evaluated. *)

val candidates_pruned : Telemetry.Counter.h
(** Designs skipped by the incumbent cost cap without evaluation. *)

val candidates_windowed : Telemetry.Counter.h
(** Designs a capped frontier priced above its cost cap and skipped
    without evaluation: outside the cost window phase 2 of the
    enterprise search asks for. *)

val candidates_rejected : Telemetry.Counter.h
(** Designs the model builder rejected as structurally invalid. *)

val options_searched : Telemetry.Counter.h
val totals_scanned : Telemetry.Counter.h

val incumbent_cap_tightened : Telemetry.Counter.h
(** Iterations whose cost cap was tightened below the branch-local best
    by the shared cross-domain incumbent. *)

val frontiers_computed : Telemetry.Counter.h
val frontier_size : Telemetry.Histogram.h

val flush :
  tier_name:string ->
  generated:int ->
  evaluated:int ->
  pruned:int ->
  windowed:int ->
  rejected:int ->
  unit
(** Add one enumeration batch to the global counters and their
    per-tier ["search.candidates.<tag>[<tier>]"] variants. A no-op
    when telemetry is disabled. *)

val observe_frontier : int -> unit
(** Record one computed frontier and its size. *)

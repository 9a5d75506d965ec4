(** Engine B: exact multi-mode CTMC.

    Unlike Engine A, which aggregates all failure modes into a single
    repair rate, this engine tracks the number of failed resources per
    failure class — state (c₁, …, c_j), Σcᵢ ≤ N — so each class repairs
    at its own rate 1/MTTRᵢ. The state space is C(N+j, j); the engine is
    exponential in the class count and exists to validate Engine A on
    small configurations, not to run inside the search loop.

    Classes with zero MTTR never occupy the chain (their repairs are
    instantaneous) and contribute only transient outages. Failover and
    restart transients use the same rate × outage accounting as
    Engine A, evaluated state by state. *)

val num_states : Tier_model.t -> int
(** Size of the state space this model would need. *)

val chain : ?max_states:int -> Tier_model.t -> Aved_markov.Ctmc.t
(** The multi-mode CTMC itself, without solving it — the static checker
    audits its structure via {!Aved_markov.Ctmc.well_formedness}. State
    0 is the all-up state. Raises [Invalid_argument] when the state
    space exceeds [max_states] (default 20000). *)

val downtime_fraction : ?max_states:int -> Tier_model.t -> float
(** Raises [Invalid_argument] when the state space exceeds
    [max_states] (default 20000). *)

val downtime_by_class :
  ?max_states:int -> Tier_model.t -> (string * float) list
(** Attribution of {!downtime_fraction} to the failure classes, in
    model order, from the same stationary solve. Down-state mass π(s)
    is split over the classes with failed resources in [s] in
    proportion to their failed counts — exact, unlike Engine A's
    first-order split — and transients are per class by construction.
    Sums to {!downtime_fraction} (up to the cap rescale). *)

val availability :
  ?max_states:int -> Tier_model.t -> Aved_reliability.Availability.t

val annual_downtime : ?max_states:int -> Tier_model.t -> Aved_units.Duration.t

(** {2 Incremental solving}

    The transition structure of the multi-mode chain depends only on the
    class count and the total resource count, so the engine caches the
    state enumeration and compiled sparse chain per (j, N) in
    domain-local storage. A model that reuses a cached shape only
    rewrites rates in place and re-solves ({!Aved_markov.Ctmc.Solver}).
    Up to 2048 states that re-solve is an elimination, so a model's
    answer is bitwise the same whichever models the domain solved
    before. The telemetry counters [avail.exact.solve.fresh] (a solve
    that built and compiled a new state space) and
    [avail.exact.solve.incremental] (a solve that reused a cached
    skeleton) tell the two apart. *)

val reset_solver_cache : unit -> unit
(** Drops the calling domain's skeleton cache — the differential tests
    use it to compare incremental against from-scratch solves. *)

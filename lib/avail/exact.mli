(** Engine B: the exact multi-mode chain, in closed form.

    Unlike Engine A, which folds all failure modes into one repair rate,
    this engine tracks the number of failed resources per failure class
    — state (f₁, …, f_j), Σfᵢ ≤ N — so each class repairs at its own rate
    1/MTTRᵢ. That chain is a closed product-form network, so its
    stationary law is computed state by state without a solve:

    π(f) ∝ Π_{k=0}^{F−1} min(n_active, N − k) · Π_c ρ_c^{f_c} / f_c!

    with ρ_c = λ_c·MTTR_c and F = Σ f_c. Detailed balance holds on
    every edge — π(f + e_c)·(f_c + 1)/MTTR_c = π(f)·min(n_active, N − F)·λ_c
    — which proves it stationary. Summed over the states of each level
    F it is Engine A's birth–death law, so the two engines agree to
    rounding; Engine B is an independent derivation of Engine A's level
    recurrence and of the by-class split. The state space has C(N+j, j)
    states, and the cost is linear in it.

    Classes with zero MTTR never occupy the chain (their repairs are
    instantaneous) and contribute only transient outages. Failover and
    restart transients use the same rate × outage accounting as
    Engine A, evaluated state by state. *)

val num_states : Tier_model.t -> int
(** Size of the state space this model would need. *)

val chain : ?max_states:int -> Tier_model.t -> Aved_markov.Ctmc.t
(** The multi-mode CTMC itself, without solving it — the static checker
    audits its structure via {!Aved_markov.Ctmc.well_formedness}, and
    the tests solve it to check {!stationary}. State 0 is the all-up
    state. Raises [Invalid_argument] when the state space exceeds
    [max_states] (default 20000). *)

val stationary : ?max_states:int -> Tier_model.t -> float array
(** The product-form stationary law, in {!chain}'s state order. Raises
    [Invalid_argument] when the state space exceeds [max_states]
    (default 20000). *)

val downtime_fraction : ?max_states:int -> Tier_model.t -> float
(** Raises [Invalid_argument] when the state space exceeds
    [max_states] (default 20000). *)

val downtime_by_class :
  ?max_states:int -> Tier_model.t -> (string * float) list
(** Attribution of {!downtime_fraction} to the failure classes, in
    model order, from the same stationary law. Down-state mass π(s)
    is split over the classes with failed resources in [s] in
    proportion to their failed counts — exact, unlike Engine A's
    first-order split — and transients are per class by construction.
    Sums to {!downtime_fraction} (up to the cap rescale). *)

val availability :
  ?max_states:int -> Tier_model.t -> Aved_reliability.Availability.t

val annual_downtime : ?max_states:int -> Tier_model.t -> Aved_units.Duration.t

val reset_solver_cache : unit -> unit
(** Does nothing. Engine B keeps no per-domain solver state since it
    computes its stationary law in closed form; the function remains
    for callers written when it emptied a skeleton cache. *)

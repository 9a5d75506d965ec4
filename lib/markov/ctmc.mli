(** Continuous-time Markov chains.

    This module stands in for the external availability engines the paper
    interfaces with (Avanto, Mobius, Sharpe): an availability model is
    translated into a CTMC whose stationary distribution yields expected
    annual uptime and downtime.

    Stationary analysis compiles the chain into a compressed sparse-row
    form ({!Sparse}) once per solve, runs a structural ergodicity check,
    and picks a backend by structure: elimination for every chain of at
    most 2048 states — banded GTH when the transition structure is
    narrow, dense GTH otherwise, with bitwise identical results — and
    uniformized power iteration only above that. Elimination is exact to
    rounding whatever the stiffness of the chain; the 2048-state cap
    bounds the dense workspace at 32 MiB per domain. The kernels stage
    their working set in the per-domain {!Aved_linalg.Workspace}, so a
    steady stream of solves allocates little beyond the result
    vectors. *)

type t
(** A finite CTMC with states numbered [0 .. num_states - 1]. *)

exception Non_ergodic of string
(** Raised by the stationary solvers — all of them, identically — when
    probability can escape state 0's communicating class: some state is
    reachable from state 0 but cannot return to it. States that are
    unreachable from state 0 altogether are tolerated and receive
    stationary probability 0. *)

val create : int -> t
(** [create n] is an empty chain over [n] states (no transitions yet).
    Raises [Invalid_argument] when [n <= 0]. *)

val add_transition : t -> src:int -> dst:int -> rate:float -> unit
(** Adds [rate] to the transition rate from [src] to [dst]. Self-loops and
    non-positive rates are rejected with [Invalid_argument]. *)

val num_states : t -> int

val total_exit_rate : t -> int -> float
(** Sum of outgoing rates of a state. *)

val transitions : t -> (int * int * float) list
(** All transitions as [(src, dst, rate)], in insertion order, with
    repeated [add_transition] calls merged. *)

val generator : t -> Aved_linalg.Matrix.t
(** The generator matrix Q: off-diagonal rates, diagonal = −(row sum). *)

val compile : t -> Sparse.t
(** The chain's transitions in compressed sparse-row form — what the
    stationary solvers operate on. *)

type backend = Gth | Banded | Power | Lu
(** Stationary solver backends. [Gth] and [Banded] produce bitwise
    identical results; [Power] and [Lu] agree with them to solver
    tolerance. [Lu] is never auto-selected. *)

val backend_name : backend -> string
(** The [<backend>] of [markov.solve.<backend>] spans and
    [markov.<backend>.solves] counters: ["gth"], ["banded"], ... *)

val select_backend : t -> backend
(** The backend {!stationary} would use for this chain: [Banded] when
    the bandwidth is narrow relative to the state count (half-bandwidth
    [b] with [2b + 1 <= n / 6] on more than 32 states), else [Gth] up to
    2048 states and [Power] above. *)

val stationary : t -> Aved_linalg.Vector.t
(** Stationary distribution via the auto-selected backend; a [Power]
    solve whose iteration budget runs out is finished by GTH and counts
    into [markov.solver.fallback]. Raises {!Non_ergodic} as described
    there. *)

val stationary_with : backend -> t -> Aved_linalg.Vector.t
(** Stationary distribution via an explicit backend — primarily for the
    differential test harness. Same {!Non_ergodic} contract; [Lu] may
    additionally raise [Aved_linalg.Matrix.Singular] on chains with
    unreachable states (it cannot represent the "zero mass on islands"
    convention of the elimination backends). *)

val stationary_gth : t -> Aved_linalg.Vector.t
(** Stationary distribution by Grassmann–Taksar–Heyman elimination —
    numerically stable (no subtractions), O(n³) time, O(n²) workspace. *)

val stationary_lu : t -> Aved_linalg.Vector.t
(** Stationary distribution by solving [πQ = 0, Σπ = 1] with LU. *)

val stationary_power :
  ?tol:float ->
  ?max_iters:int ->
  t ->
  Aved_linalg.Vector.t
(** Stationary distribution by uniformized power iteration, accepted
    when ‖πQ‖∞ ≤ [tol]·Λ (Λ = 1.02 × the largest exit rate; [tol]
    defaults to 1e-12). Raises [Failure] when the iteration budget is
    exhausted before the residual test passes. *)

val expected_reward : t -> reward:(int -> float) -> float
(** [expected_reward chain ~reward] is Σ π(s)·reward(s) under the
    stationary distribution. *)

val probability_in : t -> (int -> bool) -> float
(** Stationary probability mass of the states satisfying the predicate. *)

val mean_time_to_absorption :
  t -> absorbing:(int -> bool) -> start:int -> float
(** Expected time to first hit an absorbing state from [start], obtained
    by solving the linear system on the transient states. Returns [0.]
    when [start] is absorbing; raises [Aved_linalg.Matrix.Singular] when
    absorption is not certain. *)

val transient :
  t -> initial:Aved_linalg.Vector.t -> time:float -> epsilon:float ->
  Aved_linalg.Vector.t
(** State distribution after [time], starting from [initial], computed by
    uniformization with truncation error below [epsilon]. *)

type well_formedness = {
  max_row_residual : float;
      (** Largest |row sum| of the generator — 0 up to rounding for a
          well-formed chain. *)
  negative_rates : (int * int * float) list;
      (** Negative off-diagonal generator entries (impossible through
          {!add_transition}; guards external constructions). *)
  unreachable : int list;  (** States unreachable from state 0. *)
  cannot_reach_start : int list;
      (** States with no path back to state 0 — members of absorbing
          classes that trap stationary probability. *)
  no_exit : int list;  (** States with no outgoing transition at all. *)
}

val well_formedness : t -> well_formedness
(** Structural audit of the chain for the static checker: generator row
    sums, off-diagonal signs, and reachability to and from state 0 (the
    all-up state in availability models, which should communicate with
    every state). *)

val pp : Format.formatter -> t -> unit

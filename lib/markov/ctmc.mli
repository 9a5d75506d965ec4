(** Continuous-time Markov chains.

    This module stands in for the external availability engines the paper
    interfaces with (Avanto, Mobius, Sharpe): an availability model is
    translated into a CTMC (Engine B's [Exact.chain],
    {!Birth_death.to_ctmc}), which the static checker audits
    ({!well_formedness}) and [aved report] steps through time
    ({!transient}). No answer needs a stationary vector — Engine B solves
    its chains in closed form — so {!stationary} is one dense
    Grassmann–Taksar–Heyman elimination, kept as the oracle that pins
    that closed form. *)

type t
(** A finite CTMC with states numbered [0 .. num_states - 1]. *)

exception Non_ergodic of string
(** Raised by {!stationary} when probability can escape state 0's
    communicating class: some state is reachable from state 0 but cannot
    return to it. States that are
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

val stationary : t -> float array
(** Stationary distribution by Grassmann–Taksar–Heyman elimination on
    the dense rate matrix: numerically stable (no subtractions), O(n³)
    time and an n × n workspace, so it is meant for chains of at most a
    few thousand states. Counts into [markov.gth.solves] inside a
    [markov.solve.gth] span. Raises {!Non_ergodic} as described
    there. *)

type backend = Gth | Banded | Power | Lu
(** Kept only because the repository benchmark's markov probe matches
    all four constructors; {!select_backend} returns [Gth]. *)

val select_backend : t -> backend
(** Always [Gth]: kept only for the repository benchmark's markov
    probe. *)

val transient :
  t -> initial:float array -> time:float -> epsilon:float -> float array
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

(** Birth–death chains in closed form.

    The paper's simplified availability model for a tier is a birth–death
    chain on the number of failed resources. Its stationary distribution
    has the classical product form, which this module evaluates directly —
    O(n) instead of the O(n³) general solver, which matters inside the
    design-search loop. *)

type t

val create : up:float array -> down:float array -> t
(** [create ~up ~down] describes a chain on states [0 .. n] where
    [up.(k)] is the rate from [k] to [k+1] (for [0 <= k < n]) and
    [down.(k)] is the rate from [k+1] to [k]. The arrays must have equal
    length; rates must be non-negative and finite, and every state
    reachable from 0 must be able to return (i.e. [down.(k) > 0] whenever
    some probability can reach state [k+1]). *)

val num_states : t -> int
(** Number of states, [n + 1]. *)

val stationary : t -> float array
(** The stationary distribution. States made unreachable by a zero
    up-rate below them get probability 0. *)

val expected_reward : t -> reward:(int -> float) -> float
(** Stationary expectation [Σ_k π_k · reward k] — the occupancy export
    used to report quantities like the mean number of failed resources. *)

val probability_at_least : t -> int -> float
(** [probability_at_least t k] is the stationary probability of being in
    a state [>= k]. *)

val to_ctmc : t -> Ctmc.t
(** The same chain as a general CTMC (for cross-validation). States with
    both rates zero are kept as isolated states. *)

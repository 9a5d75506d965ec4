(** Steady-state availability algebra.

    Availability is the long-run fraction of time a unit (or system) is
    up. Tiers compose in series: the service is up only when every tier
    is. *)

type t = private float
(** An availability, in [0, 1]. *)

val of_fraction : float -> t
(** Raises [Invalid_argument] outside [0, 1]. *)

val to_fraction : t -> float

val of_mtbf_mttr : mtbf:Aved_units.Duration.t -> mttr:Aved_units.Duration.t -> t
(** [mtbf /. (mtbf +. mttr)]. A zero [mttr] yields availability 1; a zero
    [mtbf] is rejected. *)

val perfect : t
val series : t list -> t
(** All units must be up (the paper's tier composition): product. *)

val annual_downtime : t -> Aved_units.Duration.t
(** Expected downtime per year. *)

val of_annual_downtime : Aved_units.Duration.t -> t
(** Inverse of {!annual_downtime}; downtime is clamped to one year. *)

val unavailability : t -> float

val nines : t -> float
(** [−log₁₀(1 − a)]: 0.999 is 3 nines, 0.99999 is 5. [infinity] for a
    perfect availability. *)

val pp : Format.formatter -> t -> unit

val pp_nines : Format.formatter -> t -> unit
(** {!nines} to one decimal ("3.7"); ["inf"] when perfect. The shared
    formatter behind the [explain] and [frontier --explain] outputs. *)

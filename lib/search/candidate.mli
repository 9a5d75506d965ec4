(** Evaluated tier designs. *)

module Duration = Aved_units.Duration
module Money = Aved_units.Money

type t = {
  design : Aved_model.Design.tier_design;
  model : Aved_avail.Tier_model.t;
  cost : Money.t;  (** Annual cost of the tier. *)
  downtime_fraction : float;
}

val downtime : t -> Duration.t
(** Expected annual downtime. *)

val availability : t -> Aved_reliability.Availability.t
(** [1 − downtime_fraction]. *)

val nines : t -> float
(** Availability in nines ({!Aved_reliability.Availability.nines}). *)

val pp_nines : Format.formatter -> t -> unit
(** The shared nines formatter used by [explain] and
    [frontier --explain] (and available to [design] output); {!pp}
    itself stays min/yr-only so golden outputs are unchanged. *)

val compare_total : t -> t -> int
(** Cheaper first, then less downtime, then
    {!Aved_model.Design.compare_tier}. A total order on candidates of
    distinct designs, so the search optimum does not depend on
    enumeration (or parallel completion) order. *)

val dominates : t -> t -> bool
(** [dominates a b]: [a] costs no more and is down no more than [b],
    and improves at least one of the two. *)

val family : t -> n_min_nominal:int -> string
(** The paper's design-family tuple "(resource, setting…, n_extra,
    n_spare)" used to label Fig. 6 — [n_min_nominal] is the minimum
    resource count dictated by performance alone, so
    [n_extra = n_active − n_min_nominal]. Enum mechanism parameters
    (e.g. the maintenance level) appear in the label; duration
    parameters are omitted (they vary continuously). *)

val pp : Format.formatter -> t -> unit

(** Machine-checkable proof objects for the bounds analysis.

    A certificate pairs a conclusion with the interval facts it depends
    on. {!verify} re-checks the numeric implication from facts to
    conclusion; the [check_fact] callback lets a consumer re-ground
    every fact against concrete evaluation (the soundness tests do).
    Conclusions are region verdicts of [aved check --bounds]: a budget
    is infeasible or trivially satisfiable for a (tier, option).
    Units: downtime and budget values are fractions of a year, rates
    are per hour, outages are seconds. *)

type fact =
  | Class_rate of { label : string; per_hour : Interval.t }
  | Class_outage of { label : string; seconds : Interval.t }
  | Downtime_bound of { design : string; fraction : Interval.t }
  | Budget of { fraction : float }
  | Region of { description : string }

type conclusion =
  | Infeasible of {
      tier : string;
      resource : string;
      budget_fraction : float;
      best_case_fraction : float;
    }
  | Trivially_satisfiable of {
      tier : string;
      resource : string;
      budget_fraction : float;
      worst_case_fraction : float;
    }

type t = { conclusion : conclusion; facts : fact list }

val make : conclusion -> fact list -> t

val verify : ?check_fact:(fact -> bool) -> t -> bool
(** Whether the facts numerically imply the conclusion, and every fact
    passes [check_fact] (defaults to accepting). *)

val summary : t -> string
(** One-line human rendering of the conclusion. *)

val to_json : t -> string
(** Flat JSON object; infinite interval endpoints render as the strings
    ["inf"] / ["-inf"]. *)

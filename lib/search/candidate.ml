module Duration = Aved_units.Duration
module Money = Aved_units.Money
module Design = Aved_model.Design
module Mechanism = Aved_model.Mechanism
module Availability = Aved_reliability.Availability

type t = {
  design : Design.tier_design;
  model : Aved_avail.Tier_model.t;
  cost : Money.t;
  downtime_fraction : float;
}

let downtime t = Duration.of_years t.downtime_fraction
let availability t = Availability.of_fraction (1. -. t.downtime_fraction)
let nines t = Availability.nines (availability t)
let pp_nines ppf t = Availability.pp_nines ppf (availability t)

let compare_total a b =
  match Money.compare a.cost b.cost with
  | 0 -> (
      match Float.compare a.downtime_fraction b.downtime_fraction with
      | 0 -> Design.compare_tier a.design b.design
      | c -> c)
  | c -> c

let dominates a b =
  Money.(a.cost <= b.cost)
  && a.downtime_fraction <= b.downtime_fraction
  && (Money.(a.cost < b.cost) || a.downtime_fraction < b.downtime_fraction)

let family t ~n_min_nominal =
  let d = t.design in
  let enum_settings =
    List.concat_map
      (fun (_, setting) ->
        List.filter_map
          (fun (_, value) ->
            match value with
            | Mechanism.Enum_value v -> Some v
            | Mechanism.Duration_value _ -> None)
          setting)
      d.Design.mechanism_settings
  in
  let parts =
    (d.Design.resource :: enum_settings)
    @ [
        string_of_int (d.Design.n_active - n_min_nominal);
        string_of_int d.Design.n_spare;
      ]
  in
  "(" ^ String.concat ", " parts ^ ")"

let pp ppf t =
  Format.fprintf ppf "%a | cost %a/yr | downtime %.2f min/yr"
    Design.pp_tier t.design Money.pp t.cost
    (Duration.minutes (downtime t))

(* Machine-checkable proof objects for the bounds analysis.

   A certificate names the interval facts a conclusion depends on, so a
   consumer who trusts the facts can re-check the conclusion with plain
   arithmetic, and a consumer who trusts nothing can re-validate each
   fact against concrete evaluation through the [check_fact] callback
   of [verify]. Downtime values are fractions of a year; rates are per
   hour; outages are seconds. *)

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

let make conclusion facts = { conclusion; facts }

let downtime_bounds t =
  List.filter_map
    (function Downtime_bound { fraction; _ } -> Some fraction | _ -> None)
    t.facts

(* The numeric implication from facts to conclusion, plus one callback
   per fact for consumers who want to re-ground the facts themselves
   (the soundness tests re-evaluate each one concretely). *)
let verify ?(check_fact = fun (_ : fact) -> true) t =
  List.for_all check_fact t.facts
  &&
  match t.conclusion with
  | Infeasible { budget_fraction; best_case_fraction; _ } ->
      let bounds = downtime_bounds t in
      bounds <> []
      && List.exists
           (function Budget { fraction } -> fraction = budget_fraction | _ -> false)
           t.facts
      && List.for_all
           (fun iv -> Interval.lo iv >= best_case_fraction)
           bounds
      && best_case_fraction > budget_fraction
  | Trivially_satisfiable { budget_fraction; worst_case_fraction; _ } ->
      let bounds = downtime_bounds t in
      bounds <> []
      && List.exists
           (function Budget { fraction } -> fraction = budget_fraction | _ -> false)
           t.facts
      && List.for_all
           (fun iv -> Interval.hi iv <= worst_case_fraction)
           bounds
      && worst_case_fraction <= budget_fraction

let minutes_per_year fraction = fraction *. 365. *. 24. *. 60.

let summary t =
  match t.conclusion with
  | Infeasible { tier; resource; budget_fraction; best_case_fraction } ->
      Printf.sprintf
        "%s/%s: budget %.3f min/yr is provably unattainable; best-case \
         downtime >= %.3f min/yr"
        tier resource
        (minutes_per_year budget_fraction)
        (minutes_per_year best_case_fraction)
  | Trivially_satisfiable { tier; resource; budget_fraction; worst_case_fraction }
    ->
      Printf.sprintf
        "%s/%s: budget %.3f min/yr holds over the whole region; worst-case \
         downtime <= %.3f min/yr"
        tier resource
        (minutes_per_year budget_fraction)
        (minutes_per_year worst_case_fraction)

(* JSON rendering, by hand like [Diagnostic.to_json]. Infinite interval
   endpoints become the strings "inf"/"-inf" (JSON has no literal for
   them); everything else is a plain number. *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f =
  if f = infinity then "\"inf\""
  else if f = neg_infinity then "\"-inf\""
  else Printf.sprintf "%.17g" f

let json_interval iv =
  Printf.sprintf "{\"lo\":%s,\"hi\":%s}"
    (json_float (Interval.lo iv))
    (json_float (Interval.hi iv))

let fact_to_json = function
  | Class_rate { label; per_hour } ->
      Printf.sprintf
        "{\"fact\":\"class_rate\",\"class\":\"%s\",\"per_hour\":%s}"
        (escape label) (json_interval per_hour)
  | Class_outage { label; seconds } ->
      Printf.sprintf
        "{\"fact\":\"class_outage\",\"class\":\"%s\",\"seconds\":%s}"
        (escape label) (json_interval seconds)
  | Downtime_bound { design; fraction } ->
      Printf.sprintf
        "{\"fact\":\"downtime_bound\",\"design\":\"%s\",\"fraction\":%s}"
        (escape design) (json_interval fraction)
  | Budget { fraction } ->
      Printf.sprintf "{\"fact\":\"budget\",\"fraction\":%s}"
        (json_float fraction)
  | Region { description } ->
      Printf.sprintf "{\"fact\":\"region\",\"description\":\"%s\"}"
        (escape description)

let conclusion_to_json = function
  | Infeasible { tier; resource; budget_fraction; best_case_fraction } ->
      Printf.sprintf
        "{\"kind\":\"infeasible\",\"tier\":\"%s\",\"resource\":\"%s\",\
         \"budget_fraction\":%s,\"best_case_fraction\":%s}"
        (escape tier) (escape resource)
        (json_float budget_fraction)
        (json_float best_case_fraction)
  | Trivially_satisfiable { tier; resource; budget_fraction; worst_case_fraction }
    ->
      Printf.sprintf
        "{\"kind\":\"trivially_satisfiable\",\"tier\":\"%s\",\
         \"resource\":\"%s\",\"budget_fraction\":%s,\
         \"worst_case_fraction\":%s}"
        (escape tier) (escape resource)
        (json_float budget_fraction)
        (json_float worst_case_fraction)

let to_json t =
  Printf.sprintf "{\"conclusion\":%s,\"facts\":[%s]}"
    (conclusion_to_json t.conclusion)
    (String.concat "," (List.map fact_to_json t.facts))

module Duration = Aved_units.Duration
module Money = Aved_units.Money
module Availability = Aved_reliability.Availability
module Design = Aved_model.Design
module Mechanism = Aved_model.Mechanism
module Tier_model = Aved_avail.Tier_model
module Analytic = Aved_avail.Analytic
module Evaluate = Aved_avail.Evaluate
module Provenance = Aved_search.Provenance
module Candidate = Aved_search.Candidate

type runner_up = {
  record : Provenance.record;
  cost_delta : float;
  downtime_delta : float option;
  execution_time_delta : float option;
}

type tier_explanation = {
  tier_name : string;
  design : Design.tier_design;
  cost : Money.t;
  decomposition : Evaluate.decomposition;
  by_mechanism : (string option * float) list;
  mean_failed_resources : float option;
  runner_ups : runner_up list;
  considered : int;
}

type t = {
  service_name : string;
  engine : string;
  cost : Money.t;
  downtime : Duration.t option;
  execution_time : Duration.t option;
  tiers : tier_explanation list;
  noted : int;
  dropped : int;
}

let engine_label : Evaluate.engine -> string = function
  | Analytic -> "analytic"
  | Exact _ -> "exact"
  | Monte_carlo _ -> "monte-carlo"

let minutes_of_fraction f = Duration.minutes (Duration.of_years f)

(* One record per design, each design keeping its latest (= final) fate.
   Records arrive oldest-first; quadratic in the ring size, which is
   bounded. *)
let latest_by_design records =
  List.fold_left
    (fun acc (r : Provenance.record) ->
      r
      :: List.filter
           (fun (r' : Provenance.record) ->
             Design.compare_tier r'.design r.design <> 0)
           acc)
    [] records

(* Deterministic presentation order, independent of the trail's append
   order under parallel search: cheapest first, then least downtime (or
   execution time), then the rendered design. *)
let runner_order (a : Provenance.record) (b : Provenance.record) =
  let metric (r : Provenance.record) =
    match (r.downtime, r.execution_time) with
    | Some d, _ -> Duration.seconds d
    | None, Some e -> Duration.seconds e
    | None, None -> Float.infinity
  in
  match Money.compare a.cost b.cost with
  | 0 -> (
      match Float.compare (metric a) (metric b) with
      | 0 -> String.compare (Provenance.describe a.design) (Provenance.describe b.design)
      | c -> c)
  | c -> c

let take n l = List.filteri (fun i _ -> i < n) l

let runner_ups_of_trail ~top ~trail ~tier_name ~design ~cost
    ~(decomposition : Evaluate.decomposition) =
  let records = Provenance.records trail ~tier:tier_name in
  let latest = latest_by_design records in
  let considered = List.length latest in
  let losers =
    List.filter
      (fun (r : Provenance.record) -> Design.compare_tier r.design design <> 0)
      latest
  in
  let winner_minutes = minutes_of_fraction decomposition.total in
  let runner_ups =
    List.stable_sort runner_order losers |> take top
    |> List.map (fun (r : Provenance.record) ->
           {
             record = r;
             cost_delta = Money.to_float r.cost -. Money.to_float cost;
             downtime_delta =
               Option.map
                 (fun d -> Duration.minutes d -. winner_minutes)
                 r.downtime;
             execution_time_delta =
               Option.map Duration.seconds r.execution_time;
           })
  in
  (runner_ups, considered)

let explain_tier ?(top = 5) ?trail ~engine ~design ~cost ~model () =
  let decomposition = Evaluate.tier_downtime_decomposition engine model in
  let by_mechanism = Evaluate.by_mechanism decomposition in
  let mean_failed_resources =
    match (engine : Evaluate.engine) with
    | Analytic -> Some (Analytic.mean_failed_resources model)
    | Exact _ | Monte_carlo _ -> None
  in
  let runner_ups, considered =
    match trail with
    | None -> ([], 0)
    | Some trail ->
        runner_ups_of_trail ~top ~trail
          ~tier_name:design.Design.tier_name ~design ~cost ~decomposition
  in
  {
    tier_name = design.Design.tier_name;
    design;
    cost;
    decomposition;
    by_mechanism;
    mean_failed_resources;
    runner_ups;
    considered;
  }

let winner_downtime e = Duration.of_years e.decomposition.Evaluate.total

let fate_sentence (r : Provenance.record) =
  match r.fate with
  | Incumbent -> "incumbent"
  | Dominated { by } -> "dominated by " ^ by
  | Over_downtime_budget { excess } ->
      if r.execution_time <> None then
        Printf.sprintf "over time budget by %.2fh" (Duration.hours excess)
      else
        Printf.sprintf "over downtime budget by %.3f min/yr"
          (Duration.minutes excess)
  | Over_cost_cap { excess } ->
      "over cost cap by " ^ Money.to_string excess ^ "/yr"
  | Rejected_by_model { reason } -> "rejected: " ^ reason
  | Pruned_by_bound { certificate } ->
      "pruned by bound: " ^ Aved_check.Certificate.summary certificate

(* Availability implied by a downtime fraction, as nines. *)
let nines_of_fraction f =
  Availability.nines (Availability.of_fraction (1. -. Float.min 1. f))

let pp_nines_of_fraction ppf f =
  Availability.pp_nines ppf (Availability.of_fraction (1. -. Float.min 1. f))

let pp_money_delta ppf delta =
  if Float.is_integer delta then Format.fprintf ppf "%+.0f" delta
  else Format.fprintf ppf "%+.2f" delta

let pp_share ppf (fraction, total) =
  if total > 0. then Format.fprintf ppf "%5.1f%%" (100. *. fraction /. total)
  else Format.pp_print_string ppf "    -%%"

let pp_runner_up ppf i r =
  Format.fprintf ppf "@,  %d. %a" (i + 1) Design.pp_tier r.record.design;
  Format.fprintf ppf "@,     cost %a/yr (%a)" Money.pp r.record.cost
    pp_money_delta r.cost_delta;
  (match (r.record.downtime, r.downtime_delta) with
  | Some d, Some delta ->
      Format.fprintf ppf ", downtime %.3f min/yr (%+.3f)" (Duration.minutes d)
        delta
  | _ -> ());
  (match r.record.execution_time with
  | Some e -> Format.fprintf ppf ", execution time %.2fh" (Duration.hours e)
  | None -> ());
  Format.fprintf ppf " -- %s" (fate_sentence r.record)

let pp_tier_explanation ppf e =
  let total = e.decomposition.Evaluate.total in
  Format.fprintf ppf "@[<v>%a@," Design.pp_tier e.design;
  Format.fprintf ppf "  cost %a/yr@," Money.pp e.cost;
  Format.fprintf ppf "  downtime %.3f min/yr (%a nines)"
    (minutes_of_fraction total) pp_nines_of_fraction total;
  if e.decomposition.by_class <> [] then begin
    Format.fprintf ppf "@,  by failure mode:";
    List.iter
      (fun (c : Evaluate.class_contribution) ->
        Format.fprintf ppf "@,    %-24s %10.3f min/yr  %a  %a nines%s"
          c.label
          (minutes_of_fraction c.fraction)
          pp_share (c.fraction, total) pp_nines_of_fraction c.fraction
          (match c.repair_mechanism with
          | Some m -> "  [repair: " ^ m ^ "]"
          | None -> ""))
      e.decomposition.by_class
  end;
  (match e.by_mechanism with
  | [] | [ (None, _) ] -> ()
  | groups ->
      Format.fprintf ppf "@,  by repair mechanism:";
      List.iter
        (fun (mech, fraction) ->
          Format.fprintf ppf "@,    %-24s %10.3f min/yr  %a"
            (match mech with Some m -> m | None -> "(fixed repair)")
            (minutes_of_fraction fraction)
            pp_share (fraction, total))
        groups);
  (match e.mean_failed_resources with
  | Some m -> Format.fprintf ppf "@,  mean failed resources %.6g" m
  | None -> ());
  (match e.runner_ups with
  | [] -> ()
  | runner_ups ->
      Format.fprintf ppf "@,  runner-ups (top %d of %d designs considered):"
        (List.length runner_ups) e.considered;
      List.iteri (fun i r -> pp_runner_up ppf i r) runner_ups);
  Format.fprintf ppf "@]"

let pp ppf t =
  Format.fprintf ppf "@[<v>explain %s -- engine %s@," t.service_name t.engine;
  Format.fprintf ppf "cost %a/yr" Money.pp t.cost;
  (match t.downtime with
  | Some d ->
      Format.fprintf ppf ", downtime %.3f min/yr (%a nines)"
        (Duration.minutes d) Availability.pp_nines
        (Availability.of_annual_downtime d)
  | None -> ());
  (match t.execution_time with
  | Some e -> Format.fprintf ppf ", execution time %.2fh" (Duration.hours e)
  | None -> ());
  List.iter (fun e -> Format.fprintf ppf "@,@,%a" pp_tier_explanation e) t.tiers;
  if t.dropped > 0 then
    Format.fprintf ppf
      "@,@,note: trail ring dropped %d of %d records; oldest fates may be \
       missing"
      t.dropped t.noted;
  Format.fprintf ppf "@]"

let fate_detail : Provenance.fate -> Json.t = function
  | Incumbent -> Json.Null
  | Dominated { by } -> Json.String by
  | Over_downtime_budget { excess } -> Json.Float (Duration.minutes excess)
  | Over_cost_cap { excess } -> Json.Float (Money.to_float excess)
  | Rejected_by_model { reason } -> Json.String reason
  | Pruned_by_bound { certificate } ->
      Json.String (Aved_check.Certificate.summary certificate)

let runner_up_to_json r =
  Json.Obj
    [
      ("design", Json.String (Provenance.describe r.record.design));
      ("fate", Json.String (Provenance.fate_label r.record.fate));
      ("fate_detail", fate_detail r.record.fate);
      ("cost", Json.Float (Money.to_float r.record.cost));
      ("cost_delta", Json.Float r.cost_delta);
      ( "downtime_minutes_per_year",
        Json.of_float_option (Option.map Duration.minutes r.record.downtime) );
      ("downtime_delta_minutes", Json.of_float_option r.downtime_delta);
      ( "execution_time_seconds",
        Json.of_float_option
          (Option.map Duration.seconds r.record.execution_time) );
    ]

let contribution_to_json (c : Evaluate.class_contribution) =
  Json.Obj
    [
      ("label", Json.String c.label);
      ("repair_mechanism", Json.of_string_option c.repair_mechanism);
      ("fraction", Json.Float c.fraction);
      ("minutes_per_year", Json.Float (minutes_of_fraction c.fraction));
      ("nines", Json.Float (nines_of_fraction c.fraction));
    ]

let mechanism_to_json (mech, fraction) =
  Json.Obj
    [
      ("mechanism", Json.of_string_option mech);
      ("fraction", Json.Float fraction);
      ("minutes_per_year", Json.Float (minutes_of_fraction fraction));
    ]

let tier_to_json e =
  let total = e.decomposition.Evaluate.total in
  Json.Obj
    [
      ("tier", Json.String e.tier_name);
      ("design", Json.String (Provenance.describe e.design));
      ("resource", Json.String e.design.Design.resource);
      ("n_active", Json.Int e.design.Design.n_active);
      ("n_spare", Json.Int e.design.Design.n_spare);
      ("cost", Json.Float (Money.to_float e.cost));
      ( "downtime",
        Json.Obj
          [
            ("fraction", Json.Float total);
            ("minutes_per_year", Json.Float (minutes_of_fraction total));
            ("nines", Json.Float (nines_of_fraction total));
            ( "by_class",
              Json.List
                (List.map contribution_to_json e.decomposition.by_class) );
            ( "by_mechanism",
              Json.List (List.map mechanism_to_json e.by_mechanism) );
          ] );
      ("mean_failed_resources", Json.of_float_option e.mean_failed_resources);
      ("designs_considered", Json.Int e.considered);
      ("runner_ups", Json.List (List.map runner_up_to_json e.runner_ups));
    ]

let to_json t =
  Json.Obj
    [
      ("service", Json.String t.service_name);
      ("engine", Json.String t.engine);
      ("cost", Json.Float (Money.to_float t.cost));
      ( "downtime_minutes_per_year",
        Json.of_float_option (Option.map Duration.minutes t.downtime) );
      ( "execution_time_seconds",
        Json.of_float_option (Option.map Duration.seconds t.execution_time) );
      ( "provenance",
        Json.Obj [ ("noted", Json.Int t.noted); ("dropped", Json.Int t.dropped) ]
      );
      ("tiers", Json.List (List.map tier_to_json t.tiers));
    ]

(* What changed between two adjacent frontier designs. *)
let design_diff (a : Design.tier_design) (b : Design.tier_design) =
  let changes = ref [] in
  let add fmt = Printf.ksprintf (fun s -> changes := s :: !changes) fmt in
  if a.resource <> b.resource then add "resource %s->%s" a.resource b.resource;
  if a.n_active <> b.n_active then add "n_active %d->%d" a.n_active b.n_active;
  if a.n_spare <> b.n_spare then add "n_spare %d->%d" a.n_spare b.n_spare;
  if a.spare_active_components <> b.spare_active_components then
    add "spare-active {%s}->{%s}"
      (String.concat "," a.spare_active_components)
      (String.concat "," b.spare_active_components);
  List.iter
    (fun (name, setting) ->
      match Design.setting_of a name with
      | Some prev when prev <> setting ->
          add "%s %s->%s" name
            (Mechanism.setting_to_string prev)
            (Mechanism.setting_to_string setting)
      | Some _ -> ()
      | None -> add "%s %s" name (Mechanism.setting_to_string setting))
    b.mechanism_settings;
  List.rev !changes

let annotate_step ~(prev : Candidate.t) ~(next : Candidate.t) =
  let changes =
    match design_diff prev.design next.design with
    | [] -> "same configuration"
    | l -> String.concat ", " l
  in
  let delta = Money.to_float next.cost -. Money.to_float prev.cost in
  Format.asprintf "%s: %a/yr buys %.3f->%.3f min/yr (%a->%a nines)" changes
    pp_money_delta delta
    (Duration.minutes (Candidate.downtime prev))
    (Duration.minutes (Candidate.downtime next))
    Candidate.pp_nines prev Candidate.pp_nines next

module Json = Aved_explain.Json
module Duration = Aved_units.Duration
module Money = Aved_units.Money
module Design = Aved_model.Design
module Mechanism = Aved_model.Mechanism
module Candidate = Aved_search.Candidate
module Provenance = Aved_search.Provenance
module Explain = Aved_explain.Explain
module Availability = Aved_reliability.Availability

let schema_version = 2
let min_schema_version = 1

let versioned ?(version = schema_version) fields =
  Json.Obj (("schema_version", Json.Int version) :: fields)

(* ------------------------------------------------------------------ *)
(* Decoding combinators *)

let ( let* ) = Result.bind

let decode_error fmt = Printf.ksprintf (fun s -> Error s) fmt

let as_obj = function
  | Json.Obj fields -> Ok fields
  | _ -> decode_error "expected an object"

let field name fields =
  match List.assoc_opt name fields with
  | Some v -> Ok v
  | None -> decode_error "missing field %S" name

let as_string name = function
  | Json.String s -> Ok s
  | _ -> decode_error "field %S: expected a string" name

let as_int name = function
  | Json.Int i -> Ok i
  | _ -> decode_error "field %S: expected an integer" name

let as_bool name = function
  | Json.Bool b -> Ok b
  | _ -> decode_error "field %S: expected a boolean" name

(* Integral floats serialize without a decimal point and reparse as
   [Int], so any numeric field accepts both constructors. *)
let as_number name = function
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | _ -> decode_error "field %S: expected a number" name

let as_list name = function
  | Json.List l -> Ok l
  | _ -> decode_error "field %S: expected an array" name

let as_number_option name = function
  | Json.Null -> Ok None
  | v ->
      let* f = as_number name v in
      Ok (Some f)

let as_string_option name = function
  | Json.Null -> Ok None
  | v ->
      let* s = as_string name v in
      Ok (Some s)

let as_int_option name = function
  | Json.Null -> Ok None
  | v ->
      let* i = as_int name v in
      Ok (Some i)

let map_result f l =
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
        let* y = f x in
        loop (y :: acc) rest
  in
  loop [] l

let checked_version fields =
  let* v = field "schema_version" fields in
  let* v = as_int "schema_version" v in
  if v >= min_schema_version && v <= schema_version then Ok fields
  else decode_error "unsupported schema_version %d (this build speaks %d)" v
      schema_version

let string_field name fields = field name fields |> Fun.flip Result.bind (as_string name)
let int_field name fields = field name fields |> Fun.flip Result.bind (as_int name)
let number_field name fields = field name fields |> Fun.flip Result.bind (as_number name)
let list_field name fields = field name fields |> Fun.flip Result.bind (as_list name)

let number_option_field name fields =
  field name fields |> Fun.flip Result.bind (as_number_option name)

(* ------------------------------------------------------------------ *)
(* Shared: resolved tier designs on the wire *)

let setting_value_fields = function
  | Mechanism.Enum_value s -> [ ("enum", Json.String s) ]
  | Mechanism.Duration_value d ->
      [ ("duration_seconds", Json.Float (Duration.seconds d)) ]

let mechanism_setting_to_json (mechanism, setting) =
  Json.Obj
    [
      ("mechanism", Json.String mechanism);
      ( "settings",
        Json.List
          (List.map
             (fun (param, value) ->
               Json.Obj (("param", Json.String param) :: setting_value_fields value))
             setting) );
    ]

let tier_design_to_json (td : Design.tier_design) =
  Json.Obj
    [
      ("tier", Json.String td.tier_name);
      ("resource", Json.String td.resource);
      ("n_active", Json.Int td.n_active);
      ("n_spare", Json.Int td.n_spare);
      ( "spare_active_components",
        Json.List (List.map (fun c -> Json.String c) td.spare_active_components)
      );
      ( "mechanism_settings",
        Json.List (List.map mechanism_setting_to_json td.mechanism_settings) );
    ]

let setting_value_of_json fields =
  match List.assoc_opt "enum" fields with
  | Some v ->
      let* s = as_string "enum" v in
      Ok (Mechanism.Enum_value s)
  | None -> (
      match List.assoc_opt "duration_seconds" fields with
      | Some v ->
          let* f = as_number "duration_seconds" v in
          Ok (Mechanism.Duration_value (Duration.of_seconds f))
      | None -> decode_error "setting: expected \"enum\" or \"duration_seconds\"")

let mechanism_setting_of_json json =
  let* fields = as_obj json in
  let* mechanism = string_field "mechanism" fields in
  let* settings = list_field "settings" fields in
  let* setting =
    map_result
      (fun s ->
        let* sf = as_obj s in
        let* param = string_field "param" sf in
        let* value = setting_value_of_json sf in
        Ok (param, value))
      settings
  in
  Ok (mechanism, setting)

let tier_design_of_json json =
  let* fields = as_obj json in
  let* tier_name = string_field "tier" fields in
  let* resource = string_field "resource" fields in
  let* n_active = int_field "n_active" fields in
  let* n_spare = int_field "n_spare" fields in
  let* spares = list_field "spare_active_components" fields in
  let* spare_active_components =
    map_result (as_string "spare_active_components") spares
  in
  let* mechs = list_field "mechanism_settings" fields in
  let* mechanism_settings = map_result mechanism_setting_of_json mechs in
  match
    Design.tier_design ~tier_name ~resource ~n_active ~n_spare
      ~spare_active_components ~mechanism_settings ()
  with
  | td -> Ok td
  | exception Invalid_argument m -> decode_error "tier %S: %s" tier_name m

(* ------------------------------------------------------------------ *)
(* Design results *)

type design_result = {
  feasible : bool;
  design : Design.t option;
  cost : float option;
  downtime_minutes : float option;
  execution_hours : float option;
}

let design_result_of_report = function
  | None ->
      {
        feasible = false;
        design = None;
        cost = None;
        downtime_minutes = None;
        execution_hours = None;
      }
  | Some (r : Aved_search.Service_search.report) ->
      {
        feasible = true;
        design = Some r.design;
        cost = Some (Money.to_float r.cost);
        downtime_minutes = Option.map Duration.minutes r.downtime;
        execution_hours = Option.map Duration.hours r.execution_time;
      }

let design_to_json (d : Design.t) =
  Json.Obj
    [
      ("service", Json.String d.service_name);
      ("tiers", Json.List (List.map tier_design_to_json d.tiers));
    ]

let design_result_to_json ?version r =
  if not r.feasible then versioned ?version [ ("feasible", Json.Bool false) ]
  else
    versioned ?version
      [
        ("feasible", Json.Bool true);
        ( "design",
          match r.design with Some d -> design_to_json d | None -> Json.Null );
        ("cost", Json.of_float_option r.cost);
        ("downtime_minutes_per_year", Json.of_float_option r.downtime_minutes);
        ("execution_time_hours", Json.of_float_option r.execution_hours);
      ]

let design_of_json json =
  let* fields = as_obj json in
  let* service_name = string_field "service" fields in
  let* tiers = list_field "tiers" fields in
  let* tiers = map_result tier_design_of_json tiers in
  Ok (Design.make ~service_name ~tiers)

let design_result_of_json json =
  let* fields = as_obj json in
  let* fields = checked_version fields in
  let* feasible = field "feasible" fields in
  let* feasible = as_bool "feasible" feasible in
  if not feasible then
    Ok
      {
        feasible = false;
        design = None;
        cost = None;
        downtime_minutes = None;
        execution_hours = None;
      }
  else
    let* design_json = field "design" fields in
    let* design =
      match design_json with
      | Json.Null -> Ok None
      | v ->
          let* d = design_of_json v in
          Ok (Some d)
    in
    let* cost = number_option_field "cost" fields in
    let* downtime_minutes =
      number_option_field "downtime_minutes_per_year" fields
    in
    let* execution_hours = number_option_field "execution_time_hours" fields in
    Ok { feasible = true; design; cost; downtime_minutes; execution_hours }

(* ------------------------------------------------------------------ *)
(* Frontier results *)

type frontier_point = {
  family : string;
  point_cost : float;
  point_downtime_minutes : float;
  point_design : Design.tier_design;
}

type frontier_result = {
  frontier_tier : string;
  demand : float;
  points : frontier_point list;
}

let frontier_result_of_candidates ~tier ~demand candidates =
  {
    frontier_tier = tier;
    demand;
    points =
      List.map
        (fun (c : Candidate.t) ->
          {
            family =
              Candidate.family c
                ~n_min_nominal:c.model.Aved_avail.Tier_model.n_min;
            point_cost = Money.to_float c.cost;
            point_downtime_minutes = Duration.minutes (Candidate.downtime c);
            point_design = c.design;
          })
        candidates;
  }

let frontier_point_to_json p =
  Json.Obj
    [
      ("family", Json.String p.family);
      ("cost", Json.Float p.point_cost);
      ("downtime_minutes_per_year", Json.Float p.point_downtime_minutes);
      ("design", tier_design_to_json p.point_design);
    ]

let frontier_result_to_json ?version f =
  versioned ?version
    [
      ("tier", Json.String f.frontier_tier);
      ("demand", Json.Float f.demand);
      ("points", Json.List (List.map frontier_point_to_json f.points));
    ]

let frontier_point_of_json json =
  let* fields = as_obj json in
  let* family = string_field "family" fields in
  let* point_cost = number_field "cost" fields in
  let* point_downtime_minutes =
    number_field "downtime_minutes_per_year" fields
  in
  let* design = field "design" fields in
  let* point_design = tier_design_of_json design in
  Ok { family; point_cost; point_downtime_minutes; point_design }

let frontier_result_of_json json =
  let* fields = as_obj json in
  let* fields = checked_version fields in
  let* frontier_tier = string_field "tier" fields in
  let* demand = number_field "demand" fields in
  let* points = list_field "points" fields in
  let* points = map_result frontier_point_of_json points in
  Ok { frontier_tier; demand; points }

(* ------------------------------------------------------------------ *)
(* Explain results *)

type contribution = {
  label : string;
  repair_mechanism : string option;
  fraction : float;
  contribution_minutes : float;
  contribution_nines : float;
}

type mechanism_share = {
  mechanism : string option;
  share_fraction : float;
  share_minutes : float;
}

type fate_detail = No_detail | Text_detail of string | Number_detail of float

type runner_up = {
  runner_design : string;
  fate : string;
  detail : fate_detail;
  runner_cost : float;
  cost_delta : float;
  runner_downtime_minutes : float option;
  downtime_delta_minutes : float option;
  runner_execution_seconds : float option;
}

type explain_tier = {
  explain_tier_name : string;
  tier_design_text : string;
  tier_resource : string;
  tier_n_active : int;
  tier_n_spare : int;
  tier_cost : float;
  tier_fraction : float;
  tier_minutes : float;
  tier_nines : float;
  by_class : contribution list;
  by_mechanism : mechanism_share list;
  mean_failed_resources : float option;
  designs_considered : int;
  runner_ups : runner_up list;
}

type explain_body = {
  explain_service : string;
  explain_engine : string;
  explain_cost : float;
  explain_downtime_minutes : float option;
  explain_execution_seconds : float option;
  noted : int;
  dropped : int;
  explain_tiers : explain_tier list;
}

type explain_result = { explain_feasible : bool; body : explain_body option }

(* The same numeric derivations {!Aved_explain.Explain} renders with. *)
let minutes_of_fraction f = Duration.minutes (Duration.of_years f)

let nines_of_fraction f =
  Availability.nines (Availability.of_fraction (1. -. Float.min 1. f))

let detail_of_fate : Provenance.fate -> fate_detail = function
  | Incumbent -> No_detail
  | Dominated { by } -> Text_detail by
  | Over_downtime_budget { excess } -> Number_detail (Duration.minutes excess)
  | Over_cost_cap { excess } -> Number_detail (Money.to_float excess)
  | Rejected_by_model { reason } -> Text_detail reason

let runner_up_of_explain (r : Explain.runner_up) =
  {
    runner_design = Provenance.describe r.record.design;
    fate = Provenance.fate_label r.record.fate;
    detail = detail_of_fate r.record.fate;
    runner_cost = Money.to_float r.record.cost;
    cost_delta = r.cost_delta;
    runner_downtime_minutes = Option.map Duration.minutes r.record.downtime;
    downtime_delta_minutes = r.downtime_delta;
    runner_execution_seconds =
      Option.map Duration.seconds r.record.execution_time;
  }

let tier_of_explain (e : Explain.tier_explanation) =
  let total = e.decomposition.Aved_avail.Evaluate.total in
  {
    explain_tier_name = e.tier_name;
    tier_design_text = Provenance.describe e.design;
    tier_resource = e.design.Design.resource;
    tier_n_active = e.design.Design.n_active;
    tier_n_spare = e.design.Design.n_spare;
    tier_cost = Money.to_float e.cost;
    tier_fraction = total;
    tier_minutes = minutes_of_fraction total;
    tier_nines = nines_of_fraction total;
    by_class =
      List.map
        (fun (c : Aved_avail.Evaluate.class_contribution) ->
          {
            label = c.label;
            repair_mechanism = c.repair_mechanism;
            fraction = c.fraction;
            contribution_minutes = minutes_of_fraction c.fraction;
            contribution_nines = nines_of_fraction c.fraction;
          })
        e.decomposition.by_class;
    by_mechanism =
      List.map
        (fun (mechanism, share_fraction) ->
          {
            mechanism;
            share_fraction;
            share_minutes = minutes_of_fraction share_fraction;
          })
        e.by_mechanism;
    mean_failed_resources = e.mean_failed_resources;
    designs_considered = e.considered;
    runner_ups = List.map runner_up_of_explain e.runner_ups;
  }

let explain_result_of_explanation = function
  | None -> { explain_feasible = false; body = None }
  | Some (t : Explain.t) ->
      {
        explain_feasible = true;
        body =
          Some
            {
              explain_service = t.service_name;
              explain_engine = t.engine;
              explain_cost = Money.to_float t.cost;
              explain_downtime_minutes = Option.map Duration.minutes t.downtime;
              explain_execution_seconds =
                Option.map Duration.seconds t.execution_time;
              noted = t.noted;
              dropped = t.dropped;
              explain_tiers = List.map tier_of_explain t.tiers;
            };
      }

let detail_to_json = function
  | No_detail -> Json.Null
  | Text_detail s -> Json.String s
  | Number_detail f -> Json.Float f

let runner_up_to_json r =
  Json.Obj
    [
      ("design", Json.String r.runner_design);
      ("fate", Json.String r.fate);
      ("fate_detail", detail_to_json r.detail);
      ("cost", Json.Float r.runner_cost);
      ("cost_delta", Json.Float r.cost_delta);
      ( "downtime_minutes_per_year",
        Json.of_float_option r.runner_downtime_minutes );
      ("downtime_delta_minutes", Json.of_float_option r.downtime_delta_minutes);
      ("execution_time_seconds", Json.of_float_option r.runner_execution_seconds);
    ]

let contribution_to_json c =
  Json.Obj
    [
      ("label", Json.String c.label);
      ("repair_mechanism", Json.of_string_option c.repair_mechanism);
      ("fraction", Json.Float c.fraction);
      ("minutes_per_year", Json.Float c.contribution_minutes);
      ("nines", Json.Float c.contribution_nines);
    ]

let mechanism_share_to_json m =
  Json.Obj
    [
      ("mechanism", Json.of_string_option m.mechanism);
      ("fraction", Json.Float m.share_fraction);
      ("minutes_per_year", Json.Float m.share_minutes);
    ]

let explain_tier_to_json e =
  Json.Obj
    [
      ("tier", Json.String e.explain_tier_name);
      ("design", Json.String e.tier_design_text);
      ("resource", Json.String e.tier_resource);
      ("n_active", Json.Int e.tier_n_active);
      ("n_spare", Json.Int e.tier_n_spare);
      ("cost", Json.Float e.tier_cost);
      ( "downtime",
        Json.Obj
          [
            ("fraction", Json.Float e.tier_fraction);
            ("minutes_per_year", Json.Float e.tier_minutes);
            ("nines", Json.Float e.tier_nines);
            ("by_class", Json.List (List.map contribution_to_json e.by_class));
            ( "by_mechanism",
              Json.List (List.map mechanism_share_to_json e.by_mechanism) );
          ] );
      ("mean_failed_resources", Json.of_float_option e.mean_failed_resources);
      ("designs_considered", Json.Int e.designs_considered);
      ("runner_ups", Json.List (List.map runner_up_to_json e.runner_ups));
    ]

let explain_result_to_json ?version r =
  if not r.explain_feasible then
    versioned ?version [ ("feasible", Json.Bool false) ]
  else
    match r.body with
    | None -> versioned ?version [ ("feasible", Json.Bool false) ]
    | Some b ->
        versioned ?version
          [
            ("feasible", Json.Bool true);
            ("service", Json.String b.explain_service);
            ("engine", Json.String b.explain_engine);
            ("cost", Json.Float b.explain_cost);
            ( "downtime_minutes_per_year",
              Json.of_float_option b.explain_downtime_minutes );
            ( "execution_time_seconds",
              Json.of_float_option b.explain_execution_seconds );
            ( "provenance",
              Json.Obj
                [ ("noted", Json.Int b.noted); ("dropped", Json.Int b.dropped) ]
            );
            ("tiers", Json.List (List.map explain_tier_to_json b.explain_tiers));
          ]

let detail_of_json = function
  | Json.Null -> Ok No_detail
  | Json.String s -> Ok (Text_detail s)
  | Json.Float f -> Ok (Number_detail f)
  | Json.Int i -> Ok (Number_detail (float_of_int i))
  | _ -> decode_error "field \"fate_detail\": expected null, string or number"

let runner_up_of_json json =
  let* fields = as_obj json in
  let* runner_design = string_field "design" fields in
  let* fate = string_field "fate" fields in
  let* detail_json = field "fate_detail" fields in
  let* detail = detail_of_json detail_json in
  let* runner_cost = number_field "cost" fields in
  let* cost_delta = number_field "cost_delta" fields in
  let* runner_downtime_minutes =
    number_option_field "downtime_minutes_per_year" fields
  in
  let* downtime_delta_minutes =
    number_option_field "downtime_delta_minutes" fields
  in
  let* runner_execution_seconds =
    number_option_field "execution_time_seconds" fields
  in
  Ok
    {
      runner_design;
      fate;
      detail;
      runner_cost;
      cost_delta;
      runner_downtime_minutes;
      downtime_delta_minutes;
      runner_execution_seconds;
    }

let contribution_of_json json =
  let* fields = as_obj json in
  let* label = string_field "label" fields in
  let* repair_mechanism = field "repair_mechanism" fields in
  let* repair_mechanism = as_string_option "repair_mechanism" repair_mechanism in
  let* fraction = number_field "fraction" fields in
  let* contribution_minutes = number_field "minutes_per_year" fields in
  let* contribution_nines = number_field "nines" fields in
  Ok { label; repair_mechanism; fraction; contribution_minutes; contribution_nines }

let mechanism_share_of_json json =
  let* fields = as_obj json in
  let* mechanism = field "mechanism" fields in
  let* mechanism = as_string_option "mechanism" mechanism in
  let* share_fraction = number_field "fraction" fields in
  let* share_minutes = number_field "minutes_per_year" fields in
  Ok { mechanism; share_fraction; share_minutes }

let explain_tier_of_json json =
  let* fields = as_obj json in
  let* explain_tier_name = string_field "tier" fields in
  let* tier_design_text = string_field "design" fields in
  let* tier_resource = string_field "resource" fields in
  let* tier_n_active = int_field "n_active" fields in
  let* tier_n_spare = int_field "n_spare" fields in
  let* tier_cost = number_field "cost" fields in
  let* downtime = field "downtime" fields in
  let* downtime_fields = as_obj downtime in
  let* tier_fraction = number_field "fraction" downtime_fields in
  let* tier_minutes = number_field "minutes_per_year" downtime_fields in
  let* tier_nines = number_field "nines" downtime_fields in
  let* by_class = list_field "by_class" downtime_fields in
  let* by_class = map_result contribution_of_json by_class in
  let* by_mechanism = list_field "by_mechanism" downtime_fields in
  let* by_mechanism = map_result mechanism_share_of_json by_mechanism in
  let* mean_failed_resources =
    number_option_field "mean_failed_resources" fields
  in
  let* designs_considered = int_field "designs_considered" fields in
  let* runner_ups = list_field "runner_ups" fields in
  let* runner_ups = map_result runner_up_of_json runner_ups in
  Ok
    {
      explain_tier_name;
      tier_design_text;
      tier_resource;
      tier_n_active;
      tier_n_spare;
      tier_cost;
      tier_fraction;
      tier_minutes;
      tier_nines;
      by_class;
      by_mechanism;
      mean_failed_resources;
      designs_considered;
      runner_ups;
    }

let explain_result_of_json json =
  let* fields = as_obj json in
  let* fields = checked_version fields in
  let* feasible = field "feasible" fields in
  let* feasible = as_bool "feasible" feasible in
  if not feasible then Ok { explain_feasible = false; body = None }
  else
    let* explain_service = string_field "service" fields in
    let* explain_engine = string_field "engine" fields in
    let* explain_cost = number_field "cost" fields in
    let* explain_downtime_minutes =
      number_option_field "downtime_minutes_per_year" fields
    in
    let* explain_execution_seconds =
      number_option_field "execution_time_seconds" fields
    in
    let* provenance = field "provenance" fields in
    let* provenance_fields = as_obj provenance in
    let* noted = int_field "noted" provenance_fields in
    let* dropped = int_field "dropped" provenance_fields in
    let* tiers = list_field "tiers" fields in
    let* explain_tiers = map_result explain_tier_of_json tiers in
    Ok
      {
        explain_feasible = true;
        body =
          Some
            {
              explain_service;
              explain_engine;
              explain_cost;
              explain_downtime_minutes;
              explain_execution_seconds;
              noted;
              dropped;
              explain_tiers;
            };
      }

(* ------------------------------------------------------------------ *)
(* Check results *)

type diagnostic = {
  severity : string;
  code : string;
  file : string option;
  line : int option;
  col : int option;
  message : string;
}

type check_result = { diagnostics : diagnostic list }

let check_result_of_diagnostics diags =
  {
    diagnostics =
      List.map
        (fun (d : Aved_check.Diagnostic.t) ->
          let file, line, col =
            match d.span with
            | Some { file; line; col } -> (Some file, Some line, Some col)
            | None -> (None, None, None)
          in
          {
            severity = Aved_check.Diagnostic.severity_to_string d.severity;
            code = d.code;
            file;
            line;
            col;
            message = d.message;
          })
        diags;
  }

let diagnostic_to_json d =
  Json.Obj
    [
      ("severity", Json.String d.severity);
      ("code", Json.String d.code);
      ("file", Json.of_string_option d.file);
      ("line", (match d.line with Some l -> Json.Int l | None -> Json.Null));
      ("col", (match d.col with Some c -> Json.Int c | None -> Json.Null));
      ("message", Json.String d.message);
    ]

let check_result_to_json ?version c =
  let count severity =
    List.length (List.filter (fun d -> d.severity = severity) c.diagnostics)
  in
  versioned ?version
    [
      ("errors", Json.Int (count "error"));
      ("warnings", Json.Int (count "warning"));
      ("infos", Json.Int (count "info"));
      ("diagnostics", Json.List (List.map diagnostic_to_json c.diagnostics));
    ]

let diagnostic_of_json json =
  let* fields = as_obj json in
  let* severity = string_field "severity" fields in
  let* code = string_field "code" fields in
  let* file = field "file" fields in
  let* file = as_string_option "file" file in
  let* line = field "line" fields in
  let* line = as_int_option "line" line in
  let* col = field "col" fields in
  let* col = as_int_option "col" col in
  let* message = string_field "message" fields in
  Ok { severity; code; file; line; col; message }

let check_result_of_json json =
  let* fields = as_obj json in
  let* fields = checked_version fields in
  let* diags = list_field "diagnostics" fields in
  let* diagnostics = map_result diagnostic_of_json diags in
  Ok { diagnostics }

(* ------------------------------------------------------------------ *)
(* Metrics results *)

type metrics_result = { metrics_content_type : string; body : string }

let metrics_result_to_json ?version m =
  versioned ?version
    [
      ("content_type", Json.String m.metrics_content_type);
      ("body", Json.String m.body);
    ]

let metrics_result_of_json json =
  let* fields = as_obj json in
  let* fields = checked_version fields in
  let* metrics_content_type = string_field "content_type" fields in
  let* body = string_field "body" fields in
  Ok { metrics_content_type; body }

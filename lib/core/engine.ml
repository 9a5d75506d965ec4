module Duration = Aved_units.Duration
module Model = Aved_model
module Search = Aved_search

type report = Search.Service_search.report = {
  design : Model.Design.t;
  cost : Aved_units.Money.t;
  downtime : Duration.t option;
  execution_time : Duration.t option;
}

let design ?(config = Search.Search_config.default) ?jobs ?pool infra service
    requirements =
  let config =
    match jobs with
    | None -> config
    | Some jobs -> Search.Search_config.with_jobs jobs config
  in
  Model.Service.validate_against service infra;
  Search.Service_search.design ?pool config infra service requirements

let design_from_files ?config ?jobs ~infra_file ~service_file requirements =
  let infra, service = Aved_spec.Spec.load ~infra_file ~service_file in
  design ?config ?jobs infra service requirements

let evaluate_design infra service (d : Model.Design.t) ~demand =
  List.map
    (fun (td : Model.Design.tier_design) ->
      match Model.Service.find_tier service td.tier_name with
      | None ->
          invalid_arg
            (Printf.sprintf "Engine.evaluate_design: unknown tier %s"
               td.tier_name)
      | Some tier -> (
          match
            List.find_opt
              (fun (o : Model.Service.resource_option) ->
                String.equal o.resource td.resource)
              tier.options
          with
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Engine.evaluate_design: tier %s offers no resource %s"
                   td.tier_name td.resource)
          | Some option -> Aved_avail.Tier_model.build ~infra ~option ~design:td ~demand))
    d.tiers

type cross_check = { analytic : float; exact : float option; simulated : float }

let cross_check_simulation =
  {
    Aved_avail.Monte_carlo.replications = 16;
    horizon = Duration.of_years 30.;
    seed = 42;
  }

let cross_check m =
  {
    analytic = Aved_avail.Analytic.downtime_fraction m;
    exact =
      (match Aved_avail.Exact.downtime_fraction ~max_states:50000 m with
      | v -> Some v
      | exception Invalid_argument _ -> None);
    simulated =
      Aved_avail.Monte_carlo.downtime_fraction ~config:cross_check_simulation m;
  }

(* Assemble the decision-provenance explanation for a finished design
   run. Shared by [aved explain --json], the human explain report and
   the server's [explain] verb, so every front end attributes downtime
   identically. *)
let explain ?top ?trail ~config:_ infra (service : Model.Service.t)
    requirements (report : report) =
  let demand =
    match requirements with
    | Model.Requirements.Enterprise { throughput; _ } -> Some throughput
    | Model.Requirements.Finite_job _ -> None
  in
  let models = evaluate_design infra service report.design ~demand in
  let engine = Aved_avail.Evaluate.Analytic in
  {
    Aved_explain.Explain.service_name = service.Model.Service.service_name;
    engine = Aved_explain.Explain.engine_label engine;
    cost = report.cost;
    downtime = report.downtime;
    execution_time = report.execution_time;
    tiers =
      List.map2
        (fun (td : Model.Design.tier_design) model ->
          Aved_explain.Explain.explain_tier ?top ?trail ~engine ~design:td
            ~cost:(Model.Design.tier_cost infra td)
            ~model ())
        report.design.Model.Design.tiers models;
    noted =
      (match trail with Some t -> Search.Provenance.noted t | None -> 0);
    dropped =
      (match trail with Some t -> Search.Provenance.dropped t | None -> 0);
  }

let pp_report ppf (r : report) =
  Format.fprintf ppf "@[<v>%a@,annual cost: %a" Model.Design.pp r.design
    Aved_units.Money.pp r.cost;
  (match r.downtime with
  | Some d ->
      Format.fprintf ppf "@,predicted annual downtime: %.2f min"
        (Duration.minutes d)
  | None -> ());
  (match r.execution_time with
  | Some t ->
      Format.fprintf ppf "@,predicted job completion: %.2f h"
        (Duration.hours t)
  | None -> ());
  Format.fprintf ppf "@]"

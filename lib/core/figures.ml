module Duration = Aved_units.Duration
module Money = Aved_units.Money
module Model = Aved_model
module Search = Aved_search
module Pool = Aved_parallel.Pool
module Telemetry = Aved_telemetry.Telemetry

(* Per-point spans are labelled by load/requirement so a Chrome trace
   shows which sweep points dominate; the label is only built when a
   trace is recording. *)
let with_point_span fmt value body =
  if Telemetry.tracing () then
    Telemetry.with_span (Printf.sprintf fmt value) body
  else body ()

type fig6_point = {
  load : float;
  family : string;
  downtime_minutes : float;
  annual_cost : float;
  n_active : int;
}

type fig7_point = {
  requirement_hours : float;
  resource : string;
  n_resources : int;
  n_spares : int;
  checkpoint_interval_hours : float;
  storage_location : string;
  predicted_hours : float;
  annual_cost : float;
}

type fig8_point = {
  load : float;
  downtime_requirement_minutes : float;
  extra_annual_cost : float;
}

let log_spaced ~lo ~hi ~count =
  if count < 2 || lo <= 0. || hi < lo then
    invalid_arg "Figures.log_spaced: bad arguments";
  let ratio = Float.pow (hi /. lo) (1. /. float_of_int (count - 1)) in
  List.init count (fun i -> lo *. Float.pow ratio (float_of_int i))

let default_fig6_loads = List.init 24 (fun i -> 400. +. (200. *. float_of_int i))
let default_fig7_requirements = log_spaced ~lo:1. ~hi:1000. ~count:24
let default_fig8_loads = [ 400.; 800.; 1600.; 3200. ]
let default_fig8_downtimes = log_spaced ~lo:0.1 ~hi:100. ~count:16

(* ------------------------------------------------------------------ *)
(* Fig. 6 *)

let fig6 ?(config = Search.Search_config.default)
    ?(loads = default_fig6_loads) () =
  Telemetry.with_span "figures.fig6" @@ fun () ->
  let infra = Experiments.infrastructure () in
  let tier = Experiments.application_tier () in
  Pool.run ~jobs:config.Search.Search_config.jobs @@ fun pool ->
  List.concat
    (Pool.map pool
       (fun load ->
         let frontier =
           with_point_span "fig6.load:%.0f" load @@ fun () ->
           Search.Tier_search.frontier ~pool config infra ~tier ~demand:load
         in
         List.map
           (fun (c : Search.Candidate.t) ->
             {
               load;
               family =
                 Search.Candidate.family c
                   ~n_min_nominal:c.model.Aved_avail.Tier_model.n_min;
               downtime_minutes =
                 Duration.minutes (Search.Candidate.downtime c);
               annual_cost = Money.to_float c.cost;
               n_active = c.design.Model.Design.n_active;
             })
           frontier)
       loads)

(* ------------------------------------------------------------------ *)
(* Fig. 7 *)

let checkpoint_choice (design : Model.Design.tier_design) =
  match Model.Design.setting_of design "checkpoint" with
  | None -> (Duration.zero, "-")
  | Some setting ->
      let interval =
        match List.assoc_opt "checkpoint_interval" setting with
        | Some (Model.Mechanism.Duration_value d) -> d
        | Some (Model.Mechanism.Enum_value _) | None -> Duration.zero
      in
      let location =
        match List.assoc_opt "storage_location" setting with
        | Some (Model.Mechanism.Enum_value v) -> v
        | Some (Model.Mechanism.Duration_value _) | None -> "-"
      in
      (interval, location)

let fig7 ?(config = Experiments.fig7_config)
    ?(requirements_hours = default_fig7_requirements) () =
  Telemetry.with_span "figures.fig7" @@ fun () ->
  let infra = Experiments.infrastructure_bronze () in
  let tier = Experiments.computation_tier () in
  Pool.run ~jobs:config.Search.Search_config.jobs @@ fun pool ->
  List.filter_map Fun.id
  @@ Pool.map pool
       (fun requirement_hours ->
         let max_time = Duration.of_hours requirement_hours in
         match
           with_point_span "fig7.req:%.2fh" requirement_hours @@ fun () ->
           Search.Job_search.optimal ~pool config infra ~tier
             ~job_size:Experiments.scientific_job_size ~max_time
         with
         | None -> None
         | Some c ->
             let interval, location = checkpoint_choice c.design in
             Some
               {
                 requirement_hours;
                 resource = c.design.Model.Design.resource;
                 n_resources = c.design.Model.Design.n_active;
                 n_spares = c.design.Model.Design.n_spare;
                 checkpoint_interval_hours = Duration.hours interval;
                 storage_location = location;
                 predicted_hours = Duration.hours c.execution_time;
                 annual_cost = Money.to_float c.cost;
               })
       requirements_hours

(* ------------------------------------------------------------------ *)
(* Fig. 8 *)

let fig8 ?(config = Search.Search_config.default)
    ?(loads = default_fig8_loads)
    ?(downtimes_minutes = default_fig8_downtimes) () =
  Telemetry.with_span "figures.fig8" @@ fun () ->
  let infra = Experiments.infrastructure () in
  let tier = Experiments.application_tier () in
  Pool.run ~jobs:config.Search.Search_config.jobs @@ fun pool ->
  List.concat
  @@ Pool.map pool
       (fun load ->
         let frontier =
           with_point_span "fig8.load:%.0f" load @@ fun () ->
           Search.Tier_search.frontier ~pool config infra ~tier ~demand:load
         in
         match frontier with
         | [] -> []
         | cheapest :: _ ->
             let baseline = Money.to_float cheapest.Search.Candidate.cost in
             List.filter_map
               (fun req_minutes ->
                 let limit =
                   Duration.minutes (Duration.of_minutes req_minutes)
                 in
                 (* Frontier is sorted by increasing cost and decreasing
                    downtime: the first point within the limit is optimal. *)
                 List.find_opt
                   (fun (c : Search.Candidate.t) ->
                     Duration.minutes (Search.Candidate.downtime c) <= limit)
                   frontier
                 |> Option.map (fun (c : Search.Candidate.t) ->
                        {
                          load;
                          downtime_requirement_minutes = req_minutes;
                          extra_annual_cost =
                            Money.to_float c.cost -. baseline;
                        }))
               downtimes_minutes)
       loads

(* ------------------------------------------------------------------ *)
(* Printing *)

let print_table1 ppf =
  Format.fprintf ppf "@[<v>Table 1: performance functions@,%s@," (String.make 72 '-');
  List.iter
    (fun (where, attr, fn) ->
      Format.fprintf ppf "%-18s %-28s %s@," where attr fn)
    Experiments.table1;
  Format.fprintf ppf "@]"

let print_fig6 ppf points =
  Format.fprintf ppf
    "@[<v>Fig. 6: optimal design families (load, family, downtime min/yr, \
     cost/yr)@,%s@,"
    (String.make 84 '-');
  List.iter
    (fun (p : fig6_point) ->
      Format.fprintf ppf "load=%5.0f  %-44s  %10.3f  %10.0f@," p.load p.family
        p.downtime_minutes p.annual_cost)
    points;
  Format.fprintf ppf "@]"

let print_fig7 ppf points =
  Format.fprintf ppf
    "@[<v>Fig. 7: scientific application optimal design vs execution-time \
     requirement@,%s@,"
    (String.make 96 '-');
  Format.fprintf ppf
    "%12s %-9s %5s %7s %12s %9s %11s %11s@," "req (h)" "resource" "n"
    "spares" "ckpt (h)" "storage" "pred (h)" "cost/yr";
  List.iter
    (fun (p : fig7_point) ->
      Format.fprintf ppf
        "%12.2f %-9s %5d %7d %12.3f %9s %11.2f %11.0f@," p.requirement_hours
        p.resource p.n_resources p.n_spares p.checkpoint_interval_hours
        p.storage_location p.predicted_hours p.annual_cost)
    points;
  Format.fprintf ppf "@]"

let print_fig8 ppf points =
  Format.fprintf ppf
    "@[<v>Fig. 8: extra annual cost of availability vs downtime requirement@,%s@,"
    (String.make 64 '-');
  Format.fprintf ppf "%10s %18s %18s@," "load" "downtime req (min)"
    "extra cost/yr";
  List.iter
    (fun (p : fig8_point) ->
      Format.fprintf ppf "%10.0f %18.2f %18.0f@," p.load
        p.downtime_requirement_minutes p.extra_annual_cost)
    points;
  Format.fprintf ppf "@]"

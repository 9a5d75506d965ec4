module Duration = Aved_units.Duration
module Money = Aved_units.Money
module Model = Aved_model
module Avail = Aved_avail
module Perf_function = Aved_perf.Perf_function
module Telemetry = Aved_telemetry.Telemetry

type candidate = {
  design : Model.Design.tier_design;
  model : Avail.Tier_model.t;
  cost : Money.t;
  execution_time : Duration.t;
}

let evaluate infra ~option ~job_size design =
  let model = Avail.Tier_model.build ~infra ~option ~design ~demand:None in
  {
    design;
    model;
    cost = Model.Design.tier_cost infra design;
    execution_time =
      Avail.Evaluate.job_completion_time Avail.Evaluate.Analytic model
        ~job_size;
  }

(* The search's total order — lower cost, then faster completion, then
   {!Model.Design.compare_tier} — so the selected optimum is a function
   of the candidate set, not of the enumeration schedule. *)
let compare_total a b =
  match Money.compare a.cost b.cost with
  | 0 -> (
      match Duration.compare a.execution_time b.execution_time with
      | 0 -> Model.Design.compare_tier a.design b.design
      | c -> c)
  | c -> c

(* Failure-free completion time at nominal performance — a lower bound
   on the achievable execution time with [n] resources (slowdowns and
   failures only add to it). *)
let ideal_time ~(option : Model.Service.resource_option) ~job_size ~n =
  let perf = Perf_function.eval option.performance ~n in
  if perf <= 0. then None else Some (Duration.of_hours (job_size /. perf))

let feasible_n ~option ~job_size ~max_time n =
  match ideal_time ~option ~job_size ~n with
  | None -> false
  | Some ideal -> Duration.compare ideal max_time <= 0

(* The active counts of [total] that pass the failure-free
   feasibility precheck, fewest spares first. Settings-independent, so
   one list serves every mechanism combination at [total]. *)
let feasible_actives config ~(option : Model.Service.resource_option)
    ~job_size ~max_time ~total =
  List.filter_map
    (fun n_spare ->
      let n_active = total - n_spare in
      if
        n_active > 0
        && Model.Int_range.mem option.n_active n_active
        && feasible_n ~option ~job_size ~max_time n_active
      then Some n_active
      else None)
    (List.init (Stdlib.min config.Search_config.max_spares total + 1) Fun.id)

let start_total ~(option : Model.Service.resource_option) ~job_size ~max_time =
  Seq.find
    (fun n -> feasible_n ~option ~job_size ~max_time n)
    (Model.Int_range.to_seq option.n_active)

let option_limit config (option : Model.Service.resource_option) =
  Stdlib.min config.Search_config.max_total_resources
    (Model.Int_range.max_value option.n_active
   + config.Search_config.max_spares)

(* The finite-job kind of the option search: counts start at the
   first active count whose failure-free time meets [max_time]; a total
   admits the splits that pass the same precheck, whatever the
   settings; candidates are ranked by expected completion time. *)
let kind config ~job_size ~max_time : candidate Option_search.kind =
  {
    start =
      (fun ~tier_name:_ option -> start_total ~option ~job_size ~max_time);
    limit = (fun option ~start:_ -> option_limit config option);
    actives =
      (fun option ~total ->
        match feasible_actives config ~option ~job_size ~max_time ~total with
        | [] -> None
        | actives -> Some (fun _ -> actives));
    demand = None;
    measure_of =
      (fun entry ~n_active ~n_spare downtime_fraction ->
        Duration.seconds
          (Avail.Evaluate.job_completion_time_of ~downtime_fraction
             (Eval_cache.model entry ~n_active ~n_spare ~demand:None)
             ~job_size));
    make =
      (fun design model cost seconds ->
        { design; model; cost; execution_time = Duration.of_seconds seconds });
    design = (fun c -> c.design);
    cost = (fun c -> c.cost);
    measure = (fun c -> Duration.seconds c.execution_time);
    reported = (fun c -> (None, Some c.execution_time));
    compare = compare_total;
  }

let optimal ?pool config infra ~tier ~job_size ~max_time =
  Telemetry.with_span "search.job.optimal" @@ fun () ->
  Option_search.optimal ?pool config infra
    (kind config ~job_size ~max_time)
    ~bound:(Duration.seconds max_time)
    ~excess:(fun c -> Duration.sub c.execution_time max_time)
    ~tier

let pp_candidate ppf c =
  Format.fprintf ppf "%a | cost %a/yr | exec %.2f h"
    Model.Design.pp_tier c.design Money.pp c.cost
    (Duration.hours c.execution_time)

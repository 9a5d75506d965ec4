module Duration = Aved_units.Duration
module Availability = Aved_reliability.Availability
module Loss_window = Aved_reliability.Loss_window
module Telemetry = Aved_telemetry.Telemetry

type engine =
  | Analytic
  | Exact of { max_states : int }
  | Monte_carlo of Monte_carlo.config

let memoized () = Analytic

(* Per-engine invocation counters and solve-latency histograms. The
   disabled path pays one branch and stays allocation-free. *)
let analytic_calls = Telemetry.Counter.make "avail.engine.analytic.calls"
let analytic_seconds = Telemetry.Histogram.make "avail.engine.analytic.seconds"
let exact_calls = Telemetry.Counter.make "avail.engine.exact.calls"
let exact_seconds = Telemetry.Histogram.make "avail.engine.exact.seconds"
let exact_states = Telemetry.Histogram.make "avail.engine.exact.states"
let mc_calls = Telemetry.Counter.make "avail.engine.monte_carlo.calls"
let mc_seconds = Telemetry.Histogram.make "avail.engine.monte_carlo.seconds"

let tier_downtime_fraction engine model =
  match engine with
  | Analytic ->
      Telemetry.with_span "avail.engine.analytic" @@ fun () ->
      if Telemetry.enabled () then begin
        Telemetry.Counter.incr analytic_calls;
        Telemetry.Histogram.time analytic_seconds (fun () ->
            Analytic.downtime_fraction model)
      end
      else Analytic.downtime_fraction model
  | Exact { max_states } ->
      Telemetry.with_span "avail.engine.exact" @@ fun () ->
      if Telemetry.enabled () then begin
        Telemetry.Counter.incr exact_calls;
        Telemetry.Histogram.observe exact_states
          (float_of_int (Exact.num_states model));
        Telemetry.Histogram.time exact_seconds (fun () ->
            Exact.downtime_fraction ~max_states model)
      end
      else Exact.downtime_fraction ~max_states model
  | Monte_carlo config ->
      Telemetry.with_span "avail.engine.monte_carlo" @@ fun () ->
      if Telemetry.enabled () then begin
        Telemetry.Counter.incr mc_calls;
        Telemetry.Histogram.time mc_seconds (fun () ->
            Monte_carlo.downtime_fraction ~config model)
      end
      else Monte_carlo.downtime_fraction ~config model

(* ----- downtime decomposition (the explain layer's data source) ----- *)

type class_contribution = {
  label : string;
  repair_mechanism : string option;
  fraction : float;
}

type decomposition = {
  total : float;
  by_class : class_contribution list;
}

let decompose_calls = Telemetry.Counter.make "avail.engine.decompose.calls"

let tier_downtime_decomposition engine (model : Tier_model.t) =
  Telemetry.Counter.incr decompose_calls;
  let total, by_class =
    match engine with
    | Analytic ->
        (Analytic.downtime_fraction model, Analytic.downtime_by_class model)
    | Exact { max_states } ->
        ( Exact.downtime_fraction ~max_states model,
          Exact.downtime_by_class ~max_states model )
    | Monte_carlo config ->
        ( Monte_carlo.downtime_fraction ~config model,
          Monte_carlo.downtime_by_class ~config model )
  in
  (* by_class is in model order for every engine, so zip positionally
     (labels need not be unique when two elements share a component). *)
  let by_class =
    List.map2
      (fun (c : Tier_model.failure_class) (label, fraction) ->
        { label; repair_mechanism = c.repair_mechanism; fraction })
      model.classes by_class
  in
  { total; by_class }

let by_mechanism decomposition =
  let order = ref [] in
  let sums = Hashtbl.create 8 in
  List.iter
    (fun { repair_mechanism; fraction; _ } ->
      (match Hashtbl.find_opt sums repair_mechanism with
      | None ->
          order := repair_mechanism :: !order;
          Hashtbl.add sums repair_mechanism fraction
      | Some acc -> Hashtbl.replace sums repair_mechanism (acc +. fraction)))
    decomposition.by_class;
  List.rev_map (fun m -> (m, Hashtbl.find sums m)) !order

let tier_availability engine model =
  Availability.of_fraction (1. -. tier_downtime_fraction engine model)

let tier_annual_downtime engine model =
  Duration.of_years (tier_downtime_fraction engine model)

let service_availability engine models =
  Availability.series (List.map (tier_availability engine) models)

let service_annual_downtime engine models =
  Availability.annual_downtime (service_availability engine models)

let job_completion_time_of ~downtime_fraction (model : Tier_model.t)
    ~job_size =
  let rate_per_hour = model.effective_performance in
  if rate_per_hour <= 0. then
    raise (Tier_model.Rejected "Evaluate.job_completion_time: no throughput");
  let ideal = Duration.of_hours (job_size /. rate_per_hour) in
  let availability = Availability.of_fraction (1. -. downtime_fraction) in
  let mtbf = Tier_model.tier_mtbf model in
  (* Without checkpoints a failure loses the whole remaining job, so the
     loss window is the job itself; a configured window larger than the
     job is equally capped. *)
  let lw =
    match model.loss_window with
    | Some lw -> Duration.min lw ideal
    | None -> ideal
  in
  Loss_window.expected_job_time
    ~work_seconds:(Duration.seconds ideal)
    ~availability ~mtbf ~lw

let analytic_job_time engine (model : Tier_model.t) ~job_size =
  job_completion_time_of
    ~downtime_fraction:(tier_downtime_fraction engine model)
    model ~job_size

let job_completion_time engine model ~job_size =
  match engine with
  | Analytic | Exact _ -> analytic_job_time engine model ~job_size
  | Monte_carlo config ->
      let summary = Monte_carlo.job_completion_times ~config model ~job_size in
      Duration.of_hours summary.Aved_stats.Stats.mean

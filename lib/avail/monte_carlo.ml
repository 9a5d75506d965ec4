module Duration = Aved_units.Duration
module Rng = Aved_sim.Rng
module Distribution = Aved_sim.Distribution
module Replication = Aved_sim.Replication
module Stats = Aved_stats.Stats

type config = {
  replications : int;
  horizon : Duration.t;
  seed : int;
}

let default_config =
  { replications = 32; horizon = Duration.of_years 20.; seed = 42 }

type shape =
  | Exponential
  | Weibull_shape of float
  | Lognormal_sigma of float

type shapes = { failure : shape; repair : shape }

let exponential_shapes = { failure = Exponential; repair = Exponential }

let distribution_of shape ~mean =
  if mean <= 0. then Distribution.Deterministic 0.
  else
    match shape with
    | Exponential -> Distribution.exponential_of_mean mean
    | Weibull_shape k -> Distribution.weibull_of_mean ~shape:k ~mean
    | Lognormal_sigma sigma -> Distribution.lognormal_of_mean ~sigma ~mean

(* Each class's parameters, flattened into arrays once per call: every
   replication reads them on every event. *)
let plan_of (model : Tier_model.t) shapes =
  let classes = Array.of_list model.classes in
  let per_class f = Array.map f classes in
  {
    Replication.n_active = model.n_active;
    n_min = model.n_min;
    n_spare = model.n_spare;
    proposes = per_class (fun c -> c.Tier_model.rate > 0.);
    failure_dists =
      per_class (fun c ->
          distribution_of shapes.failure ~mean:(1. /. c.Tier_model.rate));
    repair_dists =
      per_class (fun c ->
          distribution_of shapes.repair
            ~mean:(Duration.seconds c.Tier_model.mttr));
    fails_over = per_class (fun c -> c.Tier_model.failover_considered);
    failover_seconds =
      per_class (fun c -> Duration.seconds c.Tier_model.failover_time);
  }

module Counter = Aved_telemetry.Telemetry.Counter

let events_counter = Counter.make "sim.events"
let replications_counter = Counter.make "sim.replications"

(* Runs a replication to [stop]. Its events are counted once, at the
   end, so the hot path never touches the sharded counter. *)
let run st ~stop =
  Replication.run st ~stop;
  Counter.add events_counter (Replication.events st)

let replicate config ~body =
  Counter.add replications_counter config.replications;
  let master = Rng.create config.seed in
  List.init config.replications (fun _ -> body (Rng.split master))

(* One replication over the configured horizon. *)
let simulate config plan rng =
  let st = Replication.create plan rng in
  run st ~stop:(Duration.seconds config.horizon);
  st

let downtime_fraction_samples ?(config = default_config)
    ?(shapes = exponential_shapes) model =
  let plan = plan_of model shapes in
  let horizon = Duration.seconds config.horizon in
  Array.of_list
    (replicate config ~body:(fun rng ->
         Replication.downtime (simulate config plan rng) /. horizon))

let downtime_fractions ?config ?shapes model =
  Stats.summarize (downtime_fraction_samples ?config ?shapes model)

let downtime_fraction ?config ?shapes model =
  (downtime_fractions ?config ?shapes model).mean

(* Empirical attribution: each replication charges every down interval
   to the class whose failure took the tier down, so the per-class sums
   equal the replication's downtime exactly; the attribution replays
   the same seeded trajectories as {!downtime_fraction}. A tier built
   down (n_min > n_active, impossible via {!Tier_model.build}) would
   leave its initial downtime unattributed. *)
let downtime_by_class ?(config = default_config)
    ?(shapes = exponential_shapes) model =
  let plan = plan_of model shapes in
  let horizon = Duration.seconds config.horizon in
  let j = List.length model.Tier_model.classes in
  let sums = Array.make (Stdlib.max 1 j) 0. in
  let per_replication =
    replicate config ~body:(fun rng ->
        Replication.class_downtime (simulate config plan rng))
  in
  List.iter
    (fun cd -> Array.iteri (fun i v -> sums.(i) <- sums.(i) +. v) cd)
    per_replication;
  let n = float_of_int config.replications in
  List.mapi
    (fun i (c : Tier_model.failure_class) ->
      (c.Tier_model.label, sums.(i) /. n /. horizon))
    model.Tier_model.classes

let exceedance_probability ?(config = default_config) ?shapes model ~budget =
  let budget_fraction =
    Duration.seconds budget /. Duration.seconds config.horizon
  in
  let samples = downtime_fraction_samples ~config ?shapes model in
  let over =
    Array.fold_left
      (fun acc f -> if f > budget_fraction then acc + 1 else acc)
      0 samples
  in
  float_of_int over /. float_of_int (Array.length samples)

let annual_downtime ?config ?shapes model =
  Duration.of_years (downtime_fraction ?config ?shapes model)

let job_completion_times ?(config = default_config)
    ?(shapes = exponential_shapes) model ~job_size =
  if job_size <= 0. then
    invalid_arg "Monte_carlo.job_completion_times: job_size must be positive";
  let rate_per_second =
    model.Tier_model.effective_performance /. 3600. (* units/hour -> /s *)
  in
  if rate_per_second <= 0. then
    raise (Tier_model.Rejected "Monte_carlo.job_completion_times: no throughput");
  let job =
    {
      Replication.rate_per_second;
      job_size;
      loss_window = Option.map Duration.seconds model.Tier_model.loss_window;
    }
  in
  let cap = Duration.seconds (Duration.of_years 1000.) in
  let plan = plan_of model shapes in
  let samples =
    replicate config ~body:(fun rng ->
        let st = Replication.create ~job plan rng in
        run st ~stop:cap;
        match Replication.completion st with
        | Some t -> t /. 3600. (* hours *)
        | None -> failwith "Monte_carlo: job did not finish in 1000 years")
  in
  Stats.summarize (Array.of_list samples)

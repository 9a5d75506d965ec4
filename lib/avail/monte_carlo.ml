module Duration = Aved_units.Duration
module Rng = Aved_sim.Rng
module Event_queue = Aved_sim.Event_queue
module Distribution = Aved_sim.Distribution
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
type plan = {
  n_active : int;
  n_min : int;
  n_spare : int;
  proposes : bool array;  (* rate > 0: the class arms a failure clock *)
  failure_dists : Distribution.t array;
  repair_dists : Distribution.t array;
  fails_over : bool array;  (* failover considered for the class *)
  failover_seconds : float array;
}

let plan_of (model : Tier_model.t) shapes =
  let classes = Array.of_list model.classes in
  let per_class f = Array.map f classes in
  {
    n_active = model.n_active;
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

(* Events are ints: a class index (>= 0) is a unit failure of that
   class. *)
let repair_complete = -1
let activation_complete = -2

(* All-float, so stored flat: advancing the clock does not box. *)
type clock = { mutable now : float; mutable downtime : float }

type state = {
  plan : plan;
  rng : Rng.t;
  queue : Event_queue.t;
  mutable active : int;  (* resources currently serving *)
  mutable activating : int;  (* spares warming up *)
  mutable spares : int;  (* cold/idle operational spares *)
  clock : clock;
  (* Empirical attribution: index of the class whose failure last took
     the tier down (-1 before any such event), and downtime accrued per
     class. Repairs and further failures while down do not reassign the
     cause; [class_downtime] sums to [clock.downtime] by construction. *)
  mutable down_cause : int;
  class_downtime : float array;
  (* Hooks for the job model; availability runs install none. *)
  mutable on_advance : (float -> float -> unit) option;
  mutable on_failure : (unit -> unit) option;
}

(* Arm the failure clock of one serving resource: every class proposes
   a time, the earliest fires (competing risks; exact for exponentials,
   the natural generalization otherwise). Ties go to the lower class. *)
let schedule_unit_failure st =
  let plan = st.plan in
  let best = ref (-1) in
  let best_dt = ref 0. in
  for i = 0 to Array.length plan.proposes - 1 do
    if plan.proposes.(i) then begin
      let dt = Distribution.sample plan.failure_dists.(i) st.rng in
      if !best < 0 || not (!best_dt <= dt) then begin
        best := i;
        best_dt := dt
      end
    end
  done;
  if !best >= 0 then
    Event_queue.push st.queue ~time:(st.clock.now +. !best_dt) !best

let make_state plan rng =
  let st =
    {
      plan;
      rng;
      queue = Event_queue.create ();
      active = plan.n_active;
      activating = 0;
      spares = plan.n_spare;
      clock = { now = 0.; downtime = 0. };
      down_cause = -1;
      class_downtime = Array.make (Array.length plan.proposes) 0.;
      on_advance = None;
      on_failure = None;
    }
  in
  for _ = 1 to st.active do
    schedule_unit_failure st
  done;
  st

let is_up st = st.active >= st.plan.n_min

let handle_event st ev =
  let plan = st.plan in
  if ev >= 0 then begin
    (match st.on_failure with Some f -> f () | None -> ());
    let was_up = is_up st in
    st.active <- st.active - 1;
    if was_up && not (is_up st) then st.down_cause <- ev;
    let repair_delay = Distribution.sample plan.repair_dists.(ev) st.rng in
    Event_queue.push st.queue ~time:(st.clock.now +. repair_delay)
      repair_complete;
    (* Spare activation: only when failover is considered for this
       mode, a spare is free, and the active set is short. *)
    if
      plan.fails_over.(ev) && st.spares > 0
      && st.active + st.activating < plan.n_active
    then begin
      st.spares <- st.spares - 1;
      st.activating <- st.activating + 1;
      Event_queue.push st.queue
        ~time:(st.clock.now +. plan.failover_seconds.(ev))
        activation_complete
    end
  end
  else if ev = repair_complete then begin
    (* A repaired resource rejoins service directly when the active
       set is short (its components restarted as part of the MTTR);
       otherwise it becomes a spare. *)
    if st.active + st.activating < plan.n_active then begin
      st.active <- st.active + 1;
      schedule_unit_failure st
    end
    else st.spares <- st.spares + 1
  end
  else begin
    st.activating <- st.activating - 1;
    st.active <- st.active + 1;
    schedule_unit_failure st
  end

module Counter = Aved_telemetry.Telemetry.Counter

let events_counter = Counter.make "sim.events"
let replications_counter = Counter.make "sim.replications"

(* Runs a fresh state's replication to [stop] (or until [continue] says
   no). Its events are counted once, at the end, so the hot path never
   touches the sharded counter. *)
let run ?continue st ~stop =
  let clock = st.clock in
  let finished = ref false in
  while
    (not !finished)
    && match continue with None -> true | Some k -> k ()
  do
    let t_event = Event_queue.min_time st.queue in
    (* [Float.min stop t_event]: neither is NaN. *)
    let t_next = if t_event > stop then stop else t_event in
    if Float.is_finite t_next then begin
      (match st.on_advance with Some f -> f clock.now t_next | None -> ());
      if not (is_up st) then begin
        let dt = t_next -. clock.now in
        clock.downtime <- clock.downtime +. dt;
        if st.down_cause >= 0 then
          st.class_downtime.(st.down_cause) <-
            st.class_downtime.(st.down_cause) +. dt
      end;
      clock.now <- t_next
    end;
    if t_next >= stop then finished := true
    else handle_event st (Event_queue.pop_min st.queue)
  done;
  Counter.add events_counter (Event_queue.pushes st.queue)

let replicate config ~body =
  Counter.add replications_counter config.replications;
  let master = Rng.create config.seed in
  List.init config.replications (fun _ -> body (Rng.split master))

(* One replication over the configured horizon. *)
let simulate config plan rng =
  let st = make_state plan rng in
  run st ~stop:(Duration.seconds config.horizon);
  st

let downtime_fraction_samples ?(config = default_config)
    ?(shapes = exponential_shapes) model =
  let plan = plan_of model shapes in
  let horizon = Duration.seconds config.horizon in
  Array.of_list
    (replicate config ~body:(fun rng ->
         (simulate config plan rng).clock.downtime /. horizon))

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
        (simulate config plan rng).class_downtime)
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
  let lw_seconds = Option.map Duration.seconds model.Tier_model.loss_window in
  let cap = Duration.seconds (Duration.of_years 1000.) in
  let plan = plan_of model shapes in
  let samples =
    replicate config ~body:(fun rng ->
        let st = make_state plan rng in
        let work = ref 0. in
        let checkpointed = ref 0. in
        let since_checkpoint = ref 0. in
        let completion = ref None in
        let advance t0 t1 =
          if is_up st && !completion = None then begin
            let remaining = ref (t1 -. t0) in
            let now = ref t0 in
            while !remaining > 0. && !completion = None do
              let to_checkpoint =
                match lw_seconds with
                | Some lw -> lw -. !since_checkpoint
                | None -> Float.infinity
              in
              let dt = Float.min !remaining to_checkpoint in
              let to_done = (job_size -. !work) /. rate_per_second in
              if to_done <= dt then begin
                completion := Some (!now +. to_done);
                work := job_size
              end
              else begin
                work := !work +. (dt *. rate_per_second);
                since_checkpoint := !since_checkpoint +. dt;
                now := !now +. dt;
                remaining := !remaining -. dt;
                match lw_seconds with
                | Some lw when !since_checkpoint >= lw -. 1e-9 ->
                    checkpointed := !work;
                    since_checkpoint := 0.
                | Some _ | None -> ()
              end
            done
          end
        in
        let on_failure () =
          if !completion = None then begin
            work := !checkpointed;
            since_checkpoint := 0.
          end
        in
        st.on_advance <- Some advance;
        st.on_failure <- Some on_failure;
        run st ~stop:cap ~continue:(fun () -> !completion = None);
        match !completion with
        | Some t -> t /. 3600. (* hours *)
        | None -> failwith "Monte_carlo: job did not finish in 1000 years")
  in
  Stats.summarize (Array.of_list samples)

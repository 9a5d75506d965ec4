module Duration = Aved_units.Duration
module Money = Aved_units.Money
module Search_config = Aved_search.Search_config
module Candidate = Aved_search.Candidate
module Tier_search = Aved_search.Tier_search
module Job_search = Aved_search.Job_search
module Service_search = Aved_search.Service_search
open Aved_model

let config = Search_config.default
let infra () = Aved.Experiments.infrastructure ()
let app_tier () = Aved.Experiments.application_tier ()

(* ------------------------------------------------------------------ *)
(* Frontier structure *)

let test_frontier_is_pareto () =
  let frontier =
    Tier_search.frontier config (infra ()) ~tier:(app_tier ()) ~demand:1000.
  in
  Alcotest.(check bool) "non-empty" true (frontier <> []);
  let rec check_sorted = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "cost increases" true
          Money.(a.Candidate.cost < b.Candidate.cost);
        Alcotest.(check bool) "downtime decreases" true
          (b.Candidate.downtime_fraction < a.Candidate.downtime_fraction);
        check_sorted rest
    | [ _ ] | [] -> ()
  in
  check_sorted frontier;
  (* No member dominates another. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a != b then
            Alcotest.(check bool) "no dominance" false (Candidate.dominates a b))
        frontier)
    frontier

let test_machineb_never_selected () =
  (* Paper §5.1: with linear scaling, the low-end machine always wins
     over the practical downtime range (the paper plots 0.1 to 10^4
     minutes; below that the frontier is numerical noise). *)
  List.iter
    (fun demand ->
      let frontier =
        Tier_search.frontier config (infra ()) ~tier:(app_tier ()) ~demand
      in
      List.iter
        (fun (c : Candidate.t) ->
          if
            Duration.minutes (Candidate.downtime c) >= 0.05
            && (String.equal c.design.Design.resource "rE"
               || String.equal c.design.Design.resource "rF")
          then Alcotest.failf "machineB selected at demand %g" demand)
        frontier)
    [ 400.; 1000.; 3200. ]

let test_paper_headline_point () =
  (* Paper Fig. 6: at (load 1000, downtime 100 min) the optimal family
     is (machineA/linux/appserverA, bronze, 1 extra, 0 spares) with a
     predicted downtime around 50 minutes. *)
  match
    Tier_search.optimal config (infra ()) ~tier:(app_tier ()) ~demand:1000.
      ~max_downtime:(Duration.of_minutes 100.)
  with
  | None -> Alcotest.fail "expected a design"
  | Some c ->
      Alcotest.(check string) "family" "(rC, bronze, 1, 0)"
        (Candidate.family c ~n_min_nominal:c.model.Aved_avail.Tier_model.n_min);
      let downtime = Duration.minutes (Candidate.downtime c) in
      Alcotest.(check bool)
        (Printf.sprintf "downtime %.1f in [20, 90]" downtime)
        true
        (downtime > 20. && downtime < 90.)

let test_optimal_meets_requirement () =
  List.iter
    (fun (demand, limit) ->
      match
        Tier_search.optimal config (infra ()) ~tier:(app_tier ()) ~demand
          ~max_downtime:(Duration.of_minutes limit)
      with
      | None -> Alcotest.failf "no design for (%g, %g)" demand limit
      | Some c ->
          Alcotest.(check bool) "feasible" true
            (Duration.minutes (Candidate.downtime c) <= limit);
          Alcotest.(check bool) "delivers demand" true
            (c.model.Aved_avail.Tier_model.effective_performance >= demand))
    [ (400., 1000.); (400., 10.); (2000., 100.); (5000., 1.) ]

let test_optimal_matches_frontier () =
  (* The single-design search must agree with reading the frontier. *)
  let frontier =
    Tier_search.frontier config (infra ()) ~tier:(app_tier ()) ~demand:800.
  in
  List.iter
    (fun limit ->
      let from_frontier =
        List.find_opt
          (fun (c : Candidate.t) ->
            Duration.minutes (Candidate.downtime c) <= limit)
          frontier
      in
      let from_search =
        Tier_search.optimal config (infra ()) ~tier:(app_tier ()) ~demand:800.
          ~max_downtime:(Duration.of_minutes limit)
      in
      match (from_frontier, from_search) with
      | None, None -> ()
      | Some f, Some s ->
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "cost at limit %g" limit)
            (Money.to_float f.cost) (Money.to_float s.cost)
      | Some _, None -> Alcotest.failf "search missed a design at %g" limit
      | None, Some _ -> Alcotest.failf "frontier missed a design at %g" limit)
    [ 5000.; 500.; 100.; 20.; 1. ]

let test_cost_monotone_in_requirement () =
  let cost limit =
    Tier_search.optimal config (infra ()) ~tier:(app_tier ()) ~demand:1600.
      ~max_downtime:(Duration.of_minutes limit)
    |> Option.map (fun c -> Money.to_float c.Candidate.cost)
  in
  let costs = List.filter_map cost [ 10000.; 1000.; 100.; 10.; 1. ] in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "tighter limit costs at least as much" true
    (non_decreasing costs)

let test_brute_force_equivalence () =
  (* Exhaustively enumerate the same bounded space and compare. *)
  let infra = infra () in
  let tier = app_tier () in
  let demand = 600. in
  let small =
    { config with max_extra_resources = 2; max_spares = 1 }
  in
  let all =
    List.concat_map
      (fun (option : Service.resource_option) ->
        let resource = Infrastructure.resource_exn infra option.resource in
        let settings = Tier_search.settings_product infra resource in
        match Tier_search.option_minimum ~option ~settings ~demand with
        | None -> []
        | Some start ->
            List.concat_map
              (fun total ->
                Tier_search.enumerate_total small infra ~tier_name:"application"
                  ~option ~demand ~total ())
              (List.init 4 (fun i -> start + i)))
      tier.options
  in
  List.iter
    (fun limit ->
      let feasible =
        List.filter
          (fun (c : Candidate.t) ->
            Duration.minutes (Candidate.downtime c) <= limit)
          all
      in
      let brute =
        List.fold_left
          (fun acc (c : Candidate.t) ->
            match acc with
            | None -> Some c
            | Some best ->
                if
                  Money.(c.cost < best.Candidate.cost)
                  || Money.equal c.cost best.Candidate.cost
                     && c.downtime_fraction < best.Candidate.downtime_fraction
                then Some c
                else acc)
          None feasible
      in
      let searched =
        Tier_search.optimal small infra ~tier ~demand
          ~max_downtime:(Duration.of_minutes limit)
      in
      match (brute, searched) with
      | None, None -> ()
      | Some b, Some s ->
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "limit %g" limit)
            (Money.to_float b.cost) (Money.to_float s.cost)
      | Some b, None ->
          Alcotest.failf "search missed %s at limit %g"
            (Candidate.family b ~n_min_nominal:0) limit
      | None, Some _ -> Alcotest.failf "search invented a design at %g" limit)
    [ 10000.; 2000.; 300.; 40.; 3.; 0.05 ]

let test_infeasible_demand () =
  (* nActive tops out at 1000 resources of 200 units each. *)
  Alcotest.(check bool) "absurd demand infeasible" true
    (Tier_search.optimal config (infra ()) ~tier:(app_tier ())
       ~demand:2_000_000. ~max_downtime:(Duration.of_minutes 100.)
    = None)

(* ------------------------------------------------------------------ *)
(* Job search *)

let sci_infra () = Aved.Experiments.infrastructure_bronze ()
let sci_tier () = Aved.Experiments.computation_tier ()
let job_size = Aved.Experiments.scientific_job_size
let job_config = Aved.Experiments.fig7_config

let test_job_optimal_basics () =
  List.iter
    (fun hours ->
      match
        Job_search.optimal job_config (sci_infra ()) ~tier:(sci_tier ())
          ~job_size ~max_time:(Duration.of_hours hours)
      with
      | None -> Alcotest.failf "no design for %gh" hours
      | Some c ->
          Alcotest.(check bool) "meets requirement" true
            (Duration.hours c.execution_time <= hours);
          Alcotest.(check bool) "has checkpoint setting" true
            (Design.setting_of c.design "checkpoint" <> None))
    [ 500.; 100.; 20. ]

let test_job_resource_crossover () =
  (* Paper Fig. 7: cheap machineA clusters for loose requirements, the
     16-way machineB for tight ones. *)
  let resource_at hours =
    match
      Job_search.optimal job_config (sci_infra ()) ~tier:(sci_tier ())
        ~job_size ~max_time:(Duration.of_hours hours)
    with
    | Some c -> c.design.Design.resource
    | None -> Alcotest.failf "no design for %gh" hours
  in
  Alcotest.(check string) "loose requirement uses machineA" "rH"
    (resource_at 500.);
  Alcotest.(check string) "tight requirement uses machineB" "rI"
    (resource_at 2.)

let test_job_n_decreases_with_relaxation () =
  let n_at hours =
    match
      Job_search.optimal job_config (sci_infra ()) ~tier:(sci_tier ())
        ~job_size ~max_time:(Duration.of_hours hours)
    with
    | Some c -> c.design.Design.n_active
    | None -> Alcotest.failf "no design for %gh" hours
  in
  let n100 = n_at 100. and n400 = n_at 400. in
  Alcotest.(check bool)
    (Printf.sprintf "n(100h)=%d > n(400h)=%d" n100 n400)
    true (n100 > n400)

let test_job_cost_monotone () =
  let cost_at hours =
    match
      Job_search.optimal job_config (sci_infra ()) ~tier:(sci_tier ())
        ~job_size ~max_time:(Duration.of_hours hours)
    with
    | Some c -> Money.to_float c.cost
    | None -> Float.infinity
  in
  Alcotest.(check bool) "tighter deadline costs more" true
    (cost_at 10. >= cost_at 100. && cost_at 100. >= cost_at 1000.)

let test_job_infeasible () =
  Alcotest.(check bool) "impossible deadline" true
    (Job_search.optimal job_config (sci_infra ()) ~tier:(sci_tier ())
       ~job_size
       ~max_time:(Duration.of_minutes 1.)
    = None)

let test_job_frontier () =
  let frontier =
    Job_search.frontier job_config (sci_infra ()) ~tier:(sci_tier ())
      ~job_size ~max_time:(Duration.of_hours 300.)
  in
  Alcotest.(check bool) "non-empty" true (frontier <> []);
  let rec check = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "cost increases" true
          Money.(a.Job_search.cost < b.Job_search.cost);
        Alcotest.(check bool) "time decreases" true
          (Duration.compare b.Job_search.execution_time
             a.Job_search.execution_time
          < 0);
        check rest
    | [ _ ] | [] -> ()
  in
  check frontier

(* ------------------------------------------------------------------ *)
(* Service-level search *)

let test_service_design_feasible () =
  let service = Aved.Experiments.ecommerce () in
  match
    Service_search.design config (infra ()) service
      (Requirements.enterprise ~throughput:1000.
         ~max_annual_downtime:(Duration.of_minutes 60.))
  with
  | None -> Alcotest.fail "expected a design"
  | Some report ->
      Alcotest.(check int) "three tiers" 3
        (List.length report.design.Design.tiers);
      (match report.downtime with
      | Some d ->
          Alcotest.(check bool) "within budget" true
            (Duration.minutes d <= 60.)
      | None -> Alcotest.fail "expected downtime");
      Alcotest.(check bool) "cost positive" true
        (Money.to_float report.cost > 0.);
      Design.validate_against report.design (infra ())

let test_service_budget_monotone () =
  let service = Aved.Experiments.ecommerce () in
  let cost limit =
    Service_search.design config (infra ()) service
      (Requirements.enterprise ~throughput:800.
         ~max_annual_downtime:(Duration.of_minutes limit))
    |> Option.map (fun (r : Service_search.report) -> Money.to_float r.cost)
  in
  match (cost 2000., cost 150., cost 60.) with
  | Some loose, Some mid, Some tight ->
      Alcotest.(check bool) "loose <= mid" true (loose <= mid);
      Alcotest.(check bool) "mid <= tight" true (mid <= tight)
  | _ -> Alcotest.fail "expected all three designs"

let test_service_requirement_mismatch () =
  let service = Aved.Experiments.ecommerce () in
  Alcotest.(check bool) "job requirement on enterprise service" true
    (match
       Service_search.design config (infra ()) service
         (Requirements.finite_job ~max_execution_time:(Duration.of_hours 1.))
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let sci = Aved.Experiments.scientific () in
  Alcotest.(check bool) "enterprise requirement on job service" true
    (match
       Service_search.design config (sci_infra ()) sci
         (Requirements.enterprise ~throughput:1.
          ~max_annual_downtime:(Duration.of_hours 1.))
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_service_job_dispatch () =
  let sci = Aved.Experiments.scientific () in
  match
    Service_search.design job_config (sci_infra ()) sci
      (Requirements.finite_job ~max_execution_time:(Duration.of_hours 100.))
  with
  | None -> Alcotest.fail "expected a design"
  | Some report -> (
      match report.execution_time with
      | Some t ->
          Alcotest.(check bool) "meets deadline" true (Duration.hours t <= 100.)
      | None -> Alcotest.fail "expected execution time")

let test_series_downtime () =
  (* Hand-check the series composition formula on two synthetic tiers. *)
  let mk fraction =
    {
      Candidate.design =
        Design.tier_design ~tier_name:"t" ~resource:"rC" ~n_active:1 ();
      model =
        {
          Aved_avail.Tier_model.tier_name = "t";
          n_active = 1;
          n_min = 1;
          n_spare = 0;
          failure_scope = Service.Resource_scope;
          classes = [];
          loss_window = None;
          effective_performance = 1.;
        };
      cost = Money.zero;
      downtime_fraction = fraction;
    }
  in
  Alcotest.(check (float 1e-12))
    "series" (1. -. (0.9 *. 0.8))
    (Service_search.series_downtime_fraction [ mk 0.1; mk 0.2 ])

(* ------------------------------------------------------------------ *)
(* Sensitivity *)

module Sensitivity = Aved_search.Sensitivity

let test_sensitivity_scaling () =
  let scaled =
    Sensitivity.scaled_infrastructure (infra ())
      { Sensitivity.mtbf_scale = 2.; mttr_scale = 0.5 }
  in
  let machine = Infrastructure.component_exn scaled "machineA" in
  (match machine.failure_modes with
  | hard :: _ ->
      Alcotest.(check (float 1e-9)) "mtbf doubled" 1300.
        (Duration.days hard.mtbf)
  | [] -> Alcotest.fail "no failure modes");
  let maint = Infrastructure.mechanism_exn scaled "maintenanceA" in
  (match Mechanism.mttr_of maint [ ("level", Mechanism.Enum_value "bronze") ] with
  | Some d -> Alcotest.(check (float 1e-9)) "mttr halved" 19. (Duration.hours d)
  | None -> Alcotest.fail "no mttr");
  Alcotest.(check bool) "bad scale rejected" true
    (match
       Sensitivity.scaled_infrastructure (infra ())
         { Sensitivity.mtbf_scale = 0.; mttr_scale = 1. }
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_sensitivity_improvement_direction () =
  (* Doubling MTBFs can only reduce the cost of the optimal design. *)
  let cost_with scale =
    let scaled =
      Sensitivity.scaled_infrastructure (infra ())
        { Sensitivity.nominal with mtbf_scale = scale }
    in
    Tier_search.optimal config scaled ~tier:(app_tier ()) ~demand:1000.
      ~max_downtime:(Duration.of_minutes 30.)
    |> Option.map (fun c -> Money.to_float c.Candidate.cost)
  in
  match (cost_with 1., cost_with 4.) with
  | Some nominal, Some reliable ->
      Alcotest.(check bool)
        (Printf.sprintf "more reliable parts cost less (%g vs %g)" reliable
           nominal)
        true (reliable <= nominal)
  | _ -> Alcotest.fail "expected designs under both variations"

let test_sensitivity_monotone_ladder () =
  (* Optimal cost is non-increasing along an MTBF-scaling ladder: more
     reliable parts never force a more expensive design. *)
  let cost_at scale =
    let scaled =
      Sensitivity.scaled_infrastructure (infra ())
        { Sensitivity.nominal with mtbf_scale = scale }
    in
    Tier_search.optimal config scaled ~tier:(app_tier ()) ~demand:1000.
      ~max_downtime:(Duration.of_minutes 100.)
    |> Option.fold ~none:Float.infinity ~some:(fun c ->
           Money.to_float c.Candidate.cost)
  in
  let ladder = List.map cost_at [ 0.5; 1.; 2.; 4. ] in
  Alcotest.(check bool) "nominal feasible" true
    (List.for_all Float.is_finite (List.tl ladder));
  let rec monotone = function
    | a :: (b :: _ as rest) -> b <= a && monotone rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool)
    (Printf.sprintf "costs non-increasing (%s)"
       (String.concat " >= " (List.map (Printf.sprintf "%g") ladder)))
    true (monotone ladder)

let test_sensitivity_outcomes () =
  let outcomes =
    Sensitivity.tier_sensitivity config (infra ()) ~tier:(app_tier ())
      ~demand:1000.
      ~max_downtime:(Duration.of_minutes 100.)
      ~variations:Sensitivity.default_variations
  in
  Alcotest.(check int) "five outcomes" 5 (List.length outcomes);
  List.iter
    (fun (o : Sensitivity.outcome) ->
      Alcotest.(check bool) "all feasible" true (o.candidate <> None))
    outcomes;
  (* The paper's headline design is robust to +-50%% data errors. *)
  match Sensitivity.stable_family outcomes with
  | Some family -> Alcotest.(check string) "stable" "(rC, bronze, 1, 0)" family
  | None ->
      (* Stability is scenario-dependent; at minimum the nominal family
         must be the headline one. *)
      (match outcomes with
      | { family = Some f; _ } :: _ ->
          Alcotest.(check string) "nominal family" "(rC, bronze, 1, 0)" f
      | _ -> Alcotest.fail "no nominal outcome")

(* ------------------------------------------------------------------ *)
(* Adaptive redesign *)

module Adaptive = Aved_search.Adaptive

let hour h = Duration.of_hours (float_of_int h)

let test_adaptive_replay () =
  let trace =
    [ (hour 0, 600.); (hour 1, 620.); (hour 2, 1500.); (hour 3, 1480.);
      (hour 4, 600.) ]
  in
  let replay =
    Adaptive.replay config (infra ()) ~tier:(app_tier ())
      ~max_downtime:(Duration.of_minutes 100.)
      ~trace ()
  in
  Alcotest.(check int) "steps" 5 (List.length replay.steps);
  (* 620 fits in the 600-design's risk envelope? No: loads above the
     sized-for demand force a redesign; 1480 within 1500's headroom. *)
  let flags = List.map (fun (s : Adaptive.step) -> s.redesigned) replay.steps in
  Alcotest.(check (list bool)) "redesign pattern"
    [ true; true; true; false; true ] flags;
  Alcotest.(check int) "redesign count" 3 replay.redesigns;
  Alcotest.(check bool) "average cost positive" true
    (Money.to_float replay.average_cost > 0.)

let test_adaptive_step_invariants () =
  let trace =
    [ (hour 0, 600.); (hour 1, 620.); (hour 2, 1500.); (hour 3, 1480.);
      (hour 4, 600.) ]
  in
  let replay =
    Adaptive.replay config (infra ()) ~tier:(app_tier ())
      ~max_downtime:(Duration.of_minutes 100.)
      ~trace ()
  in
  (* Every step's design in force delivers at least the step's load. *)
  List.iter
    (fun (s : Adaptive.step) ->
      Alcotest.(check bool)
        (Printf.sprintf "capacity %.0f covers load %.0f"
           s.candidate.Candidate.model.Aved_avail.Tier_model.effective_performance s.load)
        true
        (s.candidate.Candidate.model.Aved_avail.Tier_model.effective_performance
        >= s.load))
    replay.steps;
  (* A step without a redesign keeps the previous step's exact design. *)
  ignore
    (List.fold_left
       (fun prev (s : Adaptive.step) ->
         (match prev with
         | Some (p : Adaptive.step) when not s.redesigned ->
             Alcotest.(check int) "kept design" 0
               (Design.compare_tier s.candidate.Candidate.design
                  p.candidate.Candidate.design)
         | _ -> ());
         Some s)
       None replay.steps);
  (* Redesigns counts the [redesigned] steps after the initial one. *)
  let flagged =
    List.filteri (fun i (s : Adaptive.step) -> i > 0 && s.redesigned)
      replay.steps
  in
  Alcotest.(check int) "redesign count consistent" replay.redesigns
    (List.length flagged)

let test_adaptive_headroom_reduces_churn () =
  let trace =
    List.init 24 (fun h ->
        (hour h, 1000. +. (300. *. sin (float_of_int h /. 2.))))
  in
  let churn headroom =
    (Adaptive.replay config (infra ()) ~tier:(app_tier ())
       ~max_downtime:(Duration.of_minutes 100.)
       ~policy:{ Adaptive.headroom } ~trace ())
      .redesigns
  in
  Alcotest.(check bool) "more headroom, fewer redesigns" true
    (churn 1.0 <= churn 0.1)

let test_adaptive_validation () =
  let reject name trace =
    Alcotest.(check bool) name true
      (match
         Adaptive.replay config (infra ()) ~tier:(app_tier ())
           ~max_downtime:(Duration.of_minutes 100.)
           ~trace ()
       with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  reject "empty trace" [];
  reject "unordered trace" [ (hour 2, 100.); (hour 1, 100.) ];
  reject "infeasible load" [ (hour 0, 2_000_000.) ]

(* ------------------------------------------------------------------ *)
(* Load traces *)

module Load_trace = Aved_search.Load_trace

let test_trace_diurnal () =
  let trace =
    Load_trace.diurnal ~days:7 ~samples_per_day:24 ~base:500. ~peak:2000. ()
  in
  Alcotest.(check int) "length" (7 * 24) (List.length trace);
  Alcotest.(check (float 1.)) "peak reached" 2000. (Load_trace.peak_load trace);
  List.iter
    (fun (_, load) ->
      Alcotest.(check bool) "within envelope" true
        (load >= 1e-6 && load <= 2000. +. 1e-6))
    trace;
  (* Weekends scaled down. *)
  let weekend =
    Load_trace.diurnal ~days:7 ~samples_per_day:24 ~base:500. ~peak:2000.
      ~weekend_factor:0.5 ()
  in
  let nth n t = List.nth t n in
  let _, weekday_peak = nth (15 + 24) trace in
  let _, weekend_peak = nth (15 + (24 * 5)) weekend in
  Alcotest.(check bool) "weekend halved" true
    (weekend_peak < weekday_peak *. 0.6);
  Alcotest.(check bool) "bad args" true
    (match Load_trace.diurnal ~days:0 ~samples_per_day:1 ~base:1. ~peak:2. () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_trace_csv_roundtrip () =
  let trace =
    Load_trace.diurnal ~days:2 ~samples_per_day:6 ~base:100. ~peak:400. ()
  in
  let parsed = Load_trace.of_csv_string (Load_trace.to_csv_string trace) in
  Alcotest.(check int) "length" (List.length trace) (List.length parsed);
  List.iter2
    (fun (t1, l1) (t2, l2) ->
      Alcotest.(check (float 1e-3)) "time" (Duration.hours t1) (Duration.hours t2);
      Alcotest.(check (float 1e-3)) "load" l1 l2)
    trace parsed;
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "comments and blanks skipped"
    [ (1., 10.); (2., 20.) ]
    (List.map
       (fun (t, l) -> (Duration.hours t, l))
       (Load_trace.of_csv_string "# header\n1,10\n\n2,20\n"));
  List.iter
    (fun text ->
      Alcotest.(check bool) ("reject " ^ text) true
        (match Load_trace.of_csv_string text with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ "1,abc"; "1"; "2,5\n1,5"; "1,-4" ]

let test_trace_stats () =
  let trace =
    Load_trace.step ~levels:[ (1., 100.); (1., 300.) ] ~samples_per_level:2
  in
  Alcotest.(check int) "step samples" 4 (List.length trace);
  Alcotest.(check (float 1e-9)) "peak" 300. (Load_trace.peak_load trace);
  (* Time-weighted mean over [0, 1.5h): 100 for 1h, 300 for 0.5h. *)
  Alcotest.(check (float 1e-6)) "mean"
    ((100. +. 100. +. 300.) /. 3.)
    (Load_trace.mean_load trace)

let test_trace_feeds_adaptive () =
  let trace =
    Load_trace.diurnal ~days:1 ~samples_per_day:8 ~base:600. ~peak:1800. ()
  in
  let replay =
    Adaptive.replay config (infra ()) ~tier:(app_tier ())
      ~max_downtime:(Duration.of_minutes 100.)
      ~trace ()
  in
  Alcotest.(check int) "steps" 8 (List.length replay.steps)

(* ------------------------------------------------------------------ *)
(* Search_config composition *)

let test_config_with_jobs () =
  let c = Search_config.with_jobs 4 Search_config.default in
  Alcotest.(check int) "jobs set" 4 c.Search_config.jobs;
  (* Everything else is untouched. *)
  Alcotest.(check int) "max_spares preserved"
    Search_config.default.Search_config.max_spares c.Search_config.max_spares;
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d rejected" bad)
        true
        (match Search_config.with_jobs bad Search_config.default with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ 0; -1 ]

(* ------------------------------------------------------------------ *)
(* The evaluation cache: the search's one downtime cache *)

module Eval_cache = Aved_search.Eval_cache
module Telemetry = Aved_telemetry.Telemetry

(* Every model of the e-commerce application tier over each resource
   option, settings combination and spare mode, at small
   n_active/n_spare splits, paired with the entry that built it. *)
let application_models infra =
  let tier = app_tier () in
  List.concat_map
    (fun (option : Service.resource_option) ->
      List.concat_map
        (fun (_, base) ->
          List.concat_map
            (fun (_, entry) ->
              List.concat_map
                (fun n_active ->
                  List.filter_map
                    (fun n_spare ->
                      match
                        Eval_cache.model entry ~n_active ~n_spare
                          ~demand:(Some 300.)
                      with
                      | m -> Some (entry, m)
                      | exception Aved_avail.Tier_model.Rejected _ -> None)
                    [ 0; 1; 2 ])
                [ 1; 2; 3; 4 ])
            (Eval_cache.spare_entries base))
        (Eval_cache.settings_entries ~infra ~tier_name:tier.Service.tier_name
           ~option))
    tier.Service.options

let downtime_counts registry =
  ( Telemetry.Counter.read_by_name registry "search.eval.downtime.fresh",
    Telemetry.Counter.read_by_name registry "search.eval.downtime.reused" )

(* One pass over [infra]'s models: every cached downtime must be
   bitwise Engine A's own value. Returns the (fresh, reused) deltas. *)
let sweep registry infra =
  let fresh0, reused0 = downtime_counts registry in
  let models = application_models infra in
  List.iter
    (fun (entry, m) ->
      let cached =
        Eval_cache.downtime_fraction entry Aved_avail.Evaluate.Analytic m
      in
      let direct = Aved_avail.Analytic.downtime_fraction m in
      if Int64.bits_of_float cached <> Int64.bits_of_float direct then
        Alcotest.failf "%s n=%d s=%d: cached %.17e <> Engine A %.17e"
          m.Aved_avail.Tier_model.tier_name m.n_active m.n_spare cached direct)
    models;
  let fresh1, reused1 = downtime_counts registry in
  (List.length models, fresh1 - fresh0, reused1 - reused0)

let test_eval_cache_downtimes () =
  Eval_cache.reset ();
  let registry = Telemetry.create () in
  Telemetry.install registry;
  Fun.protect ~finally:Telemetry.uninstall @@ fun () ->
  let infra = infra () in
  let lookups, fresh, reused = sweep registry infra in
  Alcotest.(check bool) "the sweep covers many models" true (lookups > 100);
  Alcotest.(check int) "every lookup counted once" lookups (fresh + reused);
  Alcotest.(check bool) "first sweep computes" true (fresh > 0);
  let lookups', fresh', reused' = sweep registry infra in
  Alcotest.(check int) "same models" lookups lookups';
  Alcotest.(check int) "repeat sweep computes nothing" 0 fresh';
  Alcotest.(check int) "repeat sweep is all reuse" lookups reused';
  (* The same spec loaded again is a physically different value, which
     invalidates the cache: the same lookups are fresh again. *)
  let reloaded = Aved.Experiments.infrastructure () in
  Alcotest.(check bool) "reload is a new value" false (reloaded == infra);
  let lookups'', fresh'', reused'' = sweep registry reloaded in
  Alcotest.(check int) "same models after reload" lookups lookups'';
  Alcotest.(check int) "reload recomputes" fresh fresh'';
  Alcotest.(check int) "reload reuses as the first sweep did" reused reused''

let () =
  Alcotest.run "search"
    [
      ( "tier",
        [
          Alcotest.test_case "frontier is a Pareto set" `Quick
            test_frontier_is_pareto;
          Alcotest.test_case "machineB never selected" `Quick
            test_machineb_never_selected;
          Alcotest.test_case "paper headline point" `Quick
            test_paper_headline_point;
          Alcotest.test_case "optimal meets requirements" `Quick
            test_optimal_meets_requirement;
          Alcotest.test_case "optimal matches frontier" `Quick
            test_optimal_matches_frontier;
          Alcotest.test_case "cost monotone in requirement" `Quick
            test_cost_monotone_in_requirement;
          Alcotest.test_case "brute-force equivalence" `Quick
            test_brute_force_equivalence;
          Alcotest.test_case "infeasible demand" `Quick test_infeasible_demand;
        ] );
      ( "job",
        [
          Alcotest.test_case "meets requirement" `Quick test_job_optimal_basics;
          Alcotest.test_case "resource crossover" `Quick
            test_job_resource_crossover;
          Alcotest.test_case "n decreases with relaxation" `Quick
            test_job_n_decreases_with_relaxation;
          Alcotest.test_case "cost monotone" `Quick test_job_cost_monotone;
          Alcotest.test_case "infeasible deadline" `Quick test_job_infeasible;
          Alcotest.test_case "frontier" `Quick test_job_frontier;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "scaling" `Quick test_sensitivity_scaling;
          Alcotest.test_case "improvement direction" `Quick
            test_sensitivity_improvement_direction;
          Alcotest.test_case "monotone ladder" `Quick
            test_sensitivity_monotone_ladder;
          Alcotest.test_case "outcomes" `Quick test_sensitivity_outcomes;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "replay" `Quick test_adaptive_replay;
          Alcotest.test_case "step invariants" `Quick
            test_adaptive_step_invariants;
          Alcotest.test_case "headroom reduces churn" `Quick
            test_adaptive_headroom_reduces_churn;
          Alcotest.test_case "validation" `Quick test_adaptive_validation;
        ] );
      ( "load-trace",
        [
          Alcotest.test_case "diurnal" `Quick test_trace_diurnal;
          Alcotest.test_case "csv roundtrip" `Quick test_trace_csv_roundtrip;
          Alcotest.test_case "stats" `Quick test_trace_stats;
          Alcotest.test_case "feeds adaptive" `Quick test_trace_feeds_adaptive;
        ] );
      ( "config",
        [
          Alcotest.test_case "with_jobs" `Quick test_config_with_jobs;
        ] );
      ( "eval-cache",
        [
          Alcotest.test_case "downtimes are Engine A's, reuse counted once"
            `Quick test_eval_cache_downtimes;
        ] );
      ( "service",
        [
          Alcotest.test_case "feasible multi-tier design" `Quick
            test_service_design_feasible;
          Alcotest.test_case "budget monotone" `Quick
            test_service_budget_monotone;
          Alcotest.test_case "requirement mismatch" `Quick
            test_service_requirement_mismatch;
          Alcotest.test_case "finite job dispatch" `Quick
            test_service_job_dispatch;
          Alcotest.test_case "series composition" `Quick test_series_downtime;
        ] );
    ]

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

(* Every [step]-th active count from 1 to 1000. With no spares, every
   total between two admissible counts holds no design at all. *)
let stepped ~step (o : Service.resource_option) =
  { o with n_active = Int_range.arithmetic ~lo:1 ~hi:1000 ~step }

let stepped_loads =
  [ 200.; 400.; 800.; 1000.; 1500.; 2000.; 2500.; 3000.; 3500.; 4000.; 5000. ]

let stepped_budgets = [ 1000.; 500.; 200.; 100.; 50.; 30.; 10.; 5. ]

(* A total with no design neither stops the search nor counts against
   it: on rC and rA with stepped active counts and no spares, the
   optimal search finds what the frontier holds at every load and
   budget. *)
let test_optimal_matches_frontier_stepped () =
  let no_spares = { config with Search_config.max_spares = 0 } in
  let option tier resource =
    List.find
      (fun (o : Service.resource_option) -> o.resource = resource)
      (Option.get (Service.find_tier (Aved.Experiments.ecommerce ()) tier))
        .options
  in
  List.iter
    (fun step ->
      let tier =
        {
          Service.tier_name = "application";
          options =
            [
              stepped ~step (option "application" "rC");
              stepped ~step (option "web" "rA");
            ];
        }
      in
      List.iter
        (fun demand ->
          let frontier =
            Tier_search.frontier no_spares (infra ()) ~tier ~demand
          in
          List.iter
            (fun minutes ->
              let from_frontier =
                List.find_opt
                  (fun (c : Candidate.t) ->
                    Duration.minutes (Candidate.downtime c) <= minutes)
                  frontier
              in
              let from_search =
                Tier_search.optimal no_spares (infra ()) ~tier ~demand
                  ~max_downtime:(Duration.of_minutes minutes)
              in
              let cost =
                Option.map (fun (c : Candidate.t) -> Money.to_float c.cost)
              in
              Alcotest.(check (option (float 0.)))
                (Printf.sprintf "+%d, load %g, %g min" step demand minutes)
                (cost from_frontier) (cost from_search))
            stepped_budgets)
        stepped_loads)
    [ 2; 3 ]

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

(* The fewest resources of [option] that meet [demand] under some
   mechanism settings, from the uncached model functions: where a tier
   search's counts start. *)
let first_total infra (option : Service.resource_option) ~demand =
  let resource = Infrastructure.resource_exn infra option.resource in
  List.fold_left
    (fun least settings ->
      match
        (least, Aved_avail.Tier_model.minimum_actives ~option ~settings ~demand)
      with
      | None, n | n, None -> n
      | Some a, Some b -> Some (Stdlib.min a b))
    None
    (Aved_search.Eval_cache.settings_product infra resource)

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
        match first_total infra option ~demand with
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

(* ------------------------------------------------------------------ *)
(* Spare operational modes (paper §4.1): spares whose components run
   hot fail over faster, so the space with every downward-closed
   spare-active set reaches lower downtime than all-inactive spares. *)

(* The same with the finite-job search, on the scientific tier with
   stepped active counts and no spares. The reference searches each
   admissible count alone, in rising order, and stops at the first
   count whose cheapest design costs no less than the best found: an
   option's cheapest design never gets cheaper as its count grows.
   Counts above 200 are left out of the reference; every deadline here
   is met far below them. *)
let test_job_optimal_stepped () =
  let no_spares = { job_config with Search_config.max_spares = 0 } in
  let base = sci_tier () in
  let cost =
    Option.map (fun (c : Job_search.candidate) -> Money.to_float c.cost)
  in
  let optimal ~max_time tier =
    cost
      (Job_search.optimal no_spares (sci_infra ()) ~tier ~job_size ~max_time)
  in
  let alone (o : Service.resource_option) n =
    { base with options = [ { o with n_active = Int_range.singleton n } ] }
  in
  let rec scan ~max_time o best = function
    | [] -> best
    | n :: rest -> (
        let cheapest = optimal ~max_time:(Duration.of_years 1e6) (alone o n) in
        match (cheapest, best) with
        | Some c, Some b when c >= b -> best
        | _ ->
            let best =
              match (optimal ~max_time (alone o n), best) with
              | Some c, Some b -> Some (Float.min c b)
              | Some c, None -> Some c
              | None, best -> best
            in
            scan ~max_time o best rest)
  in
  List.iter
    (fun step ->
      let tier =
        { base with options = List.map (stepped ~step) base.options }
      in
      List.iter
        (fun hours ->
          let max_time = Duration.of_hours hours in
          let least =
            List.fold_left
              (fun best (o : Service.resource_option) ->
                match
                  ( scan ~max_time o None
                      (Int_range.between o.n_active ~lo:1 ~hi:200),
                    best )
                with
                | Some c, Some b -> Some (Float.min c b)
                | c, None -> c
                | None, b -> b)
              None tier.options
          in
          Alcotest.(check (option (float 0.)))
            (Printf.sprintf "+%d, %g h" step hours)
            least (optimal ~max_time tier))
        [ 500.; 200.; 100.; 80.; 60.; 40.; 30.; 20. ])
    [ 2; 3 ]

let with_spare_modes ?(jobs = 1) base =
  Search_config.with_jobs jobs
    { base with Search_config.explore_spare_modes = true }

let database_tier () =
  match Service.find_tier (Aved.Experiments.ecommerce ()) "database" with
  | Some tier -> tier
  | None -> Alcotest.fail "e-commerce service lacks its database tier"

let describe_tier (td : Design.tier_design) =
  Format.asprintf "%a" Design.pp_tier td

let check_floor what frontier ~points ~minutes ~cost =
  Alcotest.(check int) (what ^ ": frontier points") points
    (List.length frontier);
  match List.rev frontier with
  | [] -> Alcotest.failf "%s: empty frontier" what
  | floor :: _ ->
      Alcotest.(check string) (what ^ ": floor downtime") minutes
        (Printf.sprintf "%.2f" (Duration.minutes (Candidate.downtime floor)));
      Alcotest.(check (float 0.)) (what ^ ": floor cost") cost
        (Money.to_float floor.Candidate.cost)

let test_spare_mode_frontier () =
  let frontier config =
    Tier_search.frontier config (infra ()) ~tier:(database_tier ())
      ~demand:5000.
  in
  let cold = frontier config and hot = frontier (with_spare_modes config) in
  check_floor "all-inactive spares" cold ~points:16 ~minutes:"45.91"
    ~cost:469900.;
  check_floor "every spare mode" hot ~points:22 ~minutes:"0.56" ~cost:556000.;
  (* The larger space can only do better: every all-inactive frontier
     point is matched or beaten on both axes. *)
  List.iter
    (fun (p : Candidate.t) ->
      if
        not
          (List.exists
             (fun (q : Candidate.t) ->
               Money.(q.cost <= p.cost)
               && q.downtime_fraction <= p.downtime_fraction)
             hot)
      then
        Alcotest.failf "no spare-mode point covers %s" (describe_tier p.design))
    cold

let test_spare_mode_tier_optimal () =
  let optimal config =
    Tier_search.optimal config (infra ()) ~tier:(database_tier ())
      ~demand:5000. ~max_downtime:(Duration.of_minutes 10.)
  in
  Alcotest.(check bool) "out of reach with all-inactive spares" true
    (optimal config = None);
  match
    ( optimal (with_spare_modes config),
      optimal (with_spare_modes ~jobs:4 config) )
  with
  | Some a, Some b ->
      Alcotest.(check string) "a hot spare"
        "tier database: rG x1 active, 1 spare (spare-active: machineB,unix) \
         maintenanceB(level=bronze)"
        (describe_tier a.design);
      Alcotest.(check (float 0.)) "cost" 227600. (Money.to_float a.cost);
      Alcotest.(check string) "same design at --jobs 4" (describe_tier a.design)
        (describe_tier b.design);
      Alcotest.(check (float 0.)) "same downtime at --jobs 4"
        a.downtime_fraction b.downtime_fraction
  | _ -> Alcotest.fail "expected a spare-mode design at --jobs 1 and 4"

let test_spare_mode_job_optimal () =
  let optimal config =
    Job_search.optimal config (sci_infra ()) ~tier:(sci_tier ()) ~job_size
      ~max_time:(Duration.of_hours 60.)
  in
  match
    ( optimal job_config,
      optimal (with_spare_modes job_config),
      optimal (with_spare_modes ~jobs:4 job_config) )
  with
  | Some cold, Some a, Some b ->
      Alcotest.(check bool) "the requirement needs a spare" true
        (cold.design.Design.n_spare > 0);
      Alcotest.(check bool) "no costlier than all-inactive spares" true
        Money.(a.cost <= cold.cost);
      Alcotest.(check string) "same design at --jobs 4" (describe_tier a.design)
        (describe_tier b.design);
      Alcotest.(check (float 0.)) "same cost at --jobs 4"
        (Money.to_float a.cost) (Money.to_float b.cost);
      Alcotest.(check (float 0.)) "same completion time at --jobs 4"
        (Duration.seconds a.execution_time)
        (Duration.seconds b.execution_time)
  | _ -> Alcotest.fail "expected a 60 h design in every configuration"

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

(* A synthetic tier design with the given cost and downtime fraction. *)
let synthetic_candidate ?(cost = 0.) fraction =
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
    cost = Money.of_float cost;
    downtime_fraction = fraction;
  }

let test_series_downtime () =
  (* Hand-check the series composition formula on two synthetic tiers. *)
  Alcotest.(check (float 1e-12))
    "series" (1. -. (0.9 *. 0.8))
    (Service_search.series_downtime_fraction
       [ synthetic_candidate 0.1; synthetic_candidate 0.2 ])

(* ------------------------------------------------------------------ *)
(* Frontier combination *)

module Pool = Aved_parallel.Pool
module Telemetry = Aved_telemetry.Telemetry

(* The reference combination: scan the whole product in lexicographic
   path order and keep the first combination of least cost whose
   series downtime fits the budget — the minimum under (cost, path).
   Cost and series downtime are summed in the same left-to-right
   order as [Service_search.series_downtime_fraction], so the
   comparison is exact, not approximate. *)
let brute_force_combination frontiers ~budget_fraction =
  let arrays = Array.of_list (List.map Array.of_list frontiers) in
  let n = Array.length arrays in
  let path = Array.make n 0 in
  let best = ref None in
  let rec scan idx cost up =
    if idx = n then begin
      if 1. -. up <= budget_fraction then
        match !best with
        | Some (best_cost, _) when not (cost < best_cost) -> ()
        | Some _ | None -> best := Some (cost, Array.copy path)
    end
    else
      Array.iteri
        (fun i (c : Candidate.t) ->
          path.(idx) <- i;
          scan (idx + 1)
            (cost +. Money.to_float c.cost)
            (up *. (1. -. c.downtime_fraction)))
        arrays.(idx)
  in
  scan 0 0. 1.;
  Option.map
    (fun (_, path) ->
      List.mapi (fun idx i -> arrays.(idx).(i)) (Array.to_list path))
    !best

(* 1-4 frontiers of 0-40 points, each sorted by strictly rising cost
   and strictly falling downtime. Costs lie on a small integer grid so
   that distinct combinations often cost the same; half the budgets
   are the exact series downtime of some combination. *)
let gen_combination_case =
  let open QCheck2.Gen in
  let frontier =
    let* size = int_range 0 40 in
    let* first_cost = int_range 0 3 in
    let* cost_steps = list_repeat size (int_range 1 3) in
    let* first_downtime = float_range 1e-3 0.2 in
    let* downtime_ratios = list_repeat size (float_range 0.3 0.95) in
    let rec build cost downtime steps ratios =
      match (steps, ratios) with
      | step :: steps, ratio :: ratios ->
          synthetic_candidate ~cost:(float_of_int cost) downtime
          :: build (cost + step) (downtime *. ratio) steps ratios
      | _ -> []
    in
    return (build first_cost first_downtime cost_steps downtime_ratios)
  in
  let* frontiers = list_size (int_range 1 4) frontier in
  let* on_point = bool in
  let* picks = list_repeat (List.length frontiers) (int_range 0 39) in
  let attainable =
    if List.exists (fun f -> f = []) frontiers then None
    else
      Some
        (Service_search.series_downtime_fraction
           (List.map2
              (fun f i -> List.nth f (i mod List.length f))
              frontiers picks))
  in
  let* log_budget = float_range (Float.log 1e-4) (Float.log 0.5) in
  let budget_fraction =
    match attainable with
    | Some budget when on_point -> budget
    | Some _ | None -> Float.exp log_budget
  in
  return (frontiers, budget_fraction)

let show_points points =
  String.concat " "
    (List.map
       (fun (c : Candidate.t) ->
         Printf.sprintf "(%g,%h)" (Money.to_float c.cost) c.downtime_fraction)
       points)

let print_combination_case (frontiers, budget_fraction) =
  Printf.sprintf "budget %h, frontiers [%s]" budget_fraction
    (String.concat "; " (List.map show_points frontiers))

let combination_matches_brute_force ?pool (frontiers, budget_fraction) =
  let got = Service_search.combine_frontiers ?pool frontiers ~budget_fraction in
  let expected = brute_force_combination frontiers ~budget_fraction in
  match (got, expected) with
  | None, None -> true
  | Some got, Some expected
    when List.length got = List.length expected
         && List.for_all2 ( == ) got expected ->
      true
  | _ ->
      let show = Option.fold ~none:"none" ~some:show_points in
      QCheck2.Test.fail_reportf "combine_frontiers %s, brute force %s"
        (show got) (show expected)

let combination_property ?pool name =
  QCheck2.Test.make ~name ~count:300 ~print:print_combination_case
    gen_combination_case
    (combination_matches_brute_force ?pool)

let test_combine_brute_force_sequential () =
  QCheck2.Test.check_exn
    (combination_property "combination = brute force (sequential)")

let test_combine_brute_force_pool () =
  Pool.run ~jobs:2 @@ fun pool ->
  QCheck2.Test.check_exn
    (combination_property ~pool "combination = brute force (2-domain pool)")

(* The precondition [combine_frontiers] relies on: every e-commerce tier
   frontier is sorted by strictly rising cost and strictly falling
   downtime, at any load. *)
let frontiers_sorted =
  let service = Aved.Experiments.ecommerce () in
  let infra = infra () in
  QCheck2.Test.make ~name:"e-commerce tier frontiers strictly sorted"
    ~count:20 ~print:string_of_float
    QCheck2.Gen.(map Float.exp (float_range (Float.log 200.) (Float.log 4000.)))
    (fun demand ->
      List.for_all
        (fun (tier : Service.tier) ->
          let rec sorted = function
            | (a : Candidate.t) :: (b :: _ as rest) ->
                (Money.(a.cost < b.cost)
                 && b.downtime_fraction < a.downtime_fraction
                 || QCheck2.Test.fail_reportf "%s tier at load %g: %a then %a"
                      tier.tier_name demand
                      Candidate.pp a Candidate.pp b)
                && sorted rest
            | [ _ ] | [] -> true
          in
          sorted (Tier_search.frontier config infra ~tier ~demand))
        service.tiers)

(* The golden request (load 1000, 100 min/yr) reaches phase 2. The
   product scan checked 16 934 partial combinations for it; the
   output-sensitive combination checked 5 947, 4 105 since each
   bisection is bounded by its sibling's answer, and 659 on the
   frontiers capped to the phase-2 cost window. The ceiling leaves
   room for small changes to the frontiers, none for unbounded
   bisections or full frontiers. *)
let golden_combine_visited_ceiling = 800

let test_golden_combine_visited () =
  let registry = Telemetry.create () in
  let report =
    Telemetry.with_registry registry @@ fun () ->
    Service_search.design config (infra ()) (Aved.Experiments.ecommerce ())
      (Requirements.enterprise ~throughput:1000.
         ~max_annual_downtime:(Duration.of_minutes 100.))
  in
  let read = Telemetry.Counter.read_by_name registry in
  let visited = read "search.service.combine.visited" in
  Alcotest.(check (option (float 0.)))
    "golden cost" (Some 267620.)
    (Option.map (fun (r : Service_search.report) -> Money.to_float r.cost) report);
  Alcotest.(check bool)
    "reaches phase 2" true
    (read "search.service.combos_tested" > 0);
  if visited > golden_combine_visited_ceiling then
    Alcotest.failf "combine.visited %d > ceiling %d" visited
      golden_combine_visited_ceiling

(* ------------------------------------------------------------------ *)
(* Skyline frontier *)

module Skyline = Aved_search.Skyline
module Option_search = Aved_search.Option_search
module Provenance = Aved_search.Provenance

(* The reference frontier the skyline replaces: sort stably by (cost,
   measure), then keep each point that strictly improves the measure
   over everything before it. *)
let reference_pareto ~cost ~measure points =
  let sorted =
    List.stable_sort
      (fun a b ->
        match Float.compare (cost a) (cost b) with
        | 0 -> Float.compare (measure a) (measure b)
        | c -> c)
      points
  in
  let rec scan best acc = function
    | [] -> List.rev acc
    | p :: rest ->
        if measure p < best then scan (measure p) (p :: acc) rest
        else scan best acc rest
  in
  scan Float.infinity [] sorted

(* Up to 80 points on a 7 x 9 grid, so exact ties and equal costs are
   common, with a few infinite and NaN measures; and the sizes of the
   tasks the stream is split into. *)
let gen_stream =
  let open QCheck2.Gen in
  let point =
    pair
      (map float_of_int (int_range 0 6))
      (frequency
         [
           (12, map (fun k -> float_of_int k /. 8.) (int_range 0 8));
           (1, return Float.infinity);
           (1, return Float.nan);
         ])
  in
  pair (list_size (int_range 0 80) point) (list_size (int_range 1 8) (int_range 0 20))

let print_stream (points, _) =
  String.concat " " (List.map (fun (c, m) -> Printf.sprintf "(%g,%g)" c m) points)

(* [points] cut into consecutive tasks of the given sizes, the rest in
   a last task. *)
let split points sizes =
  let rec go points sizes =
    match (points, sizes) with
    | [], _ -> []
    | _, [] -> [ points ]
    | _, size :: sizes ->
        let task = List.filteri (fun i _ -> i < size) points in
        task :: go (List.filteri (fun i _ -> i >= size) points) sizes
  in
  go points sizes

(* The skyline of the stream, one skyline per task merged in task
   order, as the indices of its points in the whole stream. *)
let skyline_indices ?pool (points, sizes) =
  let tasks = Array.of_list (split (List.mapi (fun i p -> (i, p)) points) sizes) in
  let sky =
    Skyline.merge
      (Pool.fan_out ?pool
         (fun task ->
           let sky = Skyline.create () in
           List.iter
             (fun (i, (cost, measure)) ->
               Skyline.insert sky ~cost ~measure ~task ~design:i)
             tasks.(task);
           sky)
         (List.init (Array.length tasks) Fun.id))
  in
  List.init (Skyline.length sky) (Skyline.design sky)

let skyline_property ?pool name =
  QCheck2.Test.make ~name ~count:500 ~print:print_stream gen_stream
    (fun ((points, _) as stream) ->
      let expected =
        List.map fst
          (reference_pareto ~cost:(fun (_, (c, _)) -> c)
             ~measure:(fun (_, (_, m)) -> m)
             (List.mapi (fun i p -> (i, p)) points))
      in
      let got = skyline_indices ?pool stream in
      got = expected
      || QCheck2.Test.fail_reportf "skyline [%s], reference [%s]"
           (String.concat " " (List.map string_of_int got))
           (String.concat " " (List.map string_of_int expected)))

let test_skyline_synthetic_sequential () =
  QCheck2.Test.check_exn (skyline_property "skyline = sort and scan")

let test_skyline_synthetic_pool () =
  Pool.run ~jobs:2 @@ fun pool ->
  QCheck2.Test.check_exn
    (skyline_property ~pool "skyline = sort and scan, 2-domain pool")

(* Every candidate of the tier at [demand], in the enumeration order of
   the frontier search: options in order, totals rising. *)
let every_candidate infra (tier : Service.tier) ~demand =
  List.concat_map
    (fun (option : Service.resource_option) ->
      match first_total infra option ~demand with
      | None -> []
      | Some start ->
          let limit =
            Stdlib.min config.max_total_resources
              (start + config.max_extra_resources + config.max_spares)
          in
          List.concat_map
            (fun total ->
              Tier_search.enumerate_total config infra
                ~tier_name:tier.tier_name ~option ~demand ~total ())
            (List.init (limit - start + 1) (fun i -> start + i)))
    tier.options

let same_candidate (a : Candidate.t) (b : Candidate.t) =
  Design.compare_tier a.design b.design = 0
  && Money.equal a.cost b.cost
  && Int64.equal
       (Int64.bits_of_float a.downtime_fraction)
       (Int64.bits_of_float b.downtime_fraction)

(* The e-commerce web, application and database frontiers at 50 loads
   equal the reference frontier of every enumerated candidate. *)
let ecommerce_frontier_property ?pool name =
  let service = Aved.Experiments.ecommerce () in
  let infra = infra () in
  QCheck2.Test.make ~name ~count:50 ~print:string_of_float
    QCheck2.Gen.(map Float.exp (float_range (Float.log 200.) (Float.log 4000.)))
    (fun demand ->
      List.for_all
        (fun (tier : Service.tier) ->
          let expected =
            reference_pareto ~cost:(fun (c : Candidate.t) -> Money.to_float c.cost)
              ~measure:(fun (c : Candidate.t) -> c.downtime_fraction)
              (every_candidate infra tier ~demand)
          in
          let got = Tier_search.frontier ?pool config infra ~tier ~demand in
          (List.length got = List.length expected
          && List.for_all2 same_candidate got expected)
          || QCheck2.Test.fail_reportf "%s tier at load %g: %d points, reference %d"
               tier.tier_name demand (List.length got) (List.length expected))
        service.tiers)

let test_skyline_ecommerce_sequential () =
  QCheck2.Test.check_exn
    (ecommerce_frontier_property "e-commerce frontiers = sort and scan")

let test_skyline_ecommerce_pool () =
  Pool.run ~jobs:2 @@ fun pool ->
  QCheck2.Test.check_exn
    (ecommerce_frontier_property ~pool
       "e-commerce frontiers = sort and scan, 2-domain pool")

(* The frontier builds a candidate for its output points and for no
   other design it generates. *)
let test_frontier_builds_only_its_points () =
  let infra = infra () in
  List.iter
    (fun (tier : Service.tier) ->
      let built = ref 0 in
      let kind = Tier_search.kind config infra ~demand:1000. in
      let counting =
        {
          kind with
          make =
            (fun design model cost measure ->
              incr built;
              kind.make design model cost measure);
        }
      in
      let registry = Telemetry.create () in
      let frontier =
        Telemetry.with_registry registry (fun () ->
            Option_search.frontier config infra counting ~tier)
      in
      let generated =
        Telemetry.Counter.read_by_name registry "search.candidates.generated"
      in
      Alcotest.(check int)
        (tier.tier_name ^ ": candidates built") (List.length frontier) !built;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d designs generated for %d points" tier.tier_name
           generated !built)
        true
        (tier.tier_name = "database" || generated > 4 * !built);
      Alcotest.(check bool)
        (tier.tier_name ^ ": same frontier as Tier_search.frontier")
        true
        (List.for_all2 same_candidate frontier
           (Tier_search.frontier config infra ~tier ~demand:1000.)))
    (Aved.Experiments.ecommerce ()).tiers

(* A tier whose throughput peaks at 100 resources: at load 9990 the
   active counts from 104 up deliver less than the load, so the model
   builder rejects them. *)
let peaked_tier () =
  let service =
    Aved_spec.Spec.service_of_string
      "application=peaked\n\
       tier=app\n\
      \  resource=rC sizing=dynamic failurescope=resource \
       nActive=[1-1000,+1]\n\
      \    performance=200*n-n*n\n"
  in
  List.hd service.Service.tiers

(* The Rejected_by_model records a frontier and an optimal search of
   the peaked tier leave in a trail, in order, as "design | cost |
   reason". *)
let rejected_notes () =
  let infra = infra () and tier = peaked_tier () in
  let trail = Provenance.create ~capacity:100_000 () in
  Provenance.with_trail trail (fun () ->
      ignore (Tier_search.frontier config infra ~tier ~demand:9990.);
      ignore
        (Tier_search.optimal config infra ~tier ~demand:9990.
           ~max_downtime:(Duration.of_minutes 30.)));
  List.filter_map
    (fun (r : Provenance.record) ->
      match r.fate with
      | Provenance.Rejected_by_model { reason } ->
          Some
            (Printf.sprintf "%s | %s | %s" (Provenance.describe r.design)
               (Money.to_string r.cost) reason)
      | _ -> None)
    (Provenance.records trail ~tier:"app")

(* Captured from the search that built every candidate and sorted them
   into the frontier: the records, their order and their text must not
   change. *)
let expected_rejected_count = 32

let expected_rejected_first =
  [
    "tier app: rC x104 active, 0 spare maintenanceA(level=bronze) | 490880 | \
     Tier_model: tier app delivers 9984 < required 9990 with 104 resources";
    "tier app: rC x104 active, 0 spare maintenanceA(level=silver) | 511680 | \
     Tier_model: tier app delivers 9984 < required 9990 with 104 resources";
  ]

let expected_rejected_digest = "1dd9054ef86a98dd0ad8f0c17fba286e"

let test_rejected_notes_unchanged () =
  let notes = rejected_notes () in
  Alcotest.(check int) "rejected records" expected_rejected_count
    (List.length notes);
  Alcotest.(check (list string)) "first records" expected_rejected_first
    (List.filteri (fun i _ -> i < List.length expected_rejected_first) notes);
  Alcotest.(check string) "every record, in order" expected_rejected_digest
    (Digest.to_hex (Digest.string (String.concat "\n" notes)))

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
        Eval_cache.downtime entry ~n_active:m.Aved_avail.Tier_model.n_active
          ~n_spare:m.n_spare ~demand:(Some 300.)
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

(* Every occurrence of [sub] in [text] replaced by [by]. *)
let replace_all ~sub ~by text =
  let n = String.length sub in
  let buf = Buffer.create (String.length text) in
  let rec go i =
    if i > String.length text - n then
      Buffer.add_string buf (String.sub text i (String.length text - i))
    else if String.equal (String.sub text i n) sub then begin
      Buffer.add_string buf by;
      go (i + n)
    end
    else begin
      Buffer.add_char buf text.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

(* A spare-mode fan-out is derived from the infrastructure of the
   entry it fans out, not from whatever infrastructure the calling
   domain's cache holds by then. [B] differs from [A] in the machine's
   costs and the application server's failure rate, so a fan-out
   built from the wrong one shows in both. *)
let test_eval_cache_spare_entries_keep_infra () =
  Eval_cache.reset ();
  let infra_a = infra () in
  let infra_b =
    let replace ~sub ~by text =
      let text' = replace_all ~sub ~by text in
      if String.equal text text' then Alcotest.failf "spec lacks %S" sub;
      text'
    in
    Aved.Experiments.infrastructure_spec
    |> replace ~sub:"cost([inactive,active])=[2400 2640]"
         ~by:"cost([inactive,active])=[3100 3500]"
    |> replace
         ~sub:
           "component=appserverA cost([inactive,active])=[0 1700]\n\
           \  failure=soft mtbf=60d"
         ~by:
           "component=appserverA cost([inactive,active])=[0 1700]\n\
           \  failure=soft mtbf=20d"
    |> Aved_spec.Spec.infrastructure_of_string
  in
  let tier = app_tier () in
  let tier_name = tier.Service.tier_name in
  let option =
    List.find
      (fun (o : Service.resource_option) -> String.equal o.resource "rC")
      tier.Service.options
  in
  let settings =
    List.hd
      (Eval_cache.settings_product infra_a
         (Infrastructure.resource_exn infra_a "rC"))
  in
  let base_a =
    Eval_cache.entry ~infra:infra_a ~tier_name ~option ~settings
      ~spare_active:[]
  in
  (* Move the domain's cache over to B. *)
  ignore
    (Eval_cache.entry ~infra:infra_b ~tier_name ~option ~settings
       ~spare_active:[]);
  let pairs = Eval_cache.spare_entries base_a in
  Alcotest.(check bool) "several spare modes" true (List.length pairs > 1);
  List.iter
    (fun (spare_active, entry) ->
      let skeleton infra =
        Aved_avail.Tier_model.Skeleton.make ~infra ~tier_name ~option
          ~settings ~spare_active
      in
      let expected = skeleton infra_a and other = skeleton infra_b in
      let got = Eval_cache.skeleton entry in
      let cost skel =
        Money.to_float
          (Aved_avail.Tier_model.Skeleton.tier_cost skel ~n_active:3
             ~n_spare:2)
      in
      let classes skel = Aved_avail.Tier_model.Skeleton.classes skel ~spares:true in
      let mode = String.concat "+" spare_active in
      Alcotest.(check bool) (mode ^ ": A and B differ") true
        (cost expected <> cost other && classes expected <> classes other);
      Alcotest.(check (float 0.)) (mode ^ ": A's cost") (cost expected)
        (cost got);
      Alcotest.(check bool) (mode ^ ": A's classes") true
        (classes got = classes expected))
    pairs

(* ------------------------------------------------------------------ *)
(* A long run of distinct demands leaves bounded memory *)

(* The e-commerce design answer at load number [i] of a sequence of
   distinct loads in [200, 4000]: [200 * 20^frac(i * phi)]. *)
let design_at_distinct_load infra service i =
  let phi = (sqrt 5. -. 1.) /. 2. in
  let load = 200. *. Float.pow 20. (Float.rem (float_of_int i *. phi) 1.) in
  let report =
    Service_search.design config infra service
      (Requirements.enterprise ~throughput:load
         ~max_annual_downtime:(Duration.of_minutes 100.))
  in
  Aved_api.Api.design_result_of_report report
  |> Aved_api.Api.design_result_to_json
  |> Aved_api.Api.Json.to_string

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).live_words

(* A daemon fed ever-new loads keeps a bounded heap: no cache may hold
   an entry per demand served. One domain whose evaluation cache holds
   one infrastructure throughout, as a daemon serving one spec does,
   must hold about the same live heap after N and after 5N
   distinct-load designs, and give the answers a cold cache gives. *)
let test_distinct_demands_bounded_memory () =
  let n = 60 in
  let infra = infra () and service = Aved.Experiments.ecommerce () in
  let design = design_at_distinct_load infra service in
  Eval_cache.reset ();
  for i = 0 to n - 1 do
    ignore (design i)
  done;
  let after_n = live_words () in
  let kept = ref [] in
  for i = n to (5 * n) - 1 do
    let answer = design i in
    if i mod 37 = 0 then kept := (i, answer) :: !kept
  done;
  let after_5n = live_words () in
  if float_of_int after_5n > (1.05 *. float_of_int after_n) +. 4096. then
    Alcotest.failf "live words %d after %d designs, %d after %d" after_n n
      after_5n (5 * n);
  List.iter
    (fun (i, answer) ->
      Eval_cache.reset ();
      Alcotest.(check string) (Printf.sprintf "design %d" i) (design i) answer)
    !kept

(* ------------------------------------------------------------------ *)
(* Search cost does not grow with the width of the nActive range *)

(* The e-commerce design at one requirement, as the wire API's JSON,
   with the minor words the search allocated on this domain. Each run
   starts from an empty evaluation cache and a freshly parsed
   infrastructure, so neither run reuses the other's work. *)
let ecommerce_design_run ~n_active =
  let service =
    Aved_spec.Spec.service_of_string
      (replace_all ~sub:"nActive=[1-1000,+1]" ~by:("nActive=" ^ n_active)
         Aved.Experiments.ecommerce_spec)
  in
  let infra = infra () in
  Eval_cache.reset ();
  let words0 = Gc.minor_words () in
  let report =
    Service_search.design config infra service
      (Requirements.enterprise ~throughput:1000.
         ~max_annual_downtime:(Duration.of_minutes 100.))
  in
  let words = Gc.minor_words () -. words0 in
  let json =
    Aved_api.Api.design_result_of_report report
    |> Aved_api.Api.design_result_to_json
    |> Aved_api.Api.Json.to_string
  in
  (json, words)

let test_search_cost_independent_of_range_width () =
  (* An unmeasured first run, so one-time set-up is not charged to
     either measured one. *)
  ignore (ecommerce_design_run ~n_active:"[1-1000,+1]");
  let narrow, narrow_words = ecommerce_design_run ~n_active:"[1-1000,+1]" in
  let wide, wide_words = ecommerce_design_run ~n_active:"[1-100000,+1]" in
  Alcotest.(check string) "same answer" narrow wide;
  let ratio = Float.max narrow_words wide_words /. Float.min narrow_words wide_words in
  if ratio > 1.25 then
    Alcotest.failf
      "minor words %.0f at [1-1000,+1] vs %.0f at [1-100000,+1] (%.2fx)"
      narrow_words wide_words ratio

(* ------------------------------------------------------------------ *)
(* Phase-2 cost window *)

let gen_load =
  QCheck2.Gen.(map Float.exp (float_range (Float.log 200.) (Float.log 4000.)))

(* A capped frontier is the prefix of the full one up to the cap. The
   caps: a frontier point's exact cost, one unit either side of it,
   one unit below the cheapest point, and the largest float (Money
   holds no infinity). *)
let capped_prefix_property ?pool name =
  let service = Aved.Experiments.ecommerce () in
  let infra = infra () in
  QCheck2.Test.make ~name ~count:30
    ~print:(fun (load, k) -> Printf.sprintf "load %g, point %d" load k)
    QCheck2.Gen.(pair gen_load (int_bound 1000))
    (fun (demand, k) ->
      List.for_all
        (fun (tier : Service.tier) ->
          let full = Tier_search.frontier ?pool config infra ~tier ~demand in
          let cost_of (c : Candidate.t) = Money.to_float c.cost in
          let at = cost_of (List.nth full (k mod List.length full)) in
          List.for_all
            (fun cap ->
              let expected = List.filter (fun c -> cost_of c <= cap) full in
              let got =
                Tier_search.frontier ?pool ~cost_cap:(Money.of_float cap) config
                  infra ~tier ~demand
              in
              (List.length got = List.length expected
              && List.for_all2 same_candidate got expected)
              || QCheck2.Test.fail_reportf
                   "%s tier at load %g, cap %.17g: %d points, prefix %d"
                   tier.tier_name demand cap (List.length got)
                   (List.length expected))
            [
              at; at -. 1.; at +. 1.; cost_of (List.hd full) -. 1.;
              Float.max_float;
            ])
        service.tiers)

let test_capped_prefix_sequential () =
  QCheck2.Test.check_exn
    (capped_prefix_property "capped frontier = prefix of the full one")

let test_capped_prefix_pool () =
  Pool.run ~jobs:2 @@ fun pool ->
  QCheck2.Test.check_exn
    (capped_prefix_property ~pool
       "capped frontier = prefix of the full one, 2-domain pool")

(* Per option, the cheapest design at total t never exceeds the
   cheapest at t + 1. The optimal search stops on it, and so do a
   capped frontier's totals. A cap of zero prices every design and
   evaluates none. *)
let cheapest_monotone_in_total =
  let service = Aved.Experiments.ecommerce () in
  let infra = infra () in
  QCheck2.Test.make ~name:"cheapest design never falls as the total grows"
    ~count:30 ~print:string_of_float gen_load (fun demand ->
      let kind = Tier_search.kind config infra ~demand in
      List.for_all
        (fun (tier : Service.tier) ->
          let tier_name = tier.tier_name in
          List.for_all
            (fun (option : Service.resource_option) ->
              match kind.start ~tier_name option with
              | None -> true
              | Some start ->
                  let cheapest total =
                    (Option_search.enumerate config infra kind ~tier_name
                       ~option ~total ~keep:All ~cost_cap:Money.zero ())
                      .min_cost
                  in
                  List.for_all
                    (fun total ->
                      cheapest total <= cheapest (total + 1)
                      || QCheck2.Test.fail_reportf
                           "%s tier, %s at load %g: %.17g at %d, %.17g at %d"
                           tier_name option.resource demand (cheapest total)
                           total
                           (cheapest (total + 1))
                           (total + 1))
                    (List.init
                       (kind.limit option ~start - start)
                       (fun i -> start + i)))
            tier.options)
        service.tiers)

(* The e-commerce design as the wire API's JSON, from phase 1 and,
   when it is needed, the combination of the full tier frontiers: the
   search without the cost window. *)
let full_frontier_design ?pool ?(config = config) infra (service : Service.t)
    (load, budget) =
  let max_downtime = Duration.of_minutes budget in
  let budget_fraction = Duration.years max_downtime in
  let isolated =
    List.map
      (fun tier ->
        Tier_search.optimal ?pool config infra ~tier ~demand:load ~max_downtime)
      service.tiers
  in
  let chosen =
    if not (List.for_all Option.is_some isolated) then None
    else
      let candidates = List.filter_map Fun.id isolated in
      if Service_search.series_downtime_fraction candidates <= budget_fraction
      then Some candidates
      else
        Service_search.combine_frontiers ?pool
          (List.map
             (fun tier ->
               Tier_search.frontier ?pool config infra ~tier ~demand:load)
             service.tiers)
          ~budget_fraction
  in
  Option.map
    (fun (candidates : Candidate.t list) ->
      {
        Service_search.design =
          Design.make ~service_name:service.service_name
            ~tiers:(List.map (fun (c : Candidate.t) -> c.design) candidates);
        cost =
          Money.sum (List.map (fun (c : Candidate.t) -> c.cost) candidates);
        downtime =
          Some
            (Duration.of_years
               (Service_search.series_downtime_fraction candidates));
        execution_time = None;
      })
    chosen
  |> Aved_api.Api.design_result_of_report
  |> Aved_api.Api.design_result_to_json
  |> Aved_api.Api.Json.to_string

(* The design and the phase-2 rounds it took. *)
let windowed_design ?pool ?(config = config) infra service (load, budget) =
  let registry = Telemetry.create () in
  let report =
    Telemetry.with_registry registry @@ fun () ->
    Service_search.design ?pool config infra service
      (Requirements.enterprise ~throughput:load
         ~max_annual_downtime:(Duration.of_minutes budget))
  in
  ( Aved_api.Api.design_result_of_report report
    |> Aved_api.Api.design_result_to_json
    |> Aved_api.Api.Json.to_string,
    Telemetry.Counter.read_by_name registry "search.service.phase2.rounds" )

(* Requests whose answer costs more than the first window: phase 2
   needs a second round for them (found by the rounds counter over
   3 000 seeded requests). *)
let widening_requests =
  [ (229.74968478087953, 146.955662951547);
    (1475.8689782573372, 180.72497269409661) ]

(* The windowed phase 2 gives the same answer as the full frontiers,
   over random loads in 200-4000 and budgets in 5-500 min/yr, and on
   the requests that widen the window. *)
let window_equivalence ?pool () =
  let service = Aved.Experiments.ecommerce () in
  let infra = infra () in
  List.iter
    (fun request ->
      let got, rounds = windowed_design ?pool infra service request in
      if rounds < 2 then
        Alcotest.failf "load %.17g, %.17g min/yr: %d phase-2 rounds"
          (fst request) (snd request) rounds;
      Alcotest.(check string)
        "widened window: same answer"
        (full_frontier_design ?pool infra service request)
        got)
    widening_requests;
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"windowed phase 2 = full frontiers" ~count:150
       ~print:(fun (load, budget) ->
         Printf.sprintf "load %.17g, %.17g min/yr" load budget)
       QCheck2.Gen.(
         pair gen_load
           (map Float.exp (float_range (Float.log 5.) (Float.log 500.))))
       (fun request ->
         let got, _ = windowed_design ?pool infra service request in
         let expected = full_frontier_design ?pool infra service request in
         got = expected
         || QCheck2.Test.fail_reportf "windowed %s, full frontiers %s" got
              expected))

let test_window_equivalence_sequential () = window_equivalence ()

(* The e-commerce infrastructure with free components and free bronze
   maintenance. With no extra resources and no spares, every tier's
   phase-1 optimum costs nothing at load 1000 and 1000 min/yr, but
   the answer does not: the window starts at C = 0, where doubling
   cannot widen it. *)
let test_window_free_optima () =
  let infra =
    Aved_spec.Spec.infrastructure_of_string
      (List.fold_left
         (fun spec (sub, by) -> replace_all ~sub ~by spec)
         Aved.Experiments.infrastructure_spec
         [
           ("cost([inactive,active])=[2400 2640]", "cost=0");
           ("cost([inactive,active])=[85000 93500]", "cost=0");
           ("cost([inactive,active])=[0 200]", "cost=0");
           ("cost([inactive,active])=[0 1700]", "cost=0");
           ("cost([inactive,active])=[0 2000]", "cost=0");
           ("cost([inactive,active])=[0 20000]", "cost=0");
           ("cost(level)=[380 580 760 1500]", "cost(level)=[0 580 760 1500]");
           ( "cost(level)=[10100 12600 15800 25300]",
             "cost(level)=[0 12600 15800 25300]" );
         ])
  in
  let config = { config with max_extra_resources = 0; max_spares = 0 } in
  let service = Aved.Experiments.ecommerce () in
  let request = (1000., 1000.) in
  let max_downtime = Duration.of_minutes (snd request) in
  List.iter
    (fun tier ->
      match
        Tier_search.optimal config infra ~tier ~demand:(fst request)
          ~max_downtime
      with
      | Some c ->
          Alcotest.(check (float 0.)) "free phase-1 optimum" 0.
            (Money.to_float c.cost)
      | None -> Alcotest.fail "expected a phase-1 optimum")
    service.tiers;
  (match
     Service_search.design config infra service
       (Requirements.enterprise ~throughput:(fst request)
          ~max_annual_downtime:max_downtime)
   with
  | Some r ->
      Alcotest.(check bool) "the answer costs something" true
        (Money.to_float r.cost > 0.)
  | None -> Alcotest.fail "expected a design");
  let got, rounds = windowed_design ~config infra service request in
  Alcotest.(check bool) "reaches phase 2" true (rounds >= 1);
  Alcotest.(check string)
    "same answer as the full frontiers"
    (full_frontier_design ~config infra service request)
    got

let test_window_equivalence_pool () =
  Pool.run ~jobs:2 @@ fun pool -> window_equivalence ~pool ()

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
          Alcotest.test_case "optimal matches frontier, stepped counts" `Quick
            test_optimal_matches_frontier_stepped;
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
          Alcotest.test_case "optimal over stepped counts" `Quick
            test_job_optimal_stepped;
        ] );
      ( "spare modes",
        [
          Alcotest.test_case "frontier weakly dominates the default" `Quick
            test_spare_mode_frontier;
          Alcotest.test_case "tier optimal is a hot spare at any --jobs"
            `Quick test_spare_mode_tier_optimal;
          Alcotest.test_case "job optimal at any --jobs, no costlier" `Quick
            test_spare_mode_job_optimal;
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
          Alcotest.test_case "spare modes keep the entry's infrastructure"
            `Quick test_eval_cache_spare_entries_keep_infra;
        ] );
      ( "memory",
        [
          Alcotest.test_case "distinct demands: bounded live heap" `Quick
            test_distinct_demands_bounded_memory;
        ] );
      ( "range width",
        [
          Alcotest.test_case "wide nActive: same answer, same allocation"
            `Quick test_search_cost_independent_of_range_width;
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
      ( "combination",
        [
          Alcotest.test_case "brute-force equivalence, sequential" `Quick
            test_combine_brute_force_sequential;
          Alcotest.test_case "brute-force equivalence, 2-domain pool" `Quick
            test_combine_brute_force_pool;
          QCheck_alcotest.to_alcotest frontiers_sorted;
          Alcotest.test_case "golden request: visits under ceiling" `Quick
            test_golden_combine_visited;
        ] );
      ( "skyline",
        [
          Alcotest.test_case "synthetic streams = sort and scan, sequential"
            `Quick test_skyline_synthetic_sequential;
          Alcotest.test_case "synthetic streams = sort and scan, 2-domain pool"
            `Quick test_skyline_synthetic_pool;
          Alcotest.test_case "e-commerce tiers = sort and scan, sequential"
            `Quick test_skyline_ecommerce_sequential;
          Alcotest.test_case "e-commerce tiers = sort and scan, 2-domain pool"
            `Quick test_skyline_ecommerce_pool;
          Alcotest.test_case "candidates built only for frontier points"
            `Quick test_frontier_builds_only_its_points;
          Alcotest.test_case "explain: rejected-by-model records unchanged"
            `Quick test_rejected_notes_unchanged;
        ] );
      ( "window",
        [
          Alcotest.test_case "capped frontier = prefix, sequential" `Quick
            test_capped_prefix_sequential;
          Alcotest.test_case "capped frontier = prefix, 2-domain pool" `Quick
            test_capped_prefix_pool;
          QCheck_alcotest.to_alcotest cheapest_monotone_in_total;
          Alcotest.test_case "windowed phase 2 = full frontiers, sequential"
            `Quick test_window_equivalence_sequential;
          Alcotest.test_case
            "windowed phase 2 = full frontiers, 2-domain pool" `Quick
            test_window_equivalence_pool;
          Alcotest.test_case "free phase-1 optima end the rounds" `Quick
            test_window_free_optima;
        ] );
    ]

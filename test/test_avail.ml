module Duration = Aved_units.Duration
module Money = Aved_units.Money
module Tier_model = Aved_avail.Tier_model
module Analytic = Aved_avail.Analytic
module Exact = Aved_avail.Exact
module Monte_carlo = Aved_avail.Monte_carlo
module Evaluate = Aved_avail.Evaluate
module Transient = Aved_avail.Transient
open Aved_model

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Hand-built tier models for the engines *)

let failure_class ?(label = "c/m") ~mtbf_days ~mttr ~failover
    ~failover_considered () =
  {
    Tier_model.label;
    rate = 1. /. Duration.seconds (Duration.of_days mtbf_days);
    mttr;
    failover_time = failover;
    failover_considered;
    repair_mechanism = None;
  }

let model ?(n_active = 1) ?(n_min = 1) ?(n_spare = 0)
    ?(failure_scope = Service.Resource_scope) ?loss_window ?(perf = 10.)
    classes =
  {
    Tier_model.tier_name = "t";
    n_active;
    n_min;
    n_spare;
    failure_scope;
    classes;
    loss_window;
    effective_performance = perf;
  }

let single_mode ~mtbf_days ~mttr_hours =
  failure_class ~mtbf_days ~mttr:(Duration.of_hours mttr_hours)
    ~failover:(Duration.of_minutes 5.) ~failover_considered:false ()

let test_two_state_closed_form () =
  (* One resource, no spares: unavailability = rho/(1+rho). *)
  let m = model [ single_mode ~mtbf_days:10. ~mttr_hours:12. ] in
  let rho = 12. /. (10. *. 24.) in
  check_float "analytic" (rho /. (1. +. rho)) (Analytic.downtime_fraction m);
  check_float "exact agrees" (rho /. (1. +. rho)) (Exact.downtime_fraction m)

let test_no_failures () =
  let m = model [] in
  check_float "no classes no downtime" 0. (Analytic.downtime_fraction m);
  check_float "exact" 0. (Exact.downtime_fraction m)

let test_failover_transient_accounting () =
  (* n = m = 1 with one spare and failover considered: the chain sees
     state 1 as up, so downtime is the failover transient plus the
     two-failure chain mass. *)
  let ft = Duration.of_minutes 5. in
  let c =
    failure_class ~mtbf_days:10. ~mttr:(Duration.of_hours 12.) ~failover:ft
      ~failover_considered:true ()
  in
  let m = model ~n_spare:1 [ c ] in
  let pi = Analytic.state_distribution m in
  let expected_transient = pi.(0) *. c.rate *. Duration.seconds ft in
  check_float "transient term" expected_transient
    (Analytic.transient_down_fraction m);
  check_float "chain term" pi.(2) (Analytic.chain_down_fraction m);
  Alcotest.(check bool) "spare helps" true
    (Analytic.downtime_fraction m
    < Analytic.downtime_fraction (model [ c ]))

let test_extra_actives_absorb_failures () =
  (* n = 2, m = 1: a single failure leaves the service up with no
     transient; only the double-failure state is down. *)
  let c = single_mode ~mtbf_days:10. ~mttr_hours:12. in
  let m = model ~n_active:2 ~n_min:1 [ c ] in
  check_float "no transient" 0. (Analytic.transient_down_fraction m);
  let pi = Analytic.state_distribution m in
  check_float "only double failure" pi.(2) (Analytic.downtime_fraction m)

let test_tier_scope_every_failure_counts () =
  let ft = Duration.of_minutes 5. in
  let c =
    failure_class ~mtbf_days:10. ~mttr:(Duration.of_hours 12.) ~failover:ft
      ~failover_considered:true ()
  in
  let m =
    model ~n_active:4 ~n_min:4 ~n_spare:1
      ~failure_scope:Service.Tier_scope [ c ]
  in
  let pi = Analytic.state_distribution m in
  (* From state 0 (all 5 operational... 4 active), any failure interrupts. *)
  let expected = pi.(0) *. 4. *. c.rate *. Duration.seconds ft in
  check_float "tier transient" expected (Analytic.transient_down_fraction m)

let test_engines_agree_single_class () =
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"analytic equals exact for one class" ~count:100
       QCheck2.Gen.(
         let* n = int_range 1 4 in
         let* s = int_range 0 2 in
         let* mtbf = float_range 5. 500. in
         let* mttr = float_range 0.5 48. in
         return (n, s, mtbf, mttr))
       (fun (n, s, mtbf_days, mttr_hours) ->
         let m =
           model ~n_active:n ~n_min:n ~n_spare:s
             [ single_mode ~mtbf_days ~mttr_hours ]
         in
         let a = Analytic.downtime_fraction m in
         let b = Exact.downtime_fraction m in
         Float.abs (a -. b) <= 1e-12 +. (1e-9 *. a)))

let test_engines_close_multi_class () =
  (* Engine B's chain is a product-form network whose level marginals
     are Engine A's birth-death law with the rate-weighted mean repair
     time, so the two agree to rounding however unequal the repair
     rates: the single-class identity bound holds for two classes and
     for four. *)
  let two =
    [
      single_mode ~mtbf_days:650. ~mttr_hours:38.;
      single_mode ~mtbf_days:21. ~mttr_hours:0.075;
    ]
  in
  let four =
    two
    @ [
        single_mode ~mtbf_days:60. ~mttr_hours:2.;
        single_mode ~mtbf_days:300. ~mttr_hours:0.5;
      ]
  in
  List.iter
    (fun classes ->
      List.iter
        (fun (n, s) ->
          let m = model ~n_active:n ~n_min:n ~n_spare:s classes in
          let a = Analytic.downtime_fraction m in
          let b = Exact.downtime_fraction m in
          Alcotest.(check bool)
            (Printf.sprintf "%d classes, n=%d s=%d: %.17g vs %.17g"
               (List.length classes) n s a b)
            true
            (Float.abs (a -. b) <= 1e-12 +. (1e-9 *. a)))
        [ (1, 0); (2, 0); (2, 1); (3, 1) ])
    [ two; four ]

let test_monte_carlo_agrees () =
  let m =
    model ~n_active:2 ~n_min:2 ~n_spare:1
      [
        failure_class ~mtbf_days:20. ~mttr:(Duration.of_hours 24.)
          ~failover:(Duration.of_minutes 10.) ~failover_considered:true ();
      ]
  in
  let exact = Exact.downtime_fraction m in
  let config =
    { Monte_carlo.replications = 24; horizon = Duration.of_years 40.; seed = 7 }
  in
  let summary = Monte_carlo.downtime_fractions ~config m in
  let relative = Float.abs (summary.mean -. exact) /. exact in
  Alcotest.(check bool)
    (Printf.sprintf "simulated %.4e vs exact %.4e (rel %.2f)" summary.mean
       exact relative)
    true (relative < 0.2)

let test_monte_carlo_deterministic () =
  let m = model [ single_mode ~mtbf_days:30. ~mttr_hours:10. ] in
  let config =
    { Monte_carlo.replications = 4; horizon = Duration.of_years 5.; seed = 3 }
  in
  check_float "same seed same result"
    (Monte_carlo.downtime_fraction ~config m)
    (Monte_carlo.downtime_fraction ~config m)

let test_spares_monotone () =
  let c =
    failure_class ~mtbf_days:30. ~mttr:(Duration.of_hours 24.)
      ~failover:(Duration.of_minutes 5.) ~failover_considered:true ()
  in
  let downtime s =
    Analytic.downtime_fraction (model ~n_active:3 ~n_min:3 ~n_spare:s [ c ])
  in
  Alcotest.(check bool) "one spare helps" true (downtime 1 < downtime 0);
  Alcotest.(check bool) "two spares help more" true (downtime 2 < downtime 1)

let test_rate_monotone () =
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"downtime grows with failure rate" ~count:100
       QCheck2.Gen.(
         let* m1 = float_range 5. 500. in
         let* m2 = float_range 5. 500. in
         return (Float.min m1 m2, Float.max m1 m2))
       (fun (fast, slow) ->
         let downtime mtbf_days =
           Analytic.downtime_fraction
             (model ~n_active:2 ~n_min:2
                [ single_mode ~mtbf_days ~mttr_hours:8. ])
         in
         downtime fast >= downtime slow -. 1e-15))

(* ------------------------------------------------------------------ *)
(* Job completion *)

let test_job_time_formula () =
  (* perf 10 units/h, job 100 units: ideal 10 h; with availability A and
     loss window lw the closed form must match Evaluate. *)
  let lw = Duration.of_hours 1. in
  let m =
    model ~perf:10. ~loss_window:lw
      ~failure_scope:Service.Tier_scope
      [ single_mode ~mtbf_days:10. ~mttr_hours:12. ]
  in
  let t = Evaluate.job_completion_time Evaluate.Analytic m ~job_size:100. in
  let a = 1. -. Analytic.downtime_fraction m in
  let mtbf_h = 240. in
  let t_lw = mtbf_h *. (Float.exp (1. /. mtbf_h) -. 1.) in
  check_float "closed form" (10. /. a *. t_lw) (Duration.hours t)

let test_job_time_no_checkpoint_worse () =
  let mk lw =
    model ~perf:10. ?loss_window:lw ~failure_scope:Service.Tier_scope
      [ single_mode ~mtbf_days:2. ~mttr_hours:2. ]
  in
  let with_ckpt =
    Evaluate.job_completion_time Evaluate.Analytic
      (mk (Some (Duration.of_minutes 30.)))
      ~job_size:1000.
  in
  let without =
    Evaluate.job_completion_time Evaluate.Analytic (mk None) ~job_size:1000.
  in
  Alcotest.(check bool) "checkpointing helps long jobs" true
    (Duration.compare with_ckpt without < 0)

let test_job_time_monte_carlo () =
  let m =
    model ~perf:10. ~loss_window:(Duration.of_hours 2.)
      ~failure_scope:Service.Tier_scope
      [
        failure_class ~mtbf_days:5. ~mttr:(Duration.of_hours 6.)
          ~failover:(Duration.of_minutes 5.) ~failover_considered:false ();
      ]
  in
  let analytic =
    Duration.hours
      (Evaluate.job_completion_time Evaluate.Analytic m ~job_size:2000.)
  in
  let config =
    { Monte_carlo.replications = 48; horizon = Duration.of_years 1.; seed = 11 }
  in
  let sim = Monte_carlo.job_completion_times ~config m ~job_size:2000. in
  let relative = Float.abs (sim.mean -. analytic) /. analytic in
  Alcotest.(check bool)
    (Printf.sprintf "sim %.1fh vs analytic %.1fh (rel %.2f)" sim.mean analytic
       relative)
    true (relative < 0.2)

let test_evaluate_facade () =
  let m =
    model ~n_active:2 ~n_min:2 ~n_spare:1
      [ single_mode ~mtbf_days:20. ~mttr_hours:24. ]
  in
  let analytic = Evaluate.tier_downtime_fraction Evaluate.Analytic m in
  let exact =
    Evaluate.tier_downtime_fraction (Evaluate.Exact { max_states = 5000 }) m
  in
  Alcotest.(check bool) "facade dispatches analytic vs exact" true
    (Float.abs (analytic -. exact) /. exact < 0.01);
  let mc =
    Evaluate.tier_downtime_fraction
      (Evaluate.Monte_carlo
         { Monte_carlo.replications = 16; horizon = Duration.of_years 30.;
           seed = 4 })
      m
  in
  Alcotest.(check bool) "facade dispatches simulation" true
    (Float.abs (mc -. exact) /. exact < 0.3);
  (* Series composition across two copies of the tier. *)
  let service = Evaluate.service_annual_downtime Evaluate.Analytic [ m; m ] in
  let single = Evaluate.tier_annual_downtime Evaluate.Analytic m in
  Alcotest.(check bool) "two tiers roughly double the downtime" true
    (Duration.seconds service > 1.9 *. Duration.seconds single
    && Duration.seconds service <= 2. *. Duration.seconds single +. 1e-6);
  (* Interruption rate at time 0 equals the all-up-state rate. *)
  let m2 =
    model ~n_spare:1
      [
        failure_class ~mtbf_days:10. ~mttr:(Duration.of_hours 12.)
          ~failover:(Duration.of_minutes 5.) ~failover_considered:true ();
      ]
  in
  let c = List.hd m2.Tier_model.classes in
  Alcotest.(check (float 1e-12)) "interruption rate at t=0"
    (c.rate *. Duration.seconds c.failover_time)
    (Transient.interruption_rate_at m2 Duration.zero)

let test_exceedance_probability () =
  let m =
    model ~n_active:2 ~n_min:2
      [ single_mode ~mtbf_days:30. ~mttr_hours:6. ]
  in
  let config =
    { Monte_carlo.replications = 64; horizon = Duration.of_years 1.; seed = 13 }
  in
  let p budget_minutes =
    Monte_carlo.exceedance_probability ~config m
      ~budget:(Duration.of_minutes budget_minutes)
  in
  Alcotest.(check (float 1e-9)) "tiny budget always busted" 1. (p 0.001);
  Alcotest.(check (float 1e-9)) "huge budget never busted" 0. (p 1e9);
  Alcotest.(check bool) "monotone" true (p 10. >= p 100. && p 100. >= p 1000.);
  (* Either unit down counts (n = m = 2): mean annual downtime is about
     8700 min, so a 100-minute budget busts almost surely and a
     20000-minute one almost never. *)
  Alcotest.(check bool) "mid budgets discriminate" true
    (p 100. > 0.5 && p 20000. < 0.5)

(* ------------------------------------------------------------------ *)
(* Tier_model.build on the paper's infrastructure *)

let paper_option resource_name =
  let service = Aved.Experiments.ecommerce () in
  let tier =
    match Service.find_tier service "application" with
    | Some t -> t
    | None -> Alcotest.fail "application tier"
  in
  List.find
    (fun (o : Service.resource_option) -> String.equal o.resource resource_name)
    tier.options

let bronze = [ ("maintenanceA", [ ("level", Mechanism.Enum_value "bronze") ]) ]

let design_rc ~n_active ~n_spare =
  Design.tier_design ~tier_name:"application" ~resource:"rC" ~n_active
    ~n_spare ~mechanism_settings:bronze ()

let test_build_classes () =
  let infra = Aved.Experiments.infrastructure () in
  let tm =
    Tier_model.build ~infra ~option:(paper_option "rC")
      ~design:(design_rc ~n_active:5 ~n_spare:1)
      ~demand:(Some 1000.)
  in
  Alcotest.(check int) "n" 5 tm.Tier_model.n_active;
  Alcotest.(check int) "m from performance" 5 tm.Tier_model.n_min;
  Alcotest.(check int) "s" 1 tm.Tier_model.n_spare;
  Alcotest.(check int) "4 failure classes" 4 (List.length tm.Tier_model.classes);
  let find label =
    List.find
      (fun (c : Tier_model.failure_class) -> String.equal c.label label)
      tm.Tier_model.classes
  in
  let hard = find "machineA/hard" in
  (* MTTR = detect 2m + repair 38h + restart (30s + 2m + 2m). *)
  check_float "hard mttr" ((38. *. 3600.) +. 120. +. 270.)
    (Duration.seconds hard.mttr);
  (* Failover: detect 2m + reconfig 0 + cold-spare startup 4.5m. *)
  check_float "hard failover" (120. +. 270.) (Duration.seconds hard.failover_time);
  Alcotest.(check bool) "hard fails over" true hard.failover_considered;
  let linux_soft = find "linux/soft" in
  (* Restart linux + appserverA: 2m + 2m; no detect. *)
  check_float "linux mttr" 240. (Duration.seconds linux_soft.mttr);
  Alcotest.(check bool) "soft repairs in place" false
    linux_soft.failover_considered;
  check_float "rate" (1. /. Duration.seconds (Duration.of_days 60.))
    linux_soft.rate;
  Alcotest.(check bool) "no loss window" true (tm.Tier_model.loss_window = None)

let test_build_m_with_extras () =
  let infra = Aved.Experiments.infrastructure () in
  let tm =
    Tier_model.build ~infra ~option:(paper_option "rC")
      ~design:(design_rc ~n_active:7 ~n_spare:0)
      ~demand:(Some 1000.)
  in
  Alcotest.(check int) "m stays at perf minimum" 5 tm.Tier_model.n_min;
  Alcotest.(check int) "n grows" 7 tm.Tier_model.n_active

let test_build_rejects_undersized () =
  let infra = Aved.Experiments.infrastructure () in
  Alcotest.(check bool) "cannot deliver demand" true
    (match
       Tier_model.build ~infra ~option:(paper_option "rC")
         ~design:(design_rc ~n_active:4 ~n_spare:0)
         ~demand:(Some 1000.)
     with
    | _ -> false
    | exception Tier_model.Rejected _ -> true)

let test_build_scientific_loss_window () =
  let infra = Aved.Experiments.infrastructure_bronze () in
  let service = Aved.Experiments.scientific () in
  let tier =
    match Service.find_tier service "computation" with
    | Some t -> t
    | None -> Alcotest.fail "tier"
  in
  let option = List.hd tier.options in
  let settings =
    [
      ("maintenanceA", [ ("level", Mechanism.Enum_value "bronze") ]);
      ( "checkpoint",
        [
          ("storage_location", Mechanism.Enum_value "central");
          ( "checkpoint_interval",
            Mechanism.Duration_value (Duration.of_minutes 30.) );
        ] );
    ]
  in
  let design =
    Design.tier_design ~tier_name:"computation" ~resource:"rH" ~n_active:10
      ~n_spare:1 ~mechanism_settings:settings ()
  in
  let tm = Tier_model.build ~infra ~option ~design ~demand:None in
  (match tm.Tier_model.loss_window with
  | Some lw -> check_float "loss window = interval" 30. (Duration.minutes lw)
  | None -> Alcotest.fail "expected loss window");
  Alcotest.(check int) "tier scope m = n" 10 tm.Tier_model.n_min;
  (* 30-minute interval is in the flat region (threshold 10m): no slowdown. *)
  check_float "effective performance" (100. /. 1.04)
    tm.Tier_model.effective_performance;
  (* At a 1-minute interval the slowdown bites: 10/cpi = 10. *)
  let fast_settings =
    [
      ("maintenanceA", [ ("level", Mechanism.Enum_value "bronze") ]);
      ( "checkpoint",
        [
          ("storage_location", Mechanism.Enum_value "central");
          ( "checkpoint_interval",
            Mechanism.Duration_value (Duration.of_minutes 1.) );
        ] );
    ]
  in
  let tm2 =
    Tier_model.build ~infra ~option
      ~design:
        (Design.tier_design ~tier_name:"computation" ~resource:"rH"
           ~n_active:10 ~n_spare:1 ~mechanism_settings:fast_settings ())
      ~demand:None
  in
  check_float "slowed performance" (100. /. 1.04 /. 10.)
    tm2.Tier_model.effective_performance

let test_derived_quantities () =
  let c1 = single_mode ~mtbf_days:100. ~mttr_hours:10. in
  let c2 = single_mode ~mtbf_days:50. ~mttr_hours:1. in
  let m = model ~n_active:4 [ c1; c2 ] in
  let rate = c1.rate +. c2.rate in
  check_float "total rate" rate (Tier_model.total_failure_rate m);
  check_float "resource mtbf" (1. /. rate)
    (Duration.seconds (Tier_model.resource_mtbf m));
  check_float "tier mtbf" (1. /. (4. *. rate))
    (Duration.seconds (Tier_model.tier_mtbf m));
  let expected_mean_repair =
    ((c1.rate *. 36000.) +. (c2.rate *. 3600.)) /. rate
  in
  check_float "mean repair" expected_mean_repair
    (Duration.seconds (Tier_model.mean_repair_time m))

let test_exact_state_limit () =
  let classes =
    List.init 4 (fun i ->
        failure_class
          ~label:(Printf.sprintf "c%d" i)
          ~mtbf_days:(10. +. float_of_int i)
          ~mttr:(Duration.of_hours 1.)
          ~failover:Duration.zero ~failover_considered:false ())
  in
  let m = model ~n_active:10 ~n_min:10 ~n_spare:2 classes in
  Alcotest.(check bool) "limit enforced" true
    (match Exact.downtime_fraction ~max_states:10 m with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check int) "state count" (Exact.num_states m)
    (let n = 12 and j = 4 in
     (* C(n+j, j) *)
     let rec c n k = if k = 0 then 1 else c (n - 1) (k - 1) * n / k in
     c (n + j) j)

(* ------------------------------------------------------------------ *)
(* Transient analysis and downtime attribution *)

let test_transient_limits () =
  let m =
    model ~n_active:2 ~n_min:2 ~n_spare:1
      [ single_mode ~mtbf_days:20. ~mttr_hours:24. ]
  in
  check_float "down probability at 0" 0.
    (Transient.down_probability_at m Duration.zero);
  let steady = Analytic.chain_down_fraction m in
  let late = Transient.down_probability_at m (Duration.of_years 10.) in
  Alcotest.(check (float 1e-6)) "late-time limit" steady late;
  (* Over a long horizon the average converges to the stationary rate. *)
  let long = Duration.of_years 40. in
  let accumulated =
    Duration.seconds (Transient.expected_downtime_over ~steps:256 m ~horizon:long)
  in
  let expected = Duration.seconds long *. Analytic.downtime_fraction m in
  Alcotest.(check bool)
    (Printf.sprintf "long-run convergence (%.4g vs %.4g)" accumulated expected)
    true
    (Float.abs (accumulated -. expected) /. expected < 0.05);
  (* With no failover transients (extra active absorbs failures) a fresh
     system strictly beats its steady state: the chain starts all-up. *)
  let pure_chain =
    model ~n_active:2 ~n_min:1 [ single_mode ~mtbf_days:20. ~mttr_hours:24. ]
  in
  let horizon = Duration.of_days 30. in
  let fresh =
    Duration.seconds (Transient.expected_downtime_over pure_chain ~horizon)
  in
  let steady_estimate =
    Duration.seconds horizon *. Analytic.downtime_fraction pure_chain
  in
  Alcotest.(check bool) "fresh system is better" true
    (fresh <= steady_estimate +. 1e-9)

let test_transient_monotone_horizon () =
  let m = model [ single_mode ~mtbf_days:10. ~mttr_hours:12. ] in
  let downtime days =
    Duration.seconds
      (Transient.expected_downtime_over m ~horizon:(Duration.of_days days))
  in
  Alcotest.(check bool) "cumulative downtime grows" true
    (downtime 1. < downtime 10. && downtime 10. < downtime 100.)

let test_downtime_by_class () =
  let c1 = single_mode ~mtbf_days:100. ~mttr_hours:10. in
  let c2 =
    failure_class ~label:"c2" ~mtbf_days:10. ~mttr:(Duration.of_minutes 3.)
      ~failover:(Duration.of_minutes 5.) ~failover_considered:false ()
  in
  let m = model ~n_active:2 ~n_min:2 [ { c1 with label = "c1" }; c2 ] in
  let breakdown = Analytic.downtime_by_class m in
  Alcotest.(check int) "one entry per class" 2 (List.length breakdown);
  let total = List.fold_left (fun acc (_, f) -> acc +. f) 0. breakdown in
  Alcotest.(check (float 1e-12)) "sums to total"
    (Analytic.downtime_fraction m) total;
  List.iter
    (fun (label, f) ->
      Alcotest.(check bool) (label ^ " non-negative") true (f >= 0.))
    breakdown;
  (* The slow-repair class dominates: lambda*mttr is 25x larger. *)
  let contribution label = List.assoc label breakdown in
  Alcotest.(check bool) "hard failures dominate" true
    (contribution "c1" > contribution "c2")

(* ------------------------------------------------------------------ *)
(* Distribution-shape ablation *)

let test_shapes_mean_preserving () =
  (* Exponential vs. mean-preserving Weibull: steady-state availability
     of an n=1 system depends only on the means (renewal-reward), so the
     simulated downtime must agree across shapes. *)
  let m = model [ single_mode ~mtbf_days:10. ~mttr_hours:12. ] in
  let config =
    { Monte_carlo.replications = 24; horizon = Duration.of_years 40.; seed = 5 }
  in
  let exp_downtime = Monte_carlo.downtime_fraction ~config m in
  let weibull_downtime =
    Monte_carlo.downtime_fraction ~config
      ~shapes:
        {
          Monte_carlo.failure = Monte_carlo.Weibull_shape 1.5;
          repair = Monte_carlo.Weibull_shape 0.8;
        }
      m
  in
  Alcotest.(check bool)
    (Printf.sprintf "renewal-reward invariance (%.4g vs %.4g)" exp_downtime
       weibull_downtime)
    true
    (Float.abs (exp_downtime -. weibull_downtime) /. exp_downtime < 0.1)

let test_shapes_parallel_invariance () =
  (* For independent alternating-renewal units, steady-state
     unavailability depends only on the means (renewal-reward), so a
     2-unit parallel system's downtime must be shape-invariant too. *)
  let m =
    model ~n_active:2 ~n_min:1
      [ single_mode ~mtbf_days:5. ~mttr_hours:24. ]
  in
  let config =
    { Monte_carlo.replications = 32; horizon = Duration.of_years 60.; seed = 9 }
  in
  let with_shape k =
    Monte_carlo.downtime_fraction ~config
      ~shapes:
        { Monte_carlo.failure = Monte_carlo.Weibull_shape k;
          repair = Monte_carlo.Exponential }
      m
  in
  let bursty = with_shape 0.6 in
  let regular = with_shape 2.0 in
  Alcotest.(check bool)
    (Printf.sprintf "renewal-reward invariance (%.3e vs %.3e)" bursty regular)
    true
    (Float.abs (regular -. bursty) /. regular < 0.1)

let test_shapes_change_job_times () =
  (* Where the exponential assumption genuinely matters: lost-work for
     finite jobs. With the mean gap fixed, bursty failures (Weibull
     k < 1, decreasing hazard) restart checkpointed windows more often —
     a freshly repaired unit is at its most fragile — while regular
     failures (k > 1) let windows complete. Job time must be monotone
     in the shape. *)
  let m =
    model ~n_active:8 ~n_min:8 ~perf:10.
      ~loss_window:(Duration.of_hours 2.)
      ~failure_scope:Service.Tier_scope
      [
        failure_class ~mtbf_days:5. ~mttr:(Duration.of_hours 4.)
          ~failover:(Duration.of_minutes 5.) ~failover_considered:false ();
      ]
  in
  let config =
    { Monte_carlo.replications = 48; horizon = Duration.of_years 1.; seed = 3 }
  in
  let time shapes =
    (Monte_carlo.job_completion_times ~config ~shapes m ~job_size:2000.)
      .Aved_stats.Stats.mean
  in
  let exponential = time Monte_carlo.exponential_shapes in
  let bursty =
    time
      { Monte_carlo.failure = Monte_carlo.Weibull_shape 0.6;
        repair = Monte_carlo.Exponential }
  in
  let regular =
    time
      { Monte_carlo.failure = Monte_carlo.Weibull_shape 2.0;
        repair = Monte_carlo.Exponential }
  in
  Alcotest.(check bool)
    (Printf.sprintf "monotone in shape (%.1f > %.1f > %.1f)" bursty
       exponential regular)
    true
    (bursty > exponential *. 1.02 && exponential > regular *. 1.02)

(* ------------------------------------------------------------------ *)
(* Known answers for Engine C. The simulator may get faster, but every
   draw and every event must replay in the same order, so these figures
   (hex floats, compared bit for bit) must never move. The models are
   e-commerce application-tier designs at load 1000: rC at bronze, five
   actives with and without a spare (four failure classes each). *)

let rc_design ~level ~n_active ~n_spare =
  Tier_model.build ~infra:(Aved.Experiments.infrastructure ())
    ~option:(paper_option "rC")
    ~design:
      (Design.tier_design ~tier_name:"application" ~resource:"rC" ~n_active
         ~n_spare
         ~mechanism_settings:
           [ ("maintenanceA", [ ("level", Mechanism.Enum_value level) ]) ]
         ())
    ~demand:(Some 1000.)

let with_spare () = rc_design ~level:"bronze" ~n_active:5 ~n_spare:1
let without_spare () = rc_design ~level:"bronze" ~n_active:5 ~n_spare:0

let kat_config =
  { Monte_carlo.replications = 8; horizon = Duration.of_years 10.; seed = 42 }

let check_hex name expected v =
  Alcotest.(check string) name expected (Printf.sprintf "%h" v)

let check_hex_list name expected vs =
  Alcotest.(check (list string)) name expected
    (List.map (Printf.sprintf "%h") vs)

let test_kat_downtime_fraction () =
  check_hex "with a spare" "0x1.6b3a114318703p-11"
    (Monte_carlo.downtime_fraction ~config:kat_config (with_spare ()));
  check_hex "without a spare" "0x1.bf439e8bb289ep-7"
    (Monte_carlo.downtime_fraction ~config:kat_config (without_spare ()))

let test_kat_downtime_by_class () =
  let check name expected m =
    let by_class = Monte_carlo.downtime_by_class ~config:kat_config m in
    Alcotest.(check (list string)) (name ^ ": labels")
      [ "machineA/hard"; "machineA/soft"; "linux/soft"; "appserverA/soft" ]
      (List.map fst by_class);
    check_hex_list name expected (List.map snd by_class)
  in
  check "without a spare"
    [
      "0x1.ad1618ad942fdp-7"; "0x1.b05a3155eb6a6p-13";
      "0x1.e87096de53698p-13"; "0x1.e52d5ea6af546p-14";
    ]
    (without_spare ());
  check "with a spare"
    [
      "0x1.11e40453dcf12p-13"; "0x1.b153326c9ba69p-13";
      "0x1.f556eca2abba2p-13"; "0x1.e8b443527addep-14";
    ]
    (with_spare ())

let test_kat_shape_samples () =
  let shapes =
    {
      Monte_carlo.failure = Monte_carlo.Weibull_shape 0.7;
      repair = Monte_carlo.Lognormal_sigma 1.2;
    }
  in
  check_hex_list "Weibull 0.7 failures, lognormal 1.2 repairs"
    [
      "0x1.12e37cde74063p-9"; "0x1.e82d477230711p-10";
      "0x1.fdcba6345c299p-11"; "0x1.28947c750865fp-9";
      "0x1.2d2bd1487048p-9"; "0x1.2d1cbfbaff938p-8";
      "0x1.31d48788486a1p-10"; "0x1.4541e5d3130aep-10";
    ]
    (Array.to_list
       (Monte_carlo.downtime_fraction_samples ~config:kat_config ~shapes
          (with_spare ())))

(* The sampler branches the cases above do not reach: a class whose
   repair takes no time (its repair distribution is [Deterministic 0],
   so the repair lands at the failure's own instant and the heap's
   push-order tie-break decides) and Weibull repairs (here behind
   lognormal failures). *)
let test_kat_zero_mttr () =
  let m =
    model ~n_active:3 ~n_min:2 ~n_spare:1
      [
        failure_class ~label:"hard" ~mtbf_days:20. ~mttr:(Duration.of_hours 6.)
          ~failover:(Duration.of_minutes 10.) ~failover_considered:true ();
        failure_class ~label:"restart" ~mtbf_days:3. ~mttr:Duration.zero
          ~failover:(Duration.of_minutes 2.) ~failover_considered:true ();
      ]
  in
  check_hex "downtime fraction" "0x1.bf83d96880bbap-21"
    (Monte_carlo.downtime_fraction ~config:kat_config m);
  check_hex_list "downtime by class"
    [ "0x1.13613123fc69cp-24"; "0x1.9d17b344012e6p-21" ]
    (List.map snd (Monte_carlo.downtime_by_class ~config:kat_config m))

let test_kat_weibull_repairs () =
  let shapes =
    {
      Monte_carlo.failure = Monte_carlo.Lognormal_sigma 0.5;
      repair = Monte_carlo.Weibull_shape 1.5;
    }
  in
  check_hex_list "lognormal 0.5 failures, Weibull 1.5 repairs"
    [
      "0x1.3b914a0acddcap-12"; "0x1.33412cc7b43b3p-12";
      "0x1.3a8068424e876p-12"; "0x1.20d66bdffc824p-12";
      "0x1.355b5a4a8b3c4p-12"; "0x1.2c20ed9b16116p-12";
      "0x1.4730e727ae774p-12"; "0x1.2b1e8e47abbb8p-12";
    ]
    (Array.to_list
       (Monte_carlo.downtime_fraction_samples ~config:kat_config ~shapes
          (without_spare ())))

let test_kat_exceedance () =
  let config =
    { kat_config with replications = 32; horizon = Duration.of_years 1. }
  in
  check_hex "P(year over 7200 min)" "0x1.6p-2"
    (Monte_carlo.exceedance_probability ~config (without_spare ())
       ~budget:(Duration.of_minutes 7200.))

let test_kat_job_completion () =
  let m = without_spare () in
  let job = { m with loss_window = Some (Duration.of_hours 2.) } in
  let s =
    Monte_carlo.job_completion_times ~config:kat_config job
      ~job_size:(2000. *. m.effective_performance)
  in
  check_hex_list "mean, stddev, min, max"
    [
      "0x1.fff7a6eea3034p+10"; "0x1.b6c492b157d21p+5";
      "0x1.f81c196b7f1ffp+10"; "0x1.10a291ac0a04cp+11";
    ]
    [ s.mean; s.stddev; s.min; s.max ]

let test_kat_event_counts () =
  let registry = Aved_telemetry.Telemetry.create () in
  Aved_telemetry.Telemetry.with_registry registry (fun () ->
      ignore (Monte_carlo.downtime_fraction ~config:kat_config (with_spare ())));
  let read = Aved_telemetry.Telemetry.Counter.read_by_name registry in
  Alcotest.(check (pair int int)) "sim.events, sim.replications" (14492, 8)
    (read "sim.events", read "sim.replications")

(* Engine C's event loop allocates nothing per event: the random
   state, the event heap and the events themselves are unboxed, and the
   draws, samples and heap operations are inlined into the loop, so no
   float is boxed on the way, in any build profile. What the bound
   leaves room for is each replication's set-up, spread over its
   events. *)
let test_allocation_per_event () =
  let m = rc_design ~level:"gold" ~n_active:9 ~n_spare:3 in
  let config =
    { Monte_carlo.replications = 16; horizon = Duration.of_years 30.; seed = 42 }
  in
  let registry = Aved_telemetry.Telemetry.create () in
  let before = Gc.minor_words () in
  Aved_telemetry.Telemetry.with_registry registry (fun () ->
      ignore (Monte_carlo.downtime_fraction ~config m));
  let words = Gc.minor_words () -. before in
  let events =
    Aved_telemetry.Telemetry.Counter.read_by_name registry "sim.events"
  in
  let per_event = words /. float_of_int events in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per event over %d events (at most 1)"
       per_event events)
    true (per_event <= 1.)

let () =
  Alcotest.run "avail"
    [
      ( "engines",
        [
          Alcotest.test_case "two-state closed form" `Quick
            test_two_state_closed_form;
          Alcotest.test_case "no failures" `Quick test_no_failures;
          Alcotest.test_case "failover transient" `Quick
            test_failover_transient_accounting;
          Alcotest.test_case "extra actives absorb" `Quick
            test_extra_actives_absorb_failures;
          Alcotest.test_case "tier scope" `Quick
            test_tier_scope_every_failure_counts;
          Alcotest.test_case "A = B for one class" `Quick
            test_engines_agree_single_class;
          Alcotest.test_case "A close to B multi-class" `Quick
            test_engines_close_multi_class;
          Alcotest.test_case "Monte Carlo agrees" `Slow test_monte_carlo_agrees;
          Alcotest.test_case "Monte Carlo deterministic" `Quick
            test_monte_carlo_deterministic;
          Alcotest.test_case "spares monotone" `Quick test_spares_monotone;
          Alcotest.test_case "rate monotone" `Quick test_rate_monotone;
        ] );
      ( "job",
        [
          Alcotest.test_case "closed form" `Quick test_job_time_formula;
          Alcotest.test_case "checkpointing helps" `Quick
            test_job_time_no_checkpoint_worse;
          Alcotest.test_case "Monte Carlo job time" `Slow
            test_job_time_monte_carlo;
        ] );
      ( "transient",
        [
          Alcotest.test_case "limits" `Quick test_transient_limits;
          Alcotest.test_case "monotone in horizon" `Quick
            test_transient_monotone_horizon;
          Alcotest.test_case "downtime by class" `Quick
            test_downtime_by_class;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "mean-preserving invariance" `Slow
            test_shapes_mean_preserving;
          Alcotest.test_case "parallel invariance" `Slow
            test_shapes_parallel_invariance;
          Alcotest.test_case "job times shape-sensitive" `Slow
            test_shapes_change_job_times;
        ] );
      ( "risk",
        [
          Alcotest.test_case "exceedance monotone" `Slow
            test_exceedance_probability;
          Alcotest.test_case "evaluate facade" `Quick test_evaluate_facade;
        ] );
      ( "known-answers",
        [
          Alcotest.test_case "downtime fraction" `Quick
            test_kat_downtime_fraction;
          Alcotest.test_case "downtime by class" `Quick
            test_kat_downtime_by_class;
          Alcotest.test_case "shape ablation samples" `Quick
            test_kat_shape_samples;
          Alcotest.test_case "exceedance probability" `Quick
            test_kat_exceedance;
          Alcotest.test_case "job completion with a loss window" `Quick
            test_kat_job_completion;
          Alcotest.test_case "event and replication counts" `Quick
            test_kat_event_counts;
          Alcotest.test_case "minor words per simulated event" `Quick
            test_allocation_per_event;
          Alcotest.test_case "zero repair time" `Quick test_kat_zero_mttr;
          Alcotest.test_case "Weibull repairs" `Quick test_kat_weibull_repairs;
        ] );
      ( "tier-model",
        [
          Alcotest.test_case "classes from Fig. 3" `Quick test_build_classes;
          Alcotest.test_case "m with extra actives" `Quick
            test_build_m_with_extras;
          Alcotest.test_case "undersized rejected" `Quick
            test_build_rejects_undersized;
          Alcotest.test_case "scientific loss window" `Quick
            test_build_scientific_loss_window;
          Alcotest.test_case "derived quantities" `Quick
            test_derived_quantities;
          Alcotest.test_case "exact engine state limit" `Quick
            test_exact_state_limit;
        ] );
    ]

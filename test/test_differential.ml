(* Cross-engine differential tests: random small tier models pushed
   through Engine A (aggregated birth-death chain), Engine B (the
   multi-mode chain's product-form law) and Engine C (Monte-Carlo
   simulation), asserting the documented agreement bounds. Models are
   kept small (n + s <= 4, at most 4 failure classes) so that the
   simulation comparison stays cheap. *)

module Duration = Aved_units.Duration
module Service = Aved_model.Service
open Aved_avail

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Generator: small random tier models *)

let gen_class ~max_mtbf_days =
  let open QCheck2.Gen in
  let* mtbf_days = float_range 2. max_mtbf_days in
  let* mttr_hours = float_range 0.05 48. in
  let* failover_minutes = float_range 0.5 30. in
  return (mtbf_days, mttr_hours, failover_minutes)

(* n_min = n_active: every failure takes the tier below its minimum, so
   downtime events are frequent enough for the simulation comparison to
   have signal on a modest horizon. [max_mtbf_days] bounds how rare
   failures may be: the chain comparisons take the full range, while
   the Monte-Carlo comparison stays in a frequent-failure regime —
   with a spare, real outages need a second failure inside a repair
   window, and when that compound event is too rare a 12-replication
   run can miss it entirely while the chains price it in. *)
let gen_model ?(max_mtbf_days = 600.) ~max_classes () =
  let open QCheck2.Gen in
  let* n = int_range 1 3 in
  let* s = int_range 0 (Stdlib.min 1 (4 - n)) in
  let* class_count = int_range 1 max_classes in
  let* raw = list_repeat class_count (gen_class ~max_mtbf_days) in
  let classes =
    List.mapi
      (fun i (mtbf_days, mttr_hours, failover_minutes) ->
        let mttr = Duration.of_hours mttr_hours in
        let failover = Duration.of_minutes failover_minutes in
        {
          Tier_model.label = Printf.sprintf "class%d" i;
          rate = 1. /. Duration.seconds (Duration.of_days mtbf_days);
          mttr;
          failover_time = failover;
          failover_considered = s > 0 && Duration.compare mttr failover > 0;
          repair_mechanism = None;
        })
      raw
  in
  return
    {
      Tier_model.tier_name = "differential";
      n_active = n;
      n_min = n;
      n_spare = s;
      failure_scope = Service.Resource_scope;
      classes;
      loss_window = None;
      effective_performance = 100.;
    }

let pp_model (m : Tier_model.t) =
  Printf.sprintf "n=%d s=%d classes=[%s]" m.n_active m.n_spare
    (String.concat "; "
       (List.map
          (fun (c : Tier_model.failure_class) ->
            Printf.sprintf "rate=%.3e mttr=%.1fh fo=%.1fm%s" c.rate
              (Duration.hours c.mttr)
              (Duration.minutes c.failover_time)
              (if c.failover_considered then "*" else ""))
          m.classes))

(* ------------------------------------------------------------------ *)
(* Engine A vs Engine B *)

let a_vs_b_single_class =
  QCheck2.Test.make
    ~name:"A equals B on single-class models (analytic identity)" ~count:300
    ~print:pp_model (gen_model ~max_classes:1 ()) (fun m ->
      let a = Analytic.downtime_fraction m in
      let b = Exact.downtime_fraction m in
      (* One failure class: the aggregated chain IS the exact chain. *)
      Float.abs (a -. b) <= 1e-12 +. (1e-9 *. a))

let a_vs_b_multi_class =
  QCheck2.Test.make
    ~name:"A within aggregation tolerance of B on two-class models"
    ~count:300 ~print:pp_model (gen_model ~max_classes:4 ()) (fun m ->
      let a = Analytic.downtime_fraction m in
      let b = Exact.downtime_fraction m in
      (* Up to four classes with unequal repair rates: summed over each
         level of failed resources, B's product-form law is A's
         birth-death law with the rate-weighted mean repair time, and
         every downtime term depends on the level alone. So the
         aggregation is exact and the bound is the single-class
         identity bound. *)
      Float.abs (a -. b) <= 1e-12 +. (1e-9 *. a))

(* ------------------------------------------------------------------ *)
(* Engine C vs A and B *)

let mc_config =
  { Monte_carlo.replications = 12; horizon = Duration.of_years 25.; seed = 11 }

(* The simulation must land inside its own confidence interval around
   each analytic engine, widened by the engines' modelling differences
   (the simulation applies failover delays deterministically event by
   event, the chains as rate x outage). *)
let mc_bound (summary : Aved_stats.Stats.summary) reference =
  (6. *. Aved_stats.Stats.standard_error summary)
  +. (0.25 *. reference) +. 1e-12

let c_vs_a_and_b =
  QCheck2.Test.make
    ~name:"C (fixed seed) within confidence interval of A and B" ~count:40
    ~print:pp_model
    (gen_model ~max_mtbf_days:90. ~max_classes:2 ())
    (fun m ->
      let a = Analytic.downtime_fraction m in
      let b = Exact.downtime_fraction m in
      let summary = Monte_carlo.downtime_fractions ~config:mc_config m in
      Float.abs (summary.mean -. a) <= mc_bound summary a
      && Float.abs (summary.mean -. b) <= mc_bound summary b)

(* ------------------------------------------------------------------ *)
(* The three engines through the common Evaluate dispatch *)

let evaluate_dispatch_consistent =
  QCheck2.Test.make
    ~name:"Evaluate dispatch agrees with direct engine calls" ~count:50
    ~print:pp_model (gen_model ~max_classes:2 ()) (fun m ->
      let direct = Analytic.downtime_fraction m in
      let via_analytic =
        Evaluate.tier_downtime_fraction Evaluate.Analytic m
      in
      let via_exact =
        Evaluate.tier_downtime_fraction
          (Evaluate.Exact { max_states = 20000 })
          m
      in
      via_analytic = direct
      && Float.abs (via_exact -. Exact.downtime_fraction m) = 0.)

let () =
  Alcotest.run "differential"
    [
      ( "engines",
        [
          qtest a_vs_b_single_class;
          qtest a_vs_b_multi_class;
          qtest c_vs_a_and_b;
          qtest evaluate_dispatch_consistent;
        ] );
    ]

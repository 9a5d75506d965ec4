(* Cross-module invariants as QCheck properties, registered as alcotest
   cases via QCheck_alcotest. *)

module Duration = Aved_units.Duration
module Money = Aved_units.Money
module Expr = Aved_expr.Expr
module Availability = Aved_reliability.Availability
open Aved_model

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_duration =
  QCheck2.Gen.(map Duration.of_seconds (float_range 0. 1e8))

let gen_int_range =
  let open QCheck2.Gen in
  oneof
    [
      map Int_range.singleton (int_range 0 50);
      (let* lo = int_range 0 30 in
       let* span = int_range 0 40 in
       let* step = int_range 1 5 in
       return (Int_range.arithmetic ~lo ~hi:(lo + span) ~step));
      (let* lo = int_range 1 8 in
       let* hi = int_range 8 200 in
       let* factor = int_range 2 4 in
       return (Int_range.geometric ~lo ~hi:(Stdlib.max lo hi) ~factor));
      map Int_range.explicit (list_size (int_range 1 8) (int_range 0 100));
    ]

let gen_tier_model =
  let open QCheck2.Gen in
  let* n = int_range 1 5 in
  let* s = int_range 0 3 in
  let* m = int_range 1 n in
  let* class_count = int_range 1 3 in
  let* raw =
    list_repeat class_count
      (triple (float_range 2. 2000.) (* mtbf days *)
         (float_range 0.01 72.) (* mttr hours *)
         (float_range 0.5 30. (* failover minutes *)))
  in
  let* tier_scope = bool in
  let classes =
    List.mapi
      (fun i (mtbf_days, mttr_hours, failover_minutes) ->
        let mttr = Duration.of_hours mttr_hours in
        let failover = Duration.of_minutes failover_minutes in
        {
          Aved_avail.Tier_model.label = Printf.sprintf "c%d" i;
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
      Aved_avail.Tier_model.tier_name = "prop";
      n_active = n;
      n_min = (if tier_scope then n else m);
      n_spare = s;
      failure_scope =
        (if tier_scope then Service.Tier_scope else Service.Resource_scope);
      classes;
      loss_window = None;
      effective_performance = 100.;
    }

(* ------------------------------------------------------------------ *)
(* Units *)

let duration_sub_saturates =
  QCheck2.Test.make ~name:"duration subtraction saturates at zero" ~count:300
    QCheck2.Gen.(pair gen_duration gen_duration)
    (fun (a, b) ->
      let d = Duration.sub a b in
      Duration.seconds d >= 0.
      && Duration.seconds d
         = Float.max 0. (Duration.seconds a -. Duration.seconds b))

let duration_add_commutes =
  QCheck2.Test.make ~name:"duration addition commutes" ~count:300
    QCheck2.Gen.(pair gen_duration gen_duration)
    (fun (a, b) -> Duration.equal (Duration.add a b) (Duration.add b a))

let money_sum_is_fold =
  QCheck2.Test.make ~name:"money sum equals fold" ~count:300
    QCheck2.Gen.(list_size (int_range 0 20) (float_range 0. 1e6))
    (fun amounts ->
      let monies = List.map Money.of_float amounts in
      Float.abs
        (Money.to_float (Money.sum monies)
        -. List.fold_left ( +. ) 0. amounts)
      < 1e-6)

(* ------------------------------------------------------------------ *)
(* Int_range *)

let int_range_mem_consistent =
  QCheck2.Test.make ~name:"Int_range.mem agrees with to_list" ~count:300
    QCheck2.Gen.(pair gen_int_range (int_range 0 250))
    (fun (r, n) -> Int_range.mem r n = List.mem n (Int_range.to_list r))

let int_range_sorted =
  QCheck2.Test.make ~name:"Int_range.to_list is strictly increasing"
    ~count:300 gen_int_range (fun r ->
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | [ _ ] | [] -> true
      in
      increasing (Int_range.to_list r))

let int_range_next_above =
  QCheck2.Test.make ~name:"next_above returns the least member >= n"
    ~count:300
    QCheck2.Gen.(pair gen_int_range (int_range 0 250))
    (fun (r, n) ->
      match Int_range.next_above r n with
      | Some v ->
          v >= n && Int_range.mem r v
          && not (List.exists (fun x -> x >= n && x < v) (Int_range.to_list r))
      | None -> List.for_all (fun x -> x < n) (Int_range.to_list r))

(* The members of [r] straight from its constructor's definition,
   independent of the library's enumeration. *)
let int_range_reference = function
  | Int_range.Singleton n -> [ n ]
  | Int_range.Arithmetic { lo; hi; step } ->
      List.filter (fun n -> (n - lo) mod step = 0) (List.init (hi - lo + 1) (( + ) lo))
  | Int_range.Geometric { lo; hi; factor } ->
      let rec powers n = if n > hi then [] else n :: powers (n * factor) in
      powers lo
  | Int_range.Explicit values -> values

let int_range_to_seq =
  QCheck2.Test.make ~name:"Int_range.to_seq and to_list enumerate the members"
    ~count:300 gen_int_range (fun r ->
      List.of_seq (Int_range.to_seq r) = Int_range.to_list r
      && Int_range.to_list r = List.sort_uniq Int.compare (int_range_reference r))

let int_range_between =
  QCheck2.Test.make ~name:"Int_range.between filters to_list to [lo, hi]"
    ~count:500
    QCheck2.Gen.(triple gen_int_range (int_range (-10) 260) (int_range (-10) 260))
    (fun (r, lo, hi) ->
      Int_range.between r ~lo ~hi
      = List.filter (fun n -> lo <= n && n <= hi) (Int_range.to_list r))

let int_range_extremes =
  QCheck2.Test.make ~name:"min_value and max_value are to_list's ends"
    ~count:300 gen_int_range (fun r ->
      let members = Int_range.to_list r in
      Int_range.min_value r = List.hd members
      && Int_range.max_value r = List.nth members (List.length members - 1))

let int_range_spread =
  QCheck2.Test.make ~name:"Int_range.spread samples to_list evenly by rank"
    ~count:500
    QCheck2.Gen.(pair gen_int_range (int_range 2 10))
    (fun (r, count) ->
      let members = Array.of_list (Int_range.to_list r) in
      let n = Array.length members in
      Int_range.spread r ~count
      =
      if n <= count then Array.to_list members
      else List.init count (fun i -> members.(i * (n - 1) / (count - 1))))

(* ------------------------------------------------------------------ *)
(* Reliability *)

let series_bounded_by_weakest =
  QCheck2.Test.make ~name:"series availability below its weakest element"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 6) (float_range 0. 1.))
    (fun parts ->
      let availability =
        Availability.to_fraction
          (Availability.series (List.map Availability.of_fraction parts))
      in
      availability <= List.fold_left Float.min 1. parts +. 1e-12)

(* ------------------------------------------------------------------ *)
(* Engines *)

let analytic_downtime_bounded =
  QCheck2.Test.make ~name:"analytic downtime fraction within [0,1]"
    ~count:300 gen_tier_model (fun m ->
      let f = Aved_avail.Analytic.downtime_fraction m in
      f >= 0. && f <= 1.)

let analytic_breakdown_sums =
  QCheck2.Test.make ~name:"per-class breakdown sums to the total" ~count:300
    gen_tier_model (fun m ->
      let total = Aved_avail.Analytic.downtime_fraction m in
      let parts =
        List.fold_left
          (fun acc (_, f) -> acc +. f)
          0.
          (Aved_avail.Analytic.downtime_by_class m)
      in
      Float.abs (total -. parts) < 1e-12 +. (1e-9 *. total))

let analytic_spare_helps =
  (* Not exact monotonicity: the rate-times-outage transient term
     slightly overcounts in-place repairs that happen while a (useless)
     spare exists, a conservative second-order artifact of Engine A
     (see DESIGN.md). The regression is bounded; and whenever failover
     is actually considered the spare must strictly help. *)
  QCheck2.Test.make
    ~name:"adding a spare never hurts availability beyond the \
           transient-accounting bound"
    ~count:200 gen_tier_model (fun m ->
      (* Adding a spare re-enables failover for the modes it benefits,
         exactly as Tier_model.build would derive. *)
      let with_spare =
        {
          m with
          Aved_avail.Tier_model.n_spare = m.n_spare + 1;
          classes =
            List.map
              (fun (c : Aved_avail.Tier_model.failure_class) ->
                {
                  c with
                  failover_considered =
                    Duration.compare c.mttr c.failover_time > 0;
                })
              m.classes;
        }
      in
      let before = Aved_avail.Analytic.downtime_fraction m in
      let after = Aved_avail.Analytic.downtime_fraction with_spare in
      after <= (before *. 1.2) +. 1e-12
      &&
      (* A spare that enables failover for a slow-repair class helps. *)
      (m.Aved_avail.Tier_model.n_spare > 0
      || not
           (List.exists
              (fun (c : Aved_avail.Tier_model.failure_class) ->
                Duration.compare c.mttr c.failover_time > 0
                && Duration.hours c.mttr > 1.)
              m.classes)
      || after < before))

let exact_breakdown_sums =
  QCheck2.Test.make ~name:"exact per-class breakdown sums to the total"
    ~count:150 gen_tier_model (fun m ->
      let total = Aved_avail.Exact.downtime_fraction m in
      let parts =
        List.fold_left
          (fun acc (_, f) -> acc +. f)
          0.
          (Aved_avail.Exact.downtime_by_class m)
      in
      Float.abs (total -. parts) < 1e-12 +. (1e-9 *. total))

let decomposition_matches_by_class =
  (* Evaluate.tier_downtime_decomposition is the engines' per-class
     attribution re-labeled: the total must equal the engine's downtime
     fraction bit-for-bit and the per-class fractions must match the
     engine's own breakdown. *)
  QCheck2.Test.make ~name:"decomposition equals the engine breakdown"
    ~count:150 gen_tier_model (fun m ->
      let d =
        Aved_avail.Evaluate.tier_downtime_decomposition
          Aved_avail.Evaluate.Analytic m
      in
      d.Aved_avail.Evaluate.total = Aved_avail.Analytic.downtime_fraction m
      && List.for_all2
           (fun (c : Aved_avail.Evaluate.class_contribution) (label, f) ->
             String.equal c.label label && c.fraction = f)
           d.by_class
           (Aved_avail.Analytic.downtime_by_class m))

let exact_agrees_on_singleton_class =
  QCheck2.Test.make ~name:"exact engine equals analytic for one class"
    ~count:150
    QCheck2.Gen.(
      let* m = gen_tier_model in
      return
        { m with Aved_avail.Tier_model.classes = [ List.hd m.classes ] })
    (fun m ->
      let a = Aved_avail.Analytic.downtime_fraction m in
      let b = Aved_avail.Exact.downtime_fraction m in
      Float.abs (a -. b) <= 1e-10 +. (1e-8 *. a))

(* ------------------------------------------------------------------ *)
(* Pareto frontier: the skyline the tier search builds its frontiers
   with, over (cost, downtime) points *)

module Skyline = Aved_search.Skyline

(* The skyline of [points] as (cost, downtime) pairs, by rising cost. *)
let skyline points =
  let sky = Skyline.create () in
  List.iteri
    (fun i (cost, downtime) ->
      Skyline.insert sky ~cost ~measure:downtime ~task:0 ~design:i)
    points;
  List.init (Skyline.length sky) (fun i ->
      (Skyline.cost sky i, Skyline.measure sky i))

let dominates (ca, da) (cb, db) = ca <= cb && da <= db && (ca < cb || da < db)

let pareto_no_dominance =
  QCheck2.Test.make ~name:"pareto frontier has no dominated members"
    ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 40)
        (pair (float_range 0. 1000.) (float_range 0. 1.)))
    (fun points ->
      let frontier = skyline points in
      List.for_all
        (fun a -> List.for_all (fun b -> not (dominates a b)) frontier)
        frontier)

let pareto_covers_input =
  QCheck2.Test.make
    ~name:"every input is dominated by or equal to a frontier point"
    ~count:300
    QCheck2.Gen.(
      list_size (int_range 1 40)
        (pair (float_range 0. 1000.) (float_range 0. 1.)))
    (fun points ->
      let frontier = skyline points in
      List.for_all
        (fun (c, d) -> List.exists (fun (fc, fd) -> fc <= c && fd <= d) frontier)
        points)

(* ------------------------------------------------------------------ *)
(* Mechanisms *)

let settings_product_size =
  QCheck2.Test.make ~name:"settings count is the product of range sizes"
    ~count:200
    QCheck2.Gen.(
      let* enum_sizes = list_size (int_range 0 3) (int_range 1 4) in
      return enum_sizes)
    (fun enum_sizes ->
      let parameters =
        List.mapi
          (fun i size ->
            {
              Mechanism.param_name = Printf.sprintf "p%d" i;
              range =
                Mechanism.Enum
                  (List.init size (fun v -> Printf.sprintf "v%d" v));
            })
          enum_sizes
      in
      let m =
        Mechanism.make ~name:"m" ~parameters
          ~cost:(Mechanism.Fixed Money.zero) ()
      in
      List.length (Mechanism.settings m)
      = List.fold_left ( * ) 1 enum_sizes)

let () =
  Alcotest.run "properties"
    [
      ( "units",
        [
          qtest duration_sub_saturates;
          qtest duration_add_commutes;
          qtest money_sum_is_fold;
        ] );
      ( "int-range",
        [
          qtest int_range_mem_consistent;
          qtest int_range_sorted;
          qtest int_range_next_above;
          qtest int_range_to_seq;
          qtest int_range_between;
          qtest int_range_extremes;
          qtest int_range_spread;
        ] );
      ( "reliability",
        [ qtest series_bounded_by_weakest ] );
      ( "engines",
        [
          qtest analytic_downtime_bounded;
          qtest analytic_breakdown_sums;
          qtest analytic_spare_helps;
          qtest exact_breakdown_sums;
          qtest decomposition_matches_by_class;
          qtest exact_agrees_on_singleton_class;
        ] );
      ( "pareto",
        [ qtest pareto_no_dominance; qtest pareto_covers_input ] );
      ("mechanism", [ qtest settings_product_size ]);
    ]

(* The multicore search layer: work-pool semantics, shared-incumbent
   behavior, the bounded admission queue, and — the load-bearing contract —
   bit-identical search results at any [jobs] setting. *)

module Duration = Aved_units.Duration
module Money = Aved_units.Money
module Pool = Aved_parallel.Pool
module Incumbent = Aved_parallel.Incumbent
module Search_config = Aved_search.Search_config
module Candidate = Aved_search.Candidate
module Tier_search = Aved_search.Tier_search
module Job_search = Aved_search.Job_search
module Service_search = Aved_search.Service_search
open Aved_model

let infra () = Aved.Experiments.infrastructure ()
let app_tier () = Aved.Experiments.application_tier ()

(* ------------------------------------------------------------------ *)
(* Pool semantics *)

let test_map_preserves_order () =
  Pool.run ~jobs:4 @@ fun pool ->
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "results in submission order"
    (List.map (fun x -> x * x) xs)
    (Pool.map pool (fun x -> x * x) xs)

let test_map_sequential_fallback () =
  Pool.run ~jobs:1 @@ fun pool ->
  Alcotest.(check int) "jobs" 1 (Pool.jobs pool);
  Alcotest.(check (list int))
    "plain map" [ 2; 4; 6 ]
    (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ])

let test_map_empty_and_singleton () =
  Pool.run ~jobs:3 @@ fun pool ->
  Alcotest.(check (list int)) "empty" [] (Pool.map pool Fun.id []);
  Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.map pool Fun.id [ 7 ])

let test_nested_maps () =
  (* Tasks submitting sub-tasks to the same pool must not deadlock:
     workers (and the caller) run queued work while waiting. *)
  Pool.run ~jobs:4 @@ fun pool ->
  let rows =
    Pool.map pool
      (fun i -> Pool.map pool (fun j -> (10 * i) + j) [ 0; 1; 2 ])
      (List.init 8 Fun.id)
  in
  Alcotest.(check (list (list int)))
    "nested results"
    (List.init 8 (fun i -> List.map (fun j -> (10 * i) + j) [ 0; 1; 2 ]))
    rows

let test_exception_propagates () =
  Pool.run ~jobs:4 @@ fun pool ->
  match
    Pool.map pool
      (fun x -> if x mod 3 = 0 then failwith (string_of_int x) else x)
      (List.init 10 succ)
  with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
      (* The smallest-index failure wins, regardless of schedule. *)
      Alcotest.(check string) "first failing task" "3" msg

let test_pool_reusable_after_exception () =
  Pool.run ~jobs:2 @@ fun pool ->
  (try ignore (Pool.map pool (fun () -> failwith "boom") [ () ])
   with Failure _ -> ());
  Alcotest.(check (list int))
    "pool still works" [ 1; 2 ]
    (Pool.map pool Fun.id [ 1; 2 ])

let test_stress_many_small_tasks () =
  Pool.run ~jobs:4 @@ fun pool ->
  let n = 5000 in
  let total =
    List.fold_left ( + ) 0 (Pool.map pool Fun.id (List.init n Fun.id))
  in
  Alcotest.(check int) "sum" (n * (n - 1) / 2) total

let test_incumbent_monotone () =
  let inc = Incumbent.create () in
  Alcotest.(check bool) "starts at infinity" true (Incumbent.get inc = infinity);
  Incumbent.propose inc 10.;
  Incumbent.propose inc 12.;
  Alcotest.(check (float 0.)) "keeps the minimum" 10. (Incumbent.get inc);
  Incumbent.propose inc 7.;
  Alcotest.(check (float 0.)) "improves" 7. (Incumbent.get inc)

(* ------------------------------------------------------------------ *)
(* The bounded admission queue *)

module Bounded_queue = Aved_parallel.Bounded_queue

let test_queue_fifo () =
  let q = Bounded_queue.create ~capacity:4 in
  List.iter
    (fun i -> Alcotest.(check bool) "push" true (Bounded_queue.try_push q i))
    [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Bounded_queue.length q);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Bounded_queue.pop q);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Bounded_queue.pop q);
  Alcotest.(check (option int)) "fifo 3" (Some 3) (Bounded_queue.pop q)

let test_queue_sheds_when_full () =
  let q = Bounded_queue.create ~capacity:2 in
  Alcotest.(check bool) "1 fits" true (Bounded_queue.try_push q 1);
  Alcotest.(check bool) "2 fits" true (Bounded_queue.try_push q 2);
  Alcotest.(check bool) "3 refused" false (Bounded_queue.try_push q 3);
  ignore (Bounded_queue.pop q);
  Alcotest.(check bool) "slot freed" true (Bounded_queue.try_push q 3)

let test_queue_close_drains () =
  let q = Bounded_queue.create ~capacity:4 in
  ignore (Bounded_queue.try_push q 1);
  ignore (Bounded_queue.try_push q 2);
  Bounded_queue.close q;
  Alcotest.(check bool) "closed refuses" false (Bounded_queue.try_push q 3);
  Alcotest.(check bool) "reports closed" true (Bounded_queue.closed q);
  Alcotest.(check (option int)) "delivers 1" (Some 1) (Bounded_queue.pop q);
  Alcotest.(check (option int)) "delivers 2" (Some 2) (Bounded_queue.pop q);
  Alcotest.(check (option int)) "then none" None (Bounded_queue.pop q)

let test_queue_close_wakes_consumers () =
  let q : int Bounded_queue.t = Bounded_queue.create ~capacity:1 in
  let results = Array.make 2 (Some 0) in
  let consumers =
    Array.init 2 (fun i ->
        Thread.create (fun () -> results.(i) <- Bounded_queue.pop q) ())
  in
  Thread.delay 0.05;
  Bounded_queue.close q;
  Array.iter Thread.join consumers;
  Array.iter
    (fun r -> Alcotest.(check (option int)) "woken with None" None r)
    results

(* ------------------------------------------------------------------ *)
(* jobs=1 vs jobs=4 determinism *)

let config_with_jobs jobs = Search_config.with_jobs jobs Search_config.default

let check_candidate_equal what (a : Candidate.t) (b : Candidate.t) =
  Alcotest.(check bool)
    (what ^ ": same design")
    true
    (Design.compare_tier a.design b.design = 0);
  Alcotest.(check (float 0.))
    (what ^ ": same cost")
    (Money.to_float a.cost) (Money.to_float b.cost);
  Alcotest.(check (float 0.))
    (what ^ ": same downtime")
    a.downtime_fraction b.downtime_fraction

let test_tier_optimal_deterministic () =
  List.iter
    (fun demand ->
      let run jobs =
        Tier_search.optimal (config_with_jobs jobs) (infra ())
          ~tier:(app_tier ()) ~demand
          ~max_downtime:(Duration.of_minutes 100.)
      in
      match (run 1, run 4) with
      | Some a, Some b ->
          check_candidate_equal (Printf.sprintf "demand %g" demand) a b
      | None, None -> ()
      | _ -> Alcotest.failf "feasibility differs at demand %g" demand)
    [ 400.; 1000.; 2600. ]

let test_tier_frontier_deterministic () =
  List.iter
    (fun demand ->
      let run jobs =
        Tier_search.frontier (config_with_jobs jobs) (infra ())
          ~tier:(app_tier ()) ~demand
      in
      let a = run 1 and b = run 4 in
      Alcotest.(check int)
        (Printf.sprintf "frontier size at %g" demand)
        (List.length a) (List.length b);
      List.iter2
        (check_candidate_equal (Printf.sprintf "frontier point at %g" demand))
        a b)
    [ 400.; 1000. ]

let test_job_optimal_deterministic () =
  let infra = Aved.Experiments.infrastructure_bronze () in
  let tier = Aved.Experiments.computation_tier () in
  List.iter
    (fun hours ->
      let run jobs =
        Job_search.optimal
          (Search_config.with_jobs jobs Aved.Experiments.fig7_config)
          infra ~tier ~job_size:Aved.Experiments.scientific_job_size
          ~max_time:(Duration.of_hours hours)
      in
      match (run 1, run 4) with
      | Some a, Some b ->
          Alcotest.(check bool)
            (Printf.sprintf "same design at %gh" hours)
            true
            (Design.compare_tier a.Job_search.design b.Job_search.design = 0);
          Alcotest.(check (float 0.))
            (Printf.sprintf "same cost at %gh" hours)
            (Money.to_float a.Job_search.cost)
            (Money.to_float b.Job_search.cost);
          Alcotest.(check (float 0.))
            (Printf.sprintf "same time at %gh" hours)
            (Duration.seconds a.Job_search.execution_time)
            (Duration.seconds b.Job_search.execution_time)
      | None, None -> ()
      | _ -> Alcotest.failf "feasibility differs at %gh" hours)
    [ 24.; 100. ]

let test_service_design_deterministic () =
  let infra = infra () in
  let service = Aved.Experiments.ecommerce () in
  let requirements =
    Requirements.enterprise ~throughput:1000.
      ~max_annual_downtime:(Duration.of_minutes 100.)
  in
  let run jobs =
    Service_search.design (config_with_jobs jobs) infra service requirements
  in
  match (run 1, run 4) with
  | Some a, Some b ->
      Alcotest.(check (float 0.))
        "same cost"
        (Money.to_float a.Service_search.cost)
        (Money.to_float b.Service_search.cost);
      List.iter2
        (fun ta tb ->
          Alcotest.(check bool) "same tier design" true
            (Design.compare_tier ta tb = 0))
        a.Service_search.design.Design.tiers
        b.Service_search.design.Design.tiers
  | None, None -> Alcotest.fail "scenario unexpectedly infeasible"
  | _ -> Alcotest.fail "feasibility differs"

let test_fig6_subset_deterministic () =
  let run jobs =
    Aved.Figures.fig6
      ~config:(config_with_jobs jobs)
      ~loads:[ 600.; 1400. ] ()
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check int) "same point count" (List.length a) (List.length b);
  List.iter2
    (fun (p : Aved.Figures.fig6_point) (q : Aved.Figures.fig6_point) ->
      Alcotest.(check string) "family" p.family q.family;
      Alcotest.(check (float 0.)) "downtime" p.downtime_minutes
        q.downtime_minutes;
      Alcotest.(check (float 0.)) "cost" p.annual_cost q.annual_cost)
    a b

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick
            test_map_preserves_order;
          Alcotest.test_case "jobs=1 falls back to plain map" `Quick
            test_map_sequential_fallback;
          Alcotest.test_case "empty and singleton" `Quick
            test_map_empty_and_singleton;
          Alcotest.test_case "nested maps do not deadlock" `Quick
            test_nested_maps;
          Alcotest.test_case "exceptions propagate deterministically" `Quick
            test_exception_propagates;
          Alcotest.test_case "pool usable after an exception" `Quick
            test_pool_reusable_after_exception;
          Alcotest.test_case "many small tasks" `Quick
            test_stress_many_small_tasks;
          Alcotest.test_case "incumbent keeps the minimum" `Quick
            test_incumbent_monotone;
        ] );
      ( "bounded-queue",
        [
          Alcotest.test_case "fifo order" `Quick test_queue_fifo;
          Alcotest.test_case "refuses pushes at capacity" `Quick
            test_queue_sheds_when_full;
          Alcotest.test_case "close drains then ends" `Quick
            test_queue_close_drains;
          Alcotest.test_case "close wakes blocked consumers" `Quick
            test_queue_close_wakes_consumers;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "tier optimal: jobs 1 = jobs 4" `Quick
            test_tier_optimal_deterministic;
          Alcotest.test_case "tier frontier: jobs 1 = jobs 4" `Quick
            test_tier_frontier_deterministic;
          Alcotest.test_case "job optimal: jobs 1 = jobs 4" `Quick
            test_job_optimal_deterministic;
          Alcotest.test_case "service design: jobs 1 = jobs 4" `Quick
            test_service_design_deterministic;
          Alcotest.test_case "fig6 subset: jobs 1 = jobs 4" `Quick
            test_fig6_subset_deterministic;
        ] );
    ]

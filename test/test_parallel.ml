(* The multicore search layer: work-pool semantics, shared-incumbent
   behavior, the pool's request lane, and — the load-bearing contract —
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
(* The request lane: the serve daemon's admission queue *)

(* Poll [cond] for up to five seconds. *)
let await what cond =
  let rec go tries =
    if not (cond ()) then
      if tries = 0 then Alcotest.failf "timed out waiting for %s" what
      else begin
        Thread.delay 0.001;
        go (tries - 1)
      end
  in
  go 5000

(* A serving pool whose one worker is parked on a gate, so requests
   submitted next stay queued until the gate opens. *)
let with_parked_worker ~lane_capacity f =
  let pool = Pool.create_serving ~jobs:1 ~lane_capacity in
  let gate = Semaphore.Binary.make false in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Alcotest.(check bool) "gate queued" true
    (Pool.submit pool (fun () -> Semaphore.Binary.acquire gate) = `Queued);
  await "the worker to take the gate" (fun () -> Pool.lane_busy pool = 1);
  f pool ~release:(fun () -> Semaphore.Binary.release gate)

(* A mutex-guarded log of which requests ran, in order. *)
let recorder () =
  let mutex = Mutex.create () and seen = ref [] in
  let record i () =
    Mutex.lock mutex;
    seen := i :: !seen;
    Mutex.unlock mutex
  in
  let read () =
    Mutex.lock mutex;
    let l = List.rev !seen in
    Mutex.unlock mutex;
    l
  in
  (record, read)

let verdict =
  Alcotest.testable
    (fun ppf v ->
      Format.pp_print_string ppf
        (match v with
        | `Queued -> "`Queued"
        | `Full -> "`Full"
        | `Closed -> "`Closed"))
    ( = )

let test_lane_fifo () =
  with_parked_worker ~lane_capacity:4 @@ fun pool ~release ->
  let record, read = recorder () in
  List.iter
    (fun i ->
      Alcotest.(check verdict) "submit" `Queued (Pool.submit pool (record i)))
    [ 1; 2; 3 ];
  Alcotest.(check int) "depth" 3 (Pool.lane_depth pool);
  release ();
  Pool.close_lane pool;
  await "the lane to settle" (fun () -> Pool.lane_settled pool);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (read ())

let test_lane_sheds_when_full () =
  with_parked_worker ~lane_capacity:2 @@ fun pool ~release ->
  let nothing () = () in
  Alcotest.(check verdict) "1 fits" `Queued (Pool.submit pool nothing);
  Alcotest.(check verdict) "2 fits" `Queued (Pool.submit pool nothing);
  Alcotest.(check verdict) "3 refused" `Full (Pool.submit pool nothing);
  release ();
  await "the lane to empty" (fun () -> Pool.lane_depth pool = 0);
  Alcotest.(check verdict) "slot freed" `Queued (Pool.submit pool nothing)

let test_lane_close_drains () =
  with_parked_worker ~lane_capacity:4 @@ fun pool ~release ->
  let record, read = recorder () in
  ignore (Pool.submit pool (record 1));
  ignore (Pool.submit pool (record 2));
  Pool.close_lane pool;
  Alcotest.(check verdict) "closed refuses" `Closed
    (Pool.submit pool (record 3));
  Alcotest.(check bool) "not settled while queued" false
    (Pool.lane_settled pool);
  release ();
  await "the lane to settle" (fun () -> Pool.lane_settled pool);
  Alcotest.(check (list int)) "queued requests still ran" [ 1; 2 ] (read ())

let test_lane_shutdown_wakes_workers () =
  let pool = Pool.create_serving ~jobs:2 ~lane_capacity:1 in
  (* Both workers are idle, waiting for work: shutdown must wake and
     join them. *)
  Thread.delay 0.02;
  Pool.shutdown pool;
  Alcotest.(check verdict) "shut down refuses" `Closed
    (Pool.submit pool (fun () -> ()));
  Pool.run ~jobs:2 @@ fun plain ->
  Alcotest.(check verdict) "a plain pool has no lane" `Closed
    (Pool.submit plain (fun () -> ()))

(* A request that calls [map] helps with map slots only: no domain ever
   starts a second request inside the one it is running. *)
let test_lane_helper_never_nests_requests () =
  let pool = Pool.create_serving ~jobs:2 ~lane_capacity:16 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let mutex = Mutex.create () in
  let spans = ref [] and squares = ref [] in
  let request k () =
    let t0 = Unix.gettimeofday () in
    let r =
      Pool.map pool
        (fun x ->
          Thread.delay 0.001;
          x * x)
        (List.init 8 Fun.id)
    in
    let t1 = Unix.gettimeofday () in
    Mutex.lock mutex;
    spans := ((Domain.self () :> int), t0, t1, k) :: !spans;
    squares := r :: !squares;
    Mutex.unlock mutex
  in
  for k = 1 to 6 do
    Alcotest.(check verdict) "submit" `Queued (Pool.submit pool (request k))
  done;
  Pool.close_lane pool;
  await "the lane to settle" (fun () -> Pool.lane_settled pool);
  Alcotest.(check int) "every request ran" 6 (List.length !spans);
  List.iter
    (Alcotest.(check (list int)) "map answers" (List.init 8 (fun x -> x * x)))
    !squares;
  List.iter
    (fun (d, a0, a1, j) ->
      List.iter
        (fun (d', b0, b1, k) ->
          if j < k && d = d' && a0 < b1 && b0 < a1 then
            Alcotest.failf "requests %d and %d overlapped on domain %d" j k d)
        !spans)
    !spans

let test_lane_survives_raising_request () =
  let pool = Pool.create_serving ~jobs:1 ~lane_capacity:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let record, read = recorder () in
  ignore (Pool.submit pool (fun () -> failwith "request fault (expected)"));
  ignore (Pool.submit pool (record 1));
  Pool.close_lane pool;
  await "the lane to settle" (fun () -> Pool.lane_settled pool);
  Alcotest.(check (list int)) "the next request ran" [ 1 ] (read ())

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
      ( "request-queue",
        [
          Alcotest.test_case "fifo order" `Quick test_lane_fifo;
          Alcotest.test_case "refuses pushes at capacity" `Quick
            test_lane_sheds_when_full;
          Alcotest.test_case "close drains then ends" `Quick
            test_lane_close_drains;
          Alcotest.test_case "shutdown wakes idle workers" `Quick
            test_lane_shutdown_wakes_workers;
          Alcotest.test_case "a helping caller never starts a request" `Quick
            test_lane_helper_never_nests_requests;
          Alcotest.test_case "a raising request keeps its worker" `Quick
            test_lane_survives_raising_request;
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

(* Numerical-equivalence harness for the CTMC solving substrate.

   The sparse backends (GTH elimination, banded elimination, warm-started
   power iteration) and the incremental solver exist to make the search
   fast; this suite pins them to the dense LU reference on randomly
   generated ergodic chains so a speed optimization can never silently
   change the numbers. Chains are generated from fixed seeds — failures
   reproduce. Engine B's own chains are stiff (failures in days, repairs
   in minutes), which random rates never are, so they get a sweep of
   their own that demands elimination-exact answers. *)

module Ctmc = Aved_markov.Ctmc
module Matrix = Aved_linalg.Matrix
module Vector = Aved_linalg.Vector
module Duration = Aved_units.Duration
module Avail = Aved_avail
module Telemetry = Aved_telemetry.Telemetry
module Trace = Telemetry.Trace

let backends = [ ("gth", Ctmc.Gth); ("banded", Ctmc.Banded); ("power", Ctmc.Power); ("lu", Ctmc.Lu) ]

(* ------------------------------------------------------------------ *)
(* Random ergodic chains: a Hamiltonian cycle guarantees irreducibility,
   random extra edges vary the structure (bandwidth, density) enough to
   exercise every backend-selection regime. Rates span [0.05, 20). *)

let rand_rate st = 0.05 +. Random.State.float st 19.95

let rand_chain st ~n ~extra =
  let chain = Ctmc.create n in
  for i = 0 to n - 1 do
    Ctmc.add_transition chain ~src:i ~dst:((i + 1) mod n) ~rate:(rand_rate st)
  done;
  let added = ref 0 in
  while !added < extra do
    let src = Random.State.int st n and dst = Random.State.int st n in
    if src <> dst then begin
      Ctmc.add_transition chain ~src ~dst ~rate:(rand_rate st);
      incr added
    end
  done;
  chain

let max_exit_rate chain =
  let m = ref 0. in
  for s = 0 to Ctmc.num_states chain - 1 do
    m := Float.max !m (Ctmc.total_exit_rate chain s)
  done;
  !m

(* One chain per (size, fill) cell; sizes cover the 5-200 range the
   engines meet in practice (the exact engine's state spaces and the
   checker's audits sit in the low hundreds). *)
let sweep_chains () =
  let st = Random.State.make [| 0x5eed; 42 |] in
  List.concat_map
    (fun n ->
      List.filter_map
        (fun fill ->
          let extra = max 1 (fill n) in
          Some (rand_chain st ~n ~extra))
        [ (fun n -> n / 2); (fun n -> 3 * n) ])
    [ 5; 8; 13; 21; 34; 55; 89; 144; 200 ]

(* ------------------------------------------------------------------ *)
(* Differential: every backend within 1e-9 of dense LU, elementwise. *)

let test_backends_vs_lu () =
  List.iteri
    (fun i chain ->
      let reference = Ctmc.stationary_lu chain in
      List.iter
        (fun (name, backend) ->
          let pi = Ctmc.stationary_with backend chain in
          let diff = Vector.max_abs_diff pi reference in
          if diff > 1e-9 then
            Alcotest.failf "chain %d (%d states): %s differs from lu by %.3e"
              i (Ctmc.num_states chain) name diff)
        backends)
    (sweep_chains ())

(* Invariants every backend must honor on every chain: a distribution
   (non-negative, unit mass) that actually solves piQ = 0. GTH is
   subtraction-free and power iteration multiplies non-negative
   matrices, so both must be exactly non-negative; the elimination
   backends may carry rounding at the -1e-10 level. *)
let test_backend_invariants () =
  List.iteri
    (fun i chain ->
      let q = Ctmc.generator chain in
      let scale = Float.max 1. (max_exit_rate chain) in
      List.iter
        (fun (name, backend) ->
          let pi = Ctmc.stationary_with backend chain in
          let floor =
            match backend with
            | Ctmc.Gth | Ctmc.Power -> 0.
            | Ctmc.Banded | Ctmc.Lu -> -1e-10
          in
          Array.iteri
            (fun s p ->
              if p < floor then
                Alcotest.failf "chain %d: %s pi(%d) = %.3e below %.0e" i name
                  s p floor)
            pi;
          let mass = Vector.norm_1 pi in
          if Float.abs (mass -. 1.) > 1e-12 then
            Alcotest.failf "chain %d: %s mass %.17g" i name mass;
          let residual = Vector.norm_inf (Matrix.vec_mul pi q) in
          if residual > 1e-8 *. scale then
            Alcotest.failf "chain %d: %s residual %.3e (scale %.3g)" i name
              residual scale)
        backends)
    (sweep_chains ())

(* ------------------------------------------------------------------ *)
(* Stiff availability chains: Engine B's multi-mode chains of the
   e-commerce application tier (resource rC of the Fig. 3 spec). Its
   four chain classes fail every 60-650 days and repair in 2 minutes to
   38 hours. Each shape comes in two maintenance levels, so a solver
   built on one can be re-solved on the other. *)

let rc_model ~classes ~level ~n_active ~n_spare =
  let infra = Aved.Experiments.infrastructure () in
  let tier =
    Option.get
      (Aved_model.Service.find_tier (Aved.Experiments.ecommerce ()) "application")
  in
  let option =
    List.find
      (fun (o : Aved_model.Service.resource_option) -> o.resource = "rC")
      tier.options
  in
  let design =
    Aved_model.Design.tier_design ~tier_name:"application" ~resource:"rC"
      ~n_active ~n_spare
      ~mechanism_settings:
        [ ("maintenanceA", [ ("level", Aved_model.Mechanism.Enum_value level) ]) ]
      ()
  in
  let m = Avail.Tier_model.build ~infra ~option ~design ~demand:(Some 300.) in
  { m with classes = List.filteri (fun i _ -> i < classes) m.classes }

let rc_chain ~classes ~level ~n_active ~n_spare =
  Avail.Exact.chain (rc_model ~classes ~level ~n_active ~n_spare)

(* (classes, n_active, n_spare): 136, 351 and 703 states with two
   classes (the machine's hard and soft failures; the larger two select
   banded GTH), 126, 330 and 715 with all four (dense GTH). *)
let stiff_shapes =
  [ (2, 14, 1); (2, 23, 2); (2, 35, 1); (4, 4, 1); (4, 6, 1); (4, 8, 1) ]

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* Elimination is the answer on these chains: the auto-selected solve,
   forced banded GTH and a re-solve of a solver built on the other
   maintenance level all reproduce dense GTH bit for bit, and dense LU
   agrees to 1e-12. Power iteration is left out: on chains this stiff it
   exhausts its budget, which is why it is not selected for them. *)
let test_stiff_chains () =
  List.iter
    (fun (classes, n_active, n_spare) ->
      let chain = rc_chain ~classes ~level:"gold" ~n_active ~n_spare in
      let n = Ctmc.num_states chain in
      let gth = Ctmc.stationary_gth chain in
      let exact name pi =
        if not (bits_equal pi gth) then
          Alcotest.failf "%d states: %s differs from gth by %.3e" n name
            (Vector.max_abs_diff pi gth)
      in
      exact "stationary" (Ctmc.stationary chain);
      exact "banded" (Ctmc.stationary_with Ctmc.Banded chain);
      let solver =
        Ctmc.Solver.create (rc_chain ~classes ~level:"bronze" ~n_active ~n_spare)
      in
      ignore (Ctmc.Solver.solve solver);
      List.iter
        (fun (src, dst, rate) -> Ctmc.Solver.update_rate solver ~src ~dst ~rate)
        (Ctmc.transitions chain);
      exact "re-solve after rate updates" (Ctmc.Solver.solve solver);
      let lu = Vector.max_abs_diff gth (Ctmc.stationary_lu chain) in
      if lu > 1e-12 then
        Alcotest.failf "%d states: gth differs from lu by %.3e" n lu)
    stiff_shapes

(* Elimination up to 2048 states, power iteration only above: the
   e-commerce chains the audit solves stay on GTH. *)
let test_backend_selection () =
  let backend =
    Alcotest.testable
      (fun ppf b -> Format.pp_print_string ppf (Ctmc.backend_name b))
      ( = )
  in
  List.iter
    (fun (n_active, n_spare, states) ->
      let chain = rc_chain ~classes:4 ~level:"gold" ~n_active ~n_spare in
      Alcotest.(check int) "state count" states (Ctmc.num_states chain);
      Alcotest.check backend
        (Printf.sprintf "%d-state e-commerce chain" states)
        Ctmc.Gth (Ctmc.select_backend chain))
    [ (6, 1, 330); (8, 1, 715) ];
  let st = Random.State.make [| 0x5e1; 2048 |] in
  List.iter
    (fun (n, expected) ->
      Alcotest.check backend
        (Printf.sprintf "sparse %d-state chain" n)
        expected
        (Ctmc.select_backend (rand_chain st ~n ~extra:n)))
    [ (2048, Ctmc.Gth); (2049, Ctmc.Power); (3000, Ctmc.Power) ]

(* ------------------------------------------------------------------ *)
(* Ill-posed chains: every backend (and the incremental solver) must
   reject them with the same typed error, never return garbage. *)

let absorbing_chain n =
  let chain = Ctmc.create n in
  for i = 0 to n - 2 do
    Ctmc.add_transition chain ~src:i ~dst:(i + 1) ~rate:1.
  done;
  chain

(* Mass escapes from state 0's component into a closed class it cannot
   leave: states 0 and 1 cycle, but 0 also leaks into the {2, 3} cycle,
   which never returns. (A closed class that is simply unreachable from
   state 0 is tolerated by the documented contract and not tested
   here.) *)
let escaping_chain () =
  let chain = Ctmc.create 4 in
  Ctmc.add_transition chain ~src:0 ~dst:1 ~rate:1.;
  Ctmc.add_transition chain ~src:1 ~dst:0 ~rate:1.;
  Ctmc.add_transition chain ~src:0 ~dst:2 ~rate:0.5;
  Ctmc.add_transition chain ~src:2 ~dst:3 ~rate:1.;
  Ctmc.add_transition chain ~src:3 ~dst:2 ~rate:1.;
  chain

let test_non_ergodic_rejected () =
  List.iter
    (fun (kind, chain) ->
      List.iter
        (fun (name, backend) ->
          match Ctmc.stationary_with backend chain with
          | _ -> Alcotest.failf "%s: %s accepted a non-ergodic chain" kind name
          | exception Ctmc.Non_ergodic _ -> ())
        backends;
      match Ctmc.Solver.create chain with
      | _ -> Alcotest.failf "%s: Solver.create accepted it" kind
      | exception Ctmc.Non_ergodic _ -> ())
    [
      ("absorbing", absorbing_chain 6);
      ("escaping", escaping_chain ());
    ]

(* ------------------------------------------------------------------ *)
(* Incremental solving: perturb one rate at a time; the re-solve must
   be bitwise a from-scratch solve of the same chain. *)

let test_incremental_vs_fresh () =
  let st = Random.State.make [| 0x1234; 7 |] in
  let n = 60 in
  let chain = rand_chain st ~n ~extra:(2 * n) in
  let transitions = Array.of_list (Ctmc.transitions chain) in
  let solver = Ctmc.Solver.create chain in
  for step = 1 to 25 do
    let i = Random.State.int st (Array.length transitions) in
    let src, dst, _ = transitions.(i) in
    let rate = rand_rate st in
    transitions.(i) <- (src, dst, rate);
    Ctmc.Solver.update_rate solver ~src ~dst ~rate;
    let fresh = Ctmc.create n in
    Array.iter
      (fun (src, dst, rate) -> Ctmc.add_transition fresh ~src ~dst ~rate)
      transitions;
    let incremental = Ctmc.Solver.solve solver in
    if not (bits_equal incremental (Ctmc.stationary fresh)) then
      Alcotest.failf "step %d: incremental differs from a fresh stationary"
        step;
    let reference = Ctmc.stationary_lu fresh in
    let diff = Vector.max_abs_diff incremental reference in
    if diff > 1e-9 then
      Alcotest.failf "step %d: incremental differs from fresh by %.3e" step
        diff
  done

(* The solvers count into the installed telemetry registry; [counted f]
   runs [f] under a fresh one and returns a reader of its counters. *)
let counted f =
  let registry = Telemetry.create () in
  let result = Telemetry.with_registry registry f in
  (result, Telemetry.Counter.read_by_name registry)

let test_solver_counters_move () =
  let st = Random.State.make [| 0xc0; 3 |] in
  let chain = rand_chain st ~n:30 ~extra:30 in
  let (), counter =
    counted (fun () ->
        let solver = Ctmc.Solver.create chain in
        ignore (Ctmc.Solver.solve solver);
        ignore (Ctmc.Solver.solve solver);
        Ctmc.Solver.update_rate solver ~src:0 ~dst:1 ~rate:2.5;
        ignore (Ctmc.Solver.solve solver))
  in
  Alcotest.(check (list int)) "fresh, cached, incremental, fallback"
    [ 1; 1; 1; 0 ]
    (List.map counter
       [
         "markov.solver.fresh"; "markov.solver.cached";
         "markov.solver.incremental"; "markov.solver.fallback";
       ])

(* Above the dense limit a re-solve is power iteration started from the
   previous vector: it must still meet the solver's residual test, so
   it agrees with a cold power solve of the same chain. *)
let test_power_warm_start () =
  let st = Random.State.make [| 0xbeef; 9 |] in
  let n = 2100 in
  let chain = rand_chain st ~n ~extra:n in
  let src, dst, _ = List.hd (Ctmc.transitions chain) in
  let warm, counter =
    counted (fun () ->
        let solver = Ctmc.Solver.create chain in
        ignore (Ctmc.Solver.solve solver);
        Ctmc.Solver.update_rate solver ~src ~dst ~rate:3.5;
        Ctmc.Solver.solve solver)
  in
  let perturbed = Ctmc.create n in
  List.iter
    (fun (s, d, rate) ->
      Ctmc.add_transition perturbed ~src:s ~dst:d
        ~rate:(if s = src && d = dst then 3.5 else rate))
    (Ctmc.transitions chain);
  let diff = Vector.max_abs_diff warm (Ctmc.stationary_power perturbed) in
  if diff > 1e-9 then
    Alcotest.failf "warm-started power differs from cold by %.3e" diff;
  Alcotest.(check (pair int int)) "fresh, incremental" (1, 1)
    (counter "markov.solver.fresh", counter "markov.solver.incremental");
  Alcotest.(check int) "converged without elimination" 0
    (counter "markov.solver.fallback")

(* ------------------------------------------------------------------ *)
(* The exact availability engine rides the same solver: perturbing one
   model parameter must give the same downtime whether the (j, N)
   skeleton is reused warm or rebuilt from scratch. *)

let synthetic_model ~mttr_hours ~n_active =
  {
    Avail.Tier_model.tier_name = "synthetic";
    n_active;
    n_min = max 1 (n_active - 2);
    n_spare = 1;
    failure_scope = Aved_model.Service.Resource_scope;
    classes =
      [
        {
          Avail.Tier_model.label = "hw";
          rate = 1. /. (720. *. 3600.);
          mttr = Duration.of_hours mttr_hours;
          failover_time = Duration.of_minutes 5.;
          failover_considered = true;
          repair_mechanism = None;
        };
        {
          Avail.Tier_model.label = "sw";
          rate = 1. /. (96. *. 3600.);
          mttr = Duration.of_hours (mttr_hours /. 4.);
          failover_time = Duration.of_minutes 2.;
          failover_considered = false;
          repair_mechanism = None;
        };
      ];
    loss_window = None;
    effective_performance = 100.;
  }

let test_exact_incremental_vs_fresh () =
  Avail.Exact.reset_solver_cache ();
  (* Warm the (j, N) skeleton, then perturb one MTTR and solve warm. *)
  let warm, counter =
    counted (fun () ->
        ignore
          (Avail.Exact.downtime_fraction
             (synthetic_model ~mttr_hours:8. ~n_active:5));
        Avail.Exact.downtime_fraction
          (synthetic_model ~mttr_hours:11. ~n_active:5))
  in
  Alcotest.(check (pair int int)) "fresh, then a reuse of the skeleton"
    (1, 1)
    (counter "avail.exact.solve.fresh", counter "avail.exact.solve.incremental");
  (* From scratch: drop the cache and solve the perturbed model cold. *)
  Avail.Exact.reset_solver_cache ();
  let cold =
    Avail.Exact.downtime_fraction (synthetic_model ~mttr_hours:11. ~n_active:5)
  in
  if not (bits_equal [| warm |] [| cold |]) then
    Alcotest.failf "exact warm %.17g vs cold %.17g" warm cold

(* A model's answer does not depend on what the domain solved before:
   model Y after X (same (j, N) shape, so Y re-solves X's skeleton)
   is bitwise Y alone, on a 330-state e-commerce chain. *)
let test_exact_history_independent () =
  let x = rc_model ~classes:4 ~level:"bronze" ~n_active:6 ~n_spare:1 in
  let y = rc_model ~classes:4 ~level:"platinum" ~n_active:5 ~n_spare:2 in
  Avail.Exact.reset_solver_cache ();
  let alone = Avail.Exact.downtime_fraction y in
  Avail.Exact.reset_solver_cache ();
  let after_x, counter =
    counted (fun () ->
        ignore (Avail.Exact.downtime_fraction x);
        Avail.Exact.downtime_fraction y)
  in
  Alcotest.(check int) "y re-solved x's skeleton" 1
    (counter "avail.exact.solve.incremental");
  if not (bits_equal [| alone |] [| after_x |]) then
    Alcotest.failf "y alone %.17g vs after x %.17g" alone after_x

(* Engine B's solves are recorded like any stationary solve: a
   markov.solve.gth span under each avail.engine.exact span, the gth
   solve counter and the state-count histogram, with the solver
   counters telling the first solve of the shape from the re-solve. *)
let test_exact_solves_observed () =
  let registry = Telemetry.create () in
  Telemetry.with_registry registry @@ fun () ->
  Avail.Exact.reset_solver_cache ();
  let tr = Trace.create ~trace_id:"e8" () in
  let root = Trace.alloc_span_id tr in
  Trace.with_context (Some (Trace.context tr ~parent:root)) (fun () ->
      List.iter
        (fun level ->
          ignore
            (Avail.Evaluate.tier_downtime_fraction
               (Avail.Evaluate.Exact { max_states = 20000 })
               (rc_model ~classes:4 ~level ~n_active:6 ~n_spare:1)))
        [ "gold"; "silver" ]);
  let spans = Trace.spans tr in
  let named name = List.filter (fun sp -> sp.Trace.name = name) spans in
  let engines = List.map (fun sp -> sp.Trace.id) (named "avail.engine.exact") in
  let solves = named "markov.solve.gth" in
  Alcotest.(check int) "engine spans" 2 (List.length engines);
  Alcotest.(check int) "solve spans" 2 (List.length solves);
  List.iter
    (fun sp ->
      Alcotest.(check bool) "solve span under an engine span" true
        (List.mem sp.Trace.parent engines))
    solves;
  Alcotest.(check (list string)) "no other markov spans" []
    (List.filter_map
       (fun sp ->
         let name = sp.Trace.name in
         if
           String.starts_with ~prefix:"markov." name
           && name <> "markov.solve.gth"
         then Some name
         else None)
       spans);
  let counter = Telemetry.Counter.read_by_name registry in
  Alcotest.(check (list int))
    "gth solves, solver fresh/incremental/fallback, exact fresh/incremental"
    [ 2; 1; 1; 0; 1; 1 ]
    (List.map counter
       [
         "markov.gth.solves"; "markov.solver.fresh";
         "markov.solver.incremental"; "markov.solver.fallback";
         "avail.exact.solve.fresh"; "avail.exact.solve.incremental";
       ]);
  match List.assoc_opt "markov.solve.states" (Telemetry.histograms registry) with
  | Some h ->
      Alcotest.(check (pair int (float 0.))) "states observed" (2, 330.)
        (h.count, h.max)
  | None -> Alcotest.fail "markov.solve.states not observed"

let () =
  Alcotest.run "solver_equivalence"
    [
      ( "differential",
        [
          Alcotest.test_case "all backends vs dense LU" `Quick
            test_backends_vs_lu;
          Alcotest.test_case "stiff availability chains" `Quick
            test_stiff_chains;
          Alcotest.test_case "backend selection" `Quick test_backend_selection;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "distribution and residual" `Quick
            test_backend_invariants;
          Alcotest.test_case "non-ergodic chains rejected" `Quick
            test_non_ergodic_rejected;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "solver tracks fresh solves" `Quick
            test_incremental_vs_fresh;
          Alcotest.test_case "solver counters" `Quick
            test_solver_counters_move;
          Alcotest.test_case "power warm start above the dense limit" `Quick
            test_power_warm_start;
          Alcotest.test_case "exact engine warm vs cold" `Quick
            test_exact_incremental_vs_fresh;
          Alcotest.test_case "exact engine history independence" `Quick
            test_exact_history_independent;
          Alcotest.test_case "exact engine solves observed" `Quick
            test_exact_solves_observed;
        ] );
    ]

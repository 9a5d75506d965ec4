(* Numerical checks of the CTMC stationary solver, dense GTH.

   No answer path solves a chain: Engine B computes its stationary law
   in closed form, and GTH on Engine B's chains is the oracle for that
   closed form. This suite pins GTH itself on randomly generated ergodic
   chains (a distribution that solves piQ = 0) and on the stiff chains
   of the e-commerce specs (failures in days, repairs in minutes), which
   random rates never produce. Chains are generated from fixed seeds —
   failures reproduce. *)

module Ctmc = Aved_markov.Ctmc
module Duration = Aved_units.Duration
module Avail = Aved_avail
module Telemetry = Aved_telemetry.Telemetry
module Trace = Telemetry.Trace

(* ------------------------------------------------------------------ *)
(* Random ergodic chains: a Hamiltonian cycle guarantees irreducibility,
   random extra edges vary the structure (bandwidth, density). Rates
   span [0.05, 20). *)

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

(* pi Q, from the transitions: inflow along each, outflow at its
   source. *)
let flow chain pi =
  let out = Array.make (Array.length pi) 0. in
  List.iter
    (fun (src, dst, rate) ->
      out.(dst) <- out.(dst) +. (pi.(src) *. rate);
      out.(src) <- out.(src) -. (pi.(src) *. rate))
    (Ctmc.transitions chain);
  out

let max_abs a = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0. a

(* GTH is subtraction-free, so its answer is exactly non-negative; it
   must have unit mass and actually solve piQ = 0. *)
let test_distribution_invariants () =
  List.iteri
    (fun i chain ->
      let scale = Float.max 1. (max_exit_rate chain) in
      let pi = Ctmc.stationary chain in
      Array.iteri
        (fun s p ->
          if p < 0. then Alcotest.failf "chain %d: pi(%d) = %.3e below 0" i s p)
        pi;
      let mass = Array.fold_left ( +. ) 0. pi in
      if Float.abs (mass -. 1.) > 1e-12 then
        Alcotest.failf "chain %d: mass %.17g" i mass;
      let residual = max_abs (flow chain pi) in
      if residual > 1e-8 *. scale then
        Alcotest.failf "chain %d: residual %.3e (scale %.3g)" i residual scale)
    (sweep_chains ())

(* ------------------------------------------------------------------ *)
(* Stiff availability chains: Engine B's multi-mode chains of the
   e-commerce application tier (resource rC of the Fig. 3 spec). Its
   four chain classes fail every 60-650 days and repair in 2 minutes to
   38 hours. *)

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
   classes (the machine's hard and soft failures), 126, 330 and 715 with
   all four. *)
let stiff_shapes =
  [ (2, 14, 1); (2, 23, 2); (2, 35, 1); (4, 4, 1); (4, 6, 1); (4, 8, 1) ]

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* Elementwise, relative to each entry, since pi(s) spans hundreds of
   orders of magnitude between the all-up and the all-failed states.
   Entries near the subnormal range carry no relative precision, so
   they get an absolute floor of 1e-300. *)
let close_elementwise closed gth =
  Array.length closed = Array.length gth
  && Array.for_all2
       (fun p g -> Float.abs (p -. g) <= (1e-12 *. g) +. 1e-300)
       closed gth

(* On the e-commerce chains, which are far stiffer than random ones,
   GTH agrees with Engine B's closed form entry by entry. *)
let test_stiff_chains () =
  List.iter
    (fun (classes, n_active, n_spare) ->
      let m = rc_model ~classes ~level:"gold" ~n_active ~n_spare in
      let chain = Avail.Exact.chain m in
      let gth = Ctmc.stationary chain in
      if not (close_elementwise (Avail.Exact.stationary m) gth) then
        Alcotest.failf "%d states: gth differs from the product form"
          (Ctmc.num_states chain))
    stiff_shapes

(* The repository benchmark's markov probe reads [select_backend] on
   e-commerce chains of up to 330 states; it is always GTH. *)
let test_backend_selection () =
  List.iter
    (fun (n_active, n_spare, states) ->
      let chain = rc_chain ~classes:4 ~level:"gold" ~n_active ~n_spare in
      Alcotest.(check int) "state count" states (Ctmc.num_states chain);
      Alcotest.(check bool)
        (Printf.sprintf "%d-state e-commerce chain on GTH" states)
        true
        (Ctmc.select_backend chain = Ctmc.Gth))
    [ (6, 1, 330); (8, 1, 715) ]

(* ------------------------------------------------------------------ *)
(* Ill-posed chains: rejected with a typed error, never garbage. *)

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
      match Ctmc.stationary chain with
      | _ -> Alcotest.failf "%s: accepted a non-ergodic chain" kind
      | exception Ctmc.Non_ergodic _ -> ())
    [
      ("absorbing", absorbing_chain 6);
      ("escaping", escaping_chain ());
    ]

(* ------------------------------------------------------------------ *)
(* Engine B's closed form against the GTH oracle. *)

(* Random tier models of 1-4 chain classes whose chains have at most
   2048 states: per class count, the resource total is drawn up to the
   largest that fits. Rates and repair times span
   the stiff range of the e-commerce specs; a zero-MTTR class now and
   then checks that such classes stay out of the chain. *)
let gen_tier_model =
  let open QCheck2.Gen in
  let max_total = [| 0; 2047; 62; 20; 12 |] in
  let* j = int_range 1 4 in
  let* n_total = int_range 1 max_total.(j) in
  let* n_active = int_range 1 n_total in
  let* n_min = int_range 1 n_active in
  let* instant = bool in
  let* raw =
    list_repeat
      (if instant then j + 1 else j)
      (pair (float_range 2. 650.) (float_range 0.03 48.))
  in
  let classes =
    List.mapi
      (fun i (mtbf_days, mttr_hours) ->
        {
          Avail.Tier_model.label = Printf.sprintf "c%d" i;
          rate = 1. /. (mtbf_days *. 86400.);
          mttr =
            (if instant && i = j then Duration.zero
             else Duration.of_hours mttr_hours);
          failover_time = Duration.of_minutes 5.;
          failover_considered = false;
          repair_mechanism = None;
        })
      raw
  in
  return
    {
      Avail.Tier_model.tier_name = "product-form";
      n_active;
      n_min;
      n_spare = n_total - n_active;
      failure_scope = Aved_model.Service.Resource_scope;
      classes;
      loss_window = None;
      effective_performance = 100.;
    }

let print_tier_model (m : Avail.Tier_model.t) =
  Printf.sprintf "n=%d s=%d classes=[%s] (%d states)" m.n_active m.n_spare
    (String.concat "; "
       (List.map
          (fun (c : Avail.Tier_model.failure_class) ->
            Printf.sprintf "rate=%.3e mttr=%.3gh" c.rate (Duration.hours c.mttr))
          m.classes))
    (Avail.Exact.num_states m)

(* The closed form carries about two roundings per failed resource,
   GTH a few per elimination step. *)
let product_form_vs_gth =
  QCheck2.Test.make ~name:"product form equals GTH elementwise" ~count:60
    ~print:print_tier_model gen_tier_model (fun m ->
      close_elementwise (Avail.Exact.stationary m)
        (Ctmc.stationary (Avail.Exact.chain m)))

(* The application-tier frontier at load 1000 holds twelve models of
   2380 to 4845 states, where a dense chain solve would need an n × n
   workspace of 45 to 188 MB. The closed form answers them, and agrees
   with Engine A to the relative part of the identity bound: their downtime
   fractions (about 1e-25 on the 2380-state models) sit far below its
   1e-12 absolute floor, which would accept any answer. *)
let test_exact_above_dense_limit () =
  let large =
    Aved_search.Tier_search.frontier Aved_search.Search_config.default
      (Aved.Experiments.infrastructure ())
      ~tier:(Aved.Experiments.application_tier ())
      ~demand:1000.
    |> List.filter_map (fun (c : Aved_search.Candidate.t) ->
           if Avail.Exact.num_states c.model > 2048 then Some c.model else None)
  in
  Alcotest.(check bool) "the 2380-state model is on the frontier" true
    (List.exists (fun m -> Avail.Exact.num_states m = 2380) large);
  List.iter
    (fun m ->
      let a = Avail.Analytic.downtime_fraction m in
      let b = Avail.Exact.downtime_fraction m in
      if not (Float.abs (a -. b) <= 1e-9 *. a) then
        Alcotest.failf "%s: A %.17g vs B %.17g" (print_tier_model m) a b)
    large

(* ------------------------------------------------------------------ *)
(* Engine B keeps no state between answers. *)

(* A model's answer does not depend on what the domain answered before:
   model Y after X (the same (j, N) shape, on a 330-state e-commerce
   chain) is bitwise Y alone. *)
let test_exact_history_independent () =
  let x = rc_model ~classes:4 ~level:"bronze" ~n_active:6 ~n_spare:1 in
  let y = rc_model ~classes:4 ~level:"platinum" ~n_active:5 ~n_spare:2 in
  let alone = Avail.Exact.downtime_fraction y in
  ignore (Avail.Exact.downtime_fraction x);
  let after_x = Avail.Exact.downtime_fraction y in
  if not (bits_equal [| alone |] [| after_x |]) then
    Alcotest.failf "y alone %.17g vs after x %.17g" alone after_x

(* Engine B's answers are observed through its engine span, call
   counter and state-count histogram; none of them solves a chain, so no
   markov span opens and no solve counter moves. *)
let test_exact_solves_observed () =
  let registry = Telemetry.create () in
  Telemetry.with_registry registry @@ fun () ->
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
  Alcotest.(check int) "engine spans" 2
    (List.length (named "avail.engine.exact"));
  Alcotest.(check (list string)) "no markov spans" []
    (List.filter_map
       (fun sp ->
         if String.starts_with ~prefix:"markov." sp.Trace.name then
           Some sp.Trace.name
         else None)
       spans);
  let counter = Telemetry.Counter.read_by_name registry in
  Alcotest.(check (list int)) "engine calls; gth solves" [ 2; 0 ]
    (List.map counter [ "avail.engine.exact.calls"; "markov.gth.solves" ]);
  Alcotest.(check (list string)) "no markov histogram" []
    (List.filter
       (fun name -> String.starts_with ~prefix:"markov." name)
       (List.map fst (Telemetry.histograms registry)));
  match
    List.assoc_opt "avail.engine.exact.states" (Telemetry.histograms registry)
  with
  | Some h ->
      Alcotest.(check (pair int (float 0.))) "states observed" (2, 330.)
        (h.count, h.max)
  | None -> Alcotest.fail "avail.engine.exact.states not observed"

let () =
  Alcotest.run "solver_equivalence"
    [
      ( "differential",
        [
          Alcotest.test_case "stiff availability chains" `Quick
            test_stiff_chains;
          Alcotest.test_case "backend selection" `Quick test_backend_selection;
          QCheck_alcotest.to_alcotest product_form_vs_gth;
          Alcotest.test_case "exact engine above the dense limit" `Quick
            test_exact_above_dense_limit;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "distribution and residual" `Quick
            test_distribution_invariants;
          Alcotest.test_case "non-ergodic chains rejected" `Quick
            test_non_ergodic_rejected;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "exact engine history independence" `Quick
            test_exact_history_independent;
          Alcotest.test_case "exact engine solves observed" `Quick
            test_exact_solves_observed;
        ] );
    ]

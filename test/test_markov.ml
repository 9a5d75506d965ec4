module Ctmc = Aved_markov.Ctmc
module Birth_death = Aved_markov.Birth_death

let check_float = Alcotest.(check (float 1e-9))

let two_state lambda mu =
  let chain = Ctmc.create 2 in
  Ctmc.add_transition chain ~src:0 ~dst:1 ~rate:lambda;
  Ctmc.add_transition chain ~src:1 ~dst:0 ~rate:mu;
  chain

let test_two_state_stationary () =
  let lambda = 0.2 and mu = 3. in
  let expected_up = mu /. (lambda +. mu) in
  let chain = two_state lambda mu in
  let pi = Ctmc.stationary chain in
  check_float "up" expected_up pi.(0);
  check_float "down" (1. -. expected_up) pi.(1)

let test_builder_validation () =
  let chain = Ctmc.create 3 in
  Alcotest.check_raises "self loop"
    (Invalid_argument "Ctmc.add_transition: self-loop") (fun () ->
      Ctmc.add_transition chain ~src:1 ~dst:1 ~rate:1.);
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Ctmc.add_transition: rate -1") (fun () ->
      Ctmc.add_transition chain ~src:0 ~dst:1 ~rate:(-1.));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Ctmc: destination state 7 out of [0, 3)") (fun () ->
      Ctmc.add_transition chain ~src:0 ~dst:7 ~rate:1.);
  Ctmc.add_transition chain ~src:0 ~dst:1 ~rate:1.;
  Ctmc.add_transition chain ~src:0 ~dst:1 ~rate:0.5;
  check_float "rates merge" 1.5 (Ctmc.total_exit_rate chain 0);
  Alcotest.(check int) "merged transitions" 1
    (List.length (Ctmc.transitions chain))

let test_mm1k_distribution () =
  (* M/M/1/K queue: birth rate l, death rate m, K = 4. pi_k ~ rho^k. *)
  let l = 1.0 and m = 2.0 in
  let rho = l /. m in
  let k = 4 in
  let bd =
    Birth_death.create ~up:(Array.make k l) ~down:(Array.make k m)
  in
  let pi = Birth_death.stationary bd in
  let norm = (1. -. (rho ** float_of_int (k + 1))) /. (1. -. rho) in
  Array.iteri
    (fun i p -> check_float (Printf.sprintf "pi_%d" i) ((rho ** float_of_int i) /. norm) p)
    pi

let test_birth_death_validation () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Birth_death.create: rate arrays differ in length")
    (fun () -> ignore (Birth_death.create ~up:[| 1. |] ~down:[||]));
  Alcotest.check_raises "unreturnable"
    (Invalid_argument "Birth_death.create: state 1 reachable but cannot return")
    (fun () -> ignore (Birth_death.create ~up:[| 1. |] ~down:[| 0. |]))

let test_birth_death_unreachable_states () =
  (* A zero up-rate cuts the chain: upper states get probability 0. *)
  let bd = Birth_death.create ~up:[| 1.; 0.; 5. |] ~down:[| 2.; 1.; 1. |] in
  let pi = Birth_death.stationary bd in
  check_float "state 2 unreachable" 0. pi.(2);
  check_float "state 3 unreachable" 0. pi.(3);
  check_float "mass conserved" 1. (pi.(0) +. pi.(1))

let gen_birth_death =
  let open QCheck2.Gen in
  let* n = int_range 1 8 in
  let* up = array_repeat n (float_range 0.01 10.) in
  let* down = array_repeat n (float_range 0.01 10.) in
  return (Birth_death.create ~up ~down)

let test_birth_death_vs_gth () =
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"closed form matches GTH" ~count:200
       gen_birth_death (fun bd ->
         let closed = Birth_death.stationary bd in
         let general = Ctmc.stationary (Birth_death.to_ctmc bd) in
         Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) closed general))

let test_stationary_is_invariant () =
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"pi Q = 0" ~count:100 gen_birth_death (fun bd ->
         let chain = Birth_death.to_ctmc bd in
         let pi = Ctmc.stationary chain in
         (* pi Q: inflow along each transition, outflow at its source. *)
         let flow = Array.make (Array.length pi) 0. in
         List.iter
           (fun (src, dst, rate) ->
             flow.(dst) <- flow.(dst) +. (pi.(src) *. rate);
             flow.(src) <- flow.(src) -. (pi.(src) *. rate))
           (Ctmc.transitions chain);
         Array.for_all (fun f -> Float.abs f < 1e-9) flow))

let test_probability_at_least () =
  let bd = Birth_death.create ~up:[| 1. |] ~down:[| 1. |] in
  check_float "half" 0.5 (Birth_death.probability_at_least bd 1);
  check_float "all" 1. (Birth_death.probability_at_least bd 0);
  check_float "none" 0. (Birth_death.probability_at_least bd 2)

let test_transient () =
  let lambda = 1. and mu = 2. in
  let chain = two_state lambda mu in
  let initial = [| 1.; 0. |] in
  (* t = 0 stays put. *)
  let p0 = Ctmc.transient chain ~initial ~time:0. ~epsilon:1e-12 in
  check_float "t=0" 1. p0.(0);
  (* Closed form: p_up(t) = mu/(l+m) + l/(l+m) e^{-(l+m)t}. *)
  let t = 0.7 in
  let expected =
    (mu /. (lambda +. mu))
    +. (lambda /. (lambda +. mu)) *. Float.exp (-.(lambda +. mu) *. t)
  in
  let pt = Ctmc.transient chain ~initial ~time:t ~epsilon:1e-12 in
  Alcotest.(check (float 1e-8)) "closed form" expected pt.(0);
  (* Long horizon approaches the stationary distribution. *)
  let pinf = Ctmc.transient chain ~initial ~time:50. ~epsilon:1e-12 in
  let pi = Ctmc.stationary chain in
  Alcotest.(check (float 1e-6)) "limit" pi.(0) pinf.(0);
  (* Mass conserved. *)
  check_float "mass" 1. (pt.(0) +. pt.(1))

let test_reducible_gth () =
  (* Two disjoint closed classes: states unable to reach state 0's class
     get probability 0 and the rest renormalizes. *)
  let chain = Ctmc.create 4 in
  Ctmc.add_transition chain ~src:0 ~dst:1 ~rate:1.;
  Ctmc.add_transition chain ~src:1 ~dst:0 ~rate:1.;
  Ctmc.add_transition chain ~src:2 ~dst:3 ~rate:1.;
  Ctmc.add_transition chain ~src:3 ~dst:2 ~rate:1.;
  let pi = Ctmc.stationary chain in
  check_float "class of 0, state 0" 0.5 pi.(0);
  check_float "class of 0, state 1" 0.5 pi.(1);
  check_float "unreachable class" 0. (pi.(2) +. pi.(3));
  (* Mass flowing out of state 0's class into a second closed class is a
     genuine error: the stationary distribution is not unique from 0. *)
  let leaky = Ctmc.create 4 in
  Ctmc.add_transition leaky ~src:0 ~dst:1 ~rate:1.;
  Ctmc.add_transition leaky ~src:1 ~dst:0 ~rate:1.;
  Ctmc.add_transition leaky ~src:0 ~dst:2 ~rate:1.;
  Ctmc.add_transition leaky ~src:2 ~dst:3 ~rate:1.;
  Ctmc.add_transition leaky ~src:3 ~dst:2 ~rate:1.;
  match Ctmc.stationary leaky with
  | _ -> Alcotest.fail "expected reducible-chain failure"
  | exception Ctmc.Non_ergodic _ -> ()

let () =
  Alcotest.run "markov"
    [
      ( "ctmc",
        [
          Alcotest.test_case "two-state stationary" `Quick
            test_two_state_stationary;
          Alcotest.test_case "builder validation" `Quick
            test_builder_validation;
          Alcotest.test_case "transient (uniformization)" `Quick
            test_transient;
          Alcotest.test_case "reducible chain rejected" `Quick
            test_reducible_gth;
        ] );
      ( "birth-death",
        [
          Alcotest.test_case "M/M/1/K distribution" `Quick
            test_mm1k_distribution;
          Alcotest.test_case "validation" `Quick test_birth_death_validation;
          Alcotest.test_case "unreachable states" `Quick
            test_birth_death_unreachable_states;
          Alcotest.test_case "probability_at_least" `Quick
            test_probability_at_least;
        ] );
      ( "properties",
        [
          Alcotest.test_case "closed form vs GTH" `Quick
            test_birth_death_vs_gth;
          Alcotest.test_case "stationarity" `Quick test_stationary_is_invariant;
        ] );
    ]

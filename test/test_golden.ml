(* Golden regression over the paper's evaluation artifacts: pinned
   rows of the Fig. 6 family table, the Fig. 7 design series at a
   reduced requirement grid, and the Fig. 8 cost-of-availability steps.
   These snapshots freeze the search's observable behavior; any change
   to pruning, tie-breaking or the availability engines that shifts a
   selected design shows up here. *)

module Duration = Aved_units.Duration
module Figures = Aved.Figures

let costs_equal = Alcotest.float 1e-6

(* ------------------------------------------------------------------ *)
(* Fig. 6 *)

let fig6_points = lazy (Figures.fig6 ())

(* Optimal design at a load for a downtime budget: the frontier is
   ordered by increasing cost and decreasing downtime, so the first
   point within budget is the cheapest feasible design. *)
let optimal_at points ~load ~budget_minutes =
  List.find_opt
    (fun (p : Figures.fig6_point) ->
      p.load = load && p.downtime_minutes <= budget_minutes)
    points

let test_fig6_pinned_rows () =
  let points = Lazy.force fig6_points in
  List.iter
    (fun (load, family, cost) ->
      match optimal_at points ~load ~budget_minutes:100. with
      | None -> Alcotest.failf "no design within budget at load %g" load
      | Some p ->
          Alcotest.(check string)
            (Printf.sprintf "family at load %g" load)
            family p.family;
          Alcotest.check costs_equal
            (Printf.sprintf "cost at load %g" load)
            cost p.annual_cost)
    [
      (400., "(rD, bronze, 0, 1)", 12820.);
      (1000., "(rC, bronze, 1, 0)", 28320.);
      (1400., "(rC, bronze, 1, 0)", 37760.);
      (1600., "(rC, silver, 1, 0)", 44280.);
      (3200., "(rC, bronze, 1, 1)", 83020.);
    ]

let test_fig6_family_crossover () =
  (* Paper §5.1: at a 100 min/yr budget the one-extra-resource bronze
     family carries the low-load range and hands over to the silver
     family around 1400-1600 load units. *)
  let points = Lazy.force fig6_points in
  let family load =
    match optimal_at points ~load ~budget_minutes:100. with
    | Some p -> p.family
    | None -> Alcotest.failf "no design at load %g" load
  in
  List.iter
    (fun load ->
      Alcotest.(check string)
        (Printf.sprintf "below crossover (%g)" load)
        "(rC, bronze, 1, 0)" (family load))
    [ 600.; 1000.; 1400. ];
  List.iter
    (fun load ->
      Alcotest.(check string)
        (Printf.sprintf "above crossover (%g)" load)
        "(rC, silver, 1, 0)" (family load))
    [ 1600.; 2000.; 2400. ]

let test_fig6_machineb_never_selected () =
  (* Paper §5.1: machineB (rE/rF) never appears on the frontier over
     the practical downtime range. *)
  List.iter
    (fun (p : Figures.fig6_point) ->
      if
        p.downtime_minutes >= 0.05
        && (String.length p.family >= 3
           && (String.sub p.family 1 2 = "rE" || String.sub p.family 1 2 = "rF")
           )
      then
        Alcotest.failf "machineB on the frontier: load %g, %s" p.load p.family)
    (Lazy.force fig6_points)

let test_fig6_downtime_monotone_in_load () =
  (* Within one design family, downtime only grows with load. *)
  let by_family = Hashtbl.create 64 in
  List.iter
    (fun (p : Figures.fig6_point) ->
      Hashtbl.replace by_family p.family
        ((p.load, p.downtime_minutes)
        :: Option.value ~default:[] (Hashtbl.find_opt by_family p.family)))
    (Lazy.force fig6_points);
  Hashtbl.iter
    (fun family points ->
      let sorted =
        List.sort (fun (a, _) (b, _) -> Float.compare a b) points
      in
      let rec check = function
        | (l1, d1) :: ((l2, d2) :: _ as rest) ->
            if d2 < d1 -. 1e-12 then
              Alcotest.failf "%s: downtime shrank from load %g to %g" family
                l1 l2;
            check rest
        | [ _ ] | [] -> ()
      in
      check sorted)
    by_family

(* ------------------------------------------------------------------ *)
(* Fig. 7 *)

(* A reduced requirement grid spanning the rI -> rH crossover. *)
let fig7_points =
  lazy
    (Figures.fig7 ~config:Aved.Experiments.fig7_config
       ~requirements_hours:[ 1.; 6.; 8.2; 24.; 90.; 400. ]
       ())

let test_fig7_pinned_series () =
  let points = Lazy.force fig7_points in
  Alcotest.(check int) "all requirements feasible" 6 (List.length points);
  List.iter2
    (fun (resource, n, spares, ckpt, storage, cost)
         (p : Figures.fig7_point) ->
      let tag = Printf.sprintf "req %gh" p.requirement_hours in
      Alcotest.(check string) (tag ^ ": resource") resource p.resource;
      Alcotest.(check int) (tag ^ ": n") n p.n_resources;
      Alcotest.(check int) (tag ^ ": spares") spares p.n_spares;
      Alcotest.check (Alcotest.float 1e-4)
        (tag ^ ": checkpoint interval")
        ckpt p.checkpoint_interval_hours;
      Alcotest.(check string) (tag ^ ": storage") storage p.storage_location;
      Alcotest.check costs_equal (tag ^ ": cost") cost p.annual_cost)
    [
      ("rI", 206, 3, 0.587040, "central", 21668100.);
      ("rI", 18, 1, 0.083386, "central", 1963500.);
      ("rH", 317, 3, 0.343230, "peer", 965680.);
      ("rH", 52, 1, 0.296495, "central", 159820.);
      ("rH", 12, 1, 0.173354, "central", 39020.);
      ("rH", 3, 0, 0.173354, "central", 9060.);
    ]
    points

let test_fig7_structure () =
  let points = Lazy.force fig7_points in
  List.iter
    (fun (p : Figures.fig7_point) ->
      Alcotest.(check bool)
        (Printf.sprintf "prediction within requirement at %gh"
           p.requirement_hours)
        true
        (p.predicted_hours <= p.requirement_hours))
    points;
  let rec pairwise = function
    | (a : Figures.fig7_point) :: (b :: _ as rest) ->
        Alcotest.(check bool)
          (Printf.sprintf "cost non-increasing %gh -> %gh"
             a.requirement_hours b.requirement_hours)
          true
          (b.annual_cost <= a.annual_cost);
        (* Resource counts shrink as the requirement loosens — but only
           within one machine type; the crossover to the slower machine
           jumps to a larger fleet. *)
        if String.equal a.resource b.resource then
          Alcotest.(check bool)
            (Printf.sprintf "resources non-increasing %gh -> %gh"
               a.requirement_hours b.requirement_hours)
            true
            (b.n_resources <= a.n_resources);
        pairwise rest
    | [ _ ] | [] -> ()
  in
  pairwise points;
  (* The fast machine carries tight requirements, the cheap one the
     loose ones; the crossover sits between 6 and 8.2 hours. *)
  List.iter
    (fun (p : Figures.fig7_point) ->
      Alcotest.(check string)
        (Printf.sprintf "resource at %gh" p.requirement_hours)
        (if p.requirement_hours <= 6. then "rI" else "rH")
        p.resource)
    points

(* ------------------------------------------------------------------ *)
(* Fig. 8 *)

let fig8_points = lazy (Figures.fig8 ())

let test_fig8_cost_steps () =
  let points = Lazy.force fig8_points in
  (* Buying less downtime never costs less; relaxing the budget never
     costs more. *)
  List.iter
    (fun (p : Figures.fig8_point) ->
      Alcotest.(check bool)
        (Printf.sprintf "extra cost >= 0 at load %g, budget %.2f" p.load
           p.downtime_requirement_minutes)
        true (p.extra_annual_cost >= 0.))
    points;
  List.iter
    (fun load ->
      let series =
        List.filter (fun (p : Figures.fig8_point) -> p.load = load) points
        |> List.sort (fun (a : Figures.fig8_point) b ->
               Float.compare a.downtime_requirement_minutes
                 b.downtime_requirement_minutes)
      in
      Alcotest.(check bool)
        (Printf.sprintf "full grid feasible at load %g" load)
        true
        (List.length series = 16);
      let rec check = function
        | (a : Figures.fig8_point) :: (b :: _ as rest) ->
            if b.extra_annual_cost > a.extra_annual_cost then
              Alcotest.failf
                "load %g: extra cost rose from budget %.2f to %.2f" load
                a.downtime_requirement_minutes b.downtime_requirement_minutes;
            check rest
        | [ _ ] | [] -> ()
      in
      check series)
    Figures.default_fig8_loads

let test_fig8_pinned_endpoints () =
  let points = Lazy.force fig8_points in
  let extra ~load ~budget =
    match
      List.find_opt
        (fun (p : Figures.fig8_point) ->
          p.load = load
          && Float.abs (p.downtime_requirement_minutes -. budget) < 1e-9)
        points
    with
    | Some p -> p.extra_annual_cost
    | None -> Alcotest.failf "missing point load %g budget %g" load budget
  in
  Alcotest.check costs_equal "load 400, tightest budget" 7500.
    (extra ~load:400. ~budget:0.1);
  Alcotest.check costs_equal "load 400, loosest budget" 3380.
    (extra ~load:400. ~budget:100.);
  Alcotest.check costs_equal "load 3200, tightest budget" 10280.
    (extra ~load:3200. ~budget:0.1);
  Alcotest.check costs_equal "load 3200, loosest budget" 7500.
    (extra ~load:3200. ~budget:100.)

let () =
  Alcotest.run "golden"
    [
      ( "fig6",
        [
          Alcotest.test_case "pinned optimal rows (100 min/yr)" `Quick
            test_fig6_pinned_rows;
          Alcotest.test_case "bronze->silver crossover near 1400-1600" `Quick
            test_fig6_family_crossover;
          Alcotest.test_case "machineB never selected" `Quick
            test_fig6_machineb_never_selected;
          Alcotest.test_case "downtime monotone in load per family" `Quick
            test_fig6_downtime_monotone_in_load;
        ] );
      ( "fig7",
        [
          Alcotest.test_case "pinned design series" `Quick
            test_fig7_pinned_series;
          Alcotest.test_case "series structure and rI->rH crossover" `Quick
            test_fig7_structure;
        ] );
      ( "fig8",
        [
          Alcotest.test_case "cost steps monotone, non-negative" `Quick
            test_fig8_cost_steps;
          Alcotest.test_case "pinned endpoints" `Quick
            test_fig8_pinned_endpoints;
        ] );
    ]

module Availability = Aved_reliability.Availability
module Loss_window = Aved_reliability.Loss_window
module Duration = Aved_units.Duration

let check_float = Alcotest.(check (float 1e-9))
let frac a = Availability.to_fraction a

let test_of_mtbf_mttr () =
  check_float "simple" (2. /. 3.)
    (frac
       (Availability.of_mtbf_mttr ~mtbf:(Duration.of_hours 2.)
          ~mttr:(Duration.of_hours 1.)));
  check_float "zero mttr" 1.
    (frac (Availability.of_mtbf_mttr ~mtbf:(Duration.of_hours 1.) ~mttr:Duration.zero));
  Alcotest.check_raises "zero mtbf"
    (Invalid_argument "Availability.of_mtbf_mttr: mtbf must be positive")
    (fun () ->
      ignore (Availability.of_mtbf_mttr ~mtbf:Duration.zero ~mttr:Duration.zero))

let test_series () =
  let a = Availability.of_fraction 0.9 and b = Availability.of_fraction 0.8 in
  check_float "series" 0.72 (frac (Availability.series [ a; b ]));
  check_float "series empty" 1. (frac (Availability.series []))

let test_annual_downtime () =
  let a = Availability.of_fraction 0.999 in
  Alcotest.(check (float 1e-6))
    "downtime minutes" (0.001 *. 365. *. 24. *. 60.)
    (Duration.minutes (Availability.annual_downtime a));
  check_float "roundtrip" 0.999
    (frac (Availability.of_annual_downtime (Availability.annual_downtime a)));
  check_float "unavailability" 0.001 (Availability.unavailability a)

let test_of_fraction_bounds () =
  Alcotest.check_raises "above one"
    (Invalid_argument "Availability.of_fraction: 1.5") (fun () ->
      ignore (Availability.of_fraction 1.5));
  Alcotest.check_raises "negative"
    (Invalid_argument "Availability.of_fraction: -0.1") (fun () ->
      ignore (Availability.of_fraction (-0.1)))

(* ------------------------------------------------------------------ *)

let test_mean_time_for_window () =
  let mtbf = Duration.of_hours 100. in
  let lw = Duration.of_hours 1. in
  (* T_lw = MTBF (e^{lw/MTBF} - 1). *)
  let expected = 100. *. (Float.exp 0.01 -. 1.) in
  Alcotest.(check (float 1e-9))
    "closed form" expected
    (Duration.hours (Loss_window.mean_time_for_window ~mtbf ~lw));
  check_float "zero window" 0.
    (Duration.seconds (Loss_window.mean_time_for_window ~mtbf ~lw:Duration.zero))

let test_useful_fraction_limits () =
  let mtbf = Duration.of_days 20. in
  check_float "no window" 1. (Loss_window.useful_fraction ~mtbf ~lw:Duration.zero);
  let small = Loss_window.useful_fraction ~mtbf ~lw:(Duration.of_minutes 1.) in
  Alcotest.(check bool) "small window near 1" true (small > 0.9999);
  let huge = Loss_window.useful_fraction ~mtbf ~lw:(Duration.of_days 400.) in
  Alcotest.(check bool) "huge window near 0" true (huge < 1e-6)

let test_useful_fraction_monotone () =
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"useful fraction decreases with window"
       ~count:300
       QCheck2.Gen.(
         let* mtbf_h = float_range 1. 1000. in
         let* lw1 = float_range 0.001 100. in
         let* lw2 = float_range 0.001 100. in
         return (mtbf_h, Float.min lw1 lw2, Float.max lw1 lw2))
       (fun (mtbf_h, lo, hi) ->
         let mtbf = Duration.of_hours mtbf_h in
         Loss_window.useful_fraction ~mtbf ~lw:(Duration.of_hours lo)
         >= Loss_window.useful_fraction ~mtbf ~lw:(Duration.of_hours hi)
            -. 1e-12))

let test_expected_job_time () =
  let mtbf = Duration.of_hours 1000. in
  let lw = Duration.of_minutes 10. in
  let availability = Availability.of_fraction 0.95 in
  let t =
    Loss_window.expected_job_time ~work_seconds:36000. ~availability ~mtbf ~lw
  in
  (* Must exceed work/availability and be close to it for tiny loss. *)
  Alcotest.(check bool) "above lower bound" true
    (Duration.seconds t >= 36000. /. 0.95);
  Alcotest.(check bool) "close to lower bound" true
    (Duration.seconds t <= 36000. /. 0.95 *. 1.01);
  Alcotest.check_raises "negative work"
    (Invalid_argument "Loss_window: negative work") (fun () ->
      ignore
        (Loss_window.expected_job_time ~work_seconds:(-1.) ~availability ~mtbf
           ~lw))

let test_optimal_interval () =
  (* Young's formula. *)
  let t =
    Loss_window.optimal_interval
      ~checkpoint_cost:(Duration.of_seconds 2.)
      ~mtbf:(Duration.of_seconds 10000.)
  in
  check_float "sqrt(2 c M)" 200. (Duration.seconds t)

let () =
  Alcotest.run "reliability"
    [
      ( "availability",
        [
          Alcotest.test_case "of_mtbf_mttr" `Quick test_of_mtbf_mttr;
          Alcotest.test_case "series" `Quick test_series;
          Alcotest.test_case "annual downtime" `Quick test_annual_downtime;
          Alcotest.test_case "fraction bounds" `Quick test_of_fraction_bounds;
        ] );
      ( "loss-window",
        [
          Alcotest.test_case "T_lw closed form" `Quick
            test_mean_time_for_window;
          Alcotest.test_case "useful fraction limits" `Quick
            test_useful_fraction_limits;
          Alcotest.test_case "useful fraction monotone" `Quick
            test_useful_fraction_monotone;
          Alcotest.test_case "expected job time" `Quick test_expected_job_time;
          Alcotest.test_case "Young optimum" `Quick test_optimal_interval;
        ] );
    ]

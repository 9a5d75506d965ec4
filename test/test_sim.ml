module Rng = Aved_sim.Rng
module Event_queue = Aved_sim.Event_queue
module Distribution = Aved_sim.Distribution

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done;
  let c = Rng.create 8 in
  Alcotest.(check bool) "different seed differs" true
    (Rng.next_int64 a <> Rng.next_int64 c)

let test_rng_copy_and_split () =
  let a = Rng.create 1 in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.next_int64 a) (Rng.next_int64 b);
  let master = Rng.create 2 in
  let s1 = Rng.split master and s2 = Rng.split master in
  Alcotest.(check bool) "splits differ" true
    (Rng.next_int64 s1 <> Rng.next_int64 s2)

(* Known answers: every simulated figure is a function of this stream,
   so its first outputs, and those of a generator split off after them,
   are pinned for two seeds. *)
let test_rng_known_answers () =
  let check seed ~first ~after_split =
    let rng = Rng.create seed in
    let draws = List.map (fun _ -> Rng.next_int64 rng) first in
    Alcotest.(check (list int64)) (Printf.sprintf "seed %d" seed) first draws;
    let split = Rng.split rng in
    let draws = List.map (fun _ -> Rng.next_int64 split) after_split in
    Alcotest.(check (list int64))
      (Printf.sprintf "seed %d, split" seed)
      after_split draws
  in
  check 1
    ~first:[ -7995527694508729151L; -4689498862643123097L; -534904783426661026L ]
    ~after_split:[ 1077443342560040426L; -453512824513800570L ];
  check 42
    ~first:[ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ]
    ~after_split:[ -3524509440982052747L; -8948382647134174731L ]

let test_float_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10000 do
    let u = Rng.float rng in
    if u < 0. || u >= 1. then Alcotest.failf "float out of range: %g" u
  done

let test_int_bounds () =
  let rng = Rng.create 4 in
  let seen = Array.make 6 0 in
  for _ = 1 to 6000 do
    let v = Rng.int rng 6 in
    seen.(v) <- seen.(v) + 1
  done;
  Array.iteri
    (fun i n ->
      if n < 700 then Alcotest.failf "bucket %d underpopulated: %d" i n)
    seen

let test_exponential_mean () =
  let rng = Rng.create 5 in
  let rate = 0.25 in
  let n = 50000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential rng ~rate
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f near %.3f" mean (1. /. rate))
    true
    (Float.abs (mean -. (1. /. rate)) < 0.1)

let test_gaussian_moments () =
  let rng = Rng.create 6 in
  let n = 50000 in
  let acc = ref 0. and acc2 = ref 0. in
  for _ = 1 to n do
    let x = Rng.gaussian rng ~mean:3. ~stddev:2. in
    acc := !acc +. x;
    acc2 := !acc2 +. (x *. x)
  done;
  let mean = !acc /. float_of_int n in
  let var = (!acc2 /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean" true (Float.abs (mean -. 3.) < 0.05);
  Alcotest.(check bool) "variance" true (Float.abs (var -. 4.) < 0.2)

let test_invalid_parameters () =
  let rng = Rng.create 9 in
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Rng.exponential: rate 0") (fun () ->
      ignore (Rng.exponential rng ~rate:0.));
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

(* ------------------------------------------------------------------ *)

let test_queue_ordering () =
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"events pop in time order" ~count:300
       QCheck2.Gen.(list_size (int_range 0 200) (float_range 0. 1000.))
       (fun times ->
         let q = Event_queue.create () in
         List.iteri (fun i t -> Event_queue.push q ~time:t i) times;
         let rec drain last acc =
           if Event_queue.is_empty q then List.rev acc
           else begin
             let t = Event_queue.min_time q in
             ignore (Event_queue.pop_min q);
             if t < last then Alcotest.failf "out of order: %g after %g" t last;
             drain t (t :: acc)
           end
         in
         let drained = drain Float.neg_infinity [] in
         List.length drained = List.length times))

(* Interleaved pushes and pops against a sorted-list model of the
   queue: every pop must return the earliest (time, push order) event.
   Times come from a small set so that ties are common. *)
let test_queue_matches_model () =
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"pops follow (time, push order)" ~count:300
       QCheck2.Gen.(list_size (int_range 0 300) (opt (int_range 0 20)))
       (fun ops ->
         let q = Event_queue.create () in
         (* The model: (time, seq) pairs kept sorted. *)
         let model = ref [] in
         List.iteri
           (fun seq op ->
             match op with
             | Some t ->
                 let time = float_of_int t in
                 Event_queue.push q ~time seq;
                 model := List.merge compare !model [ (time, seq) ]
             | None -> (
                 match !model with
                 | [] ->
                     if not (Event_queue.is_empty q) then
                       Alcotest.fail "queue not empty"
                 | (time, seq) :: rest ->
                     model := rest;
                     if Event_queue.min_time q <> time then
                       Alcotest.failf "min time %g, expected %g"
                         (Event_queue.min_time q) time;
                     let got = Event_queue.pop_min q in
                     if got <> seq then
                       Alcotest.failf "popped push %d, expected %d" got seq))
           ops;
         Event_queue.length q = List.length !model))

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:1. 10;
  Event_queue.push q ~time:1. 20;
  Event_queue.push q ~time:1. 30;
  let pop () = Event_queue.pop_min q in
  Alcotest.(check int) "fifo 1" 10 (pop ());
  Alcotest.(check int) "fifo 2" 20 (pop ());
  Alcotest.(check int) "fifo 3" 30 (pop ())

let test_queue_basics () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  Alcotest.(check (float 0.)) "empty min time" Float.infinity
    (Event_queue.min_time q);
  Event_queue.push q ~time:5. 0;
  Event_queue.push q ~time:2. 1;
  Alcotest.(check int) "length" 2 (Event_queue.length q);
  Alcotest.(check (float 0.)) "min time" 2. (Event_queue.min_time q);
  Event_queue.clear q;
  Alcotest.(check bool) "cleared" true (Event_queue.is_empty q);
  Alcotest.check_raises "pop from empty"
    (Invalid_argument "Event_queue.pop_min: empty queue") (fun () ->
      ignore (Event_queue.pop_min q));
  Alcotest.check_raises "non-finite time"
    (Invalid_argument "Event_queue.push: time inf") (fun () ->
      Event_queue.push q ~time:Float.infinity 0)

(* ------------------------------------------------------------------ *)

let test_distribution_means () =
  let rng = Rng.create 11 in
  let check_sampled_mean name dist tolerance =
    let n = 30000 in
    let acc = ref 0. in
    for _ = 1 to n do
      acc := !acc +. Distribution.sample dist rng
    done;
    let sampled = !acc /. float_of_int n in
    let expected = Distribution.mean dist in
    Alcotest.(check bool)
      (Printf.sprintf "%s sampled %.3f vs %.3f" name sampled expected)
      true
      (Float.abs (sampled -. expected) /. expected < tolerance)
  in
  check_sampled_mean "exponential" (Distribution.exponential_of_mean 5.) 0.05;
  check_sampled_mean "weibull"
    (Distribution.weibull_of_mean ~shape:1.5 ~mean:3.) 0.05;
  check_sampled_mean "lognormal"
    (Distribution.lognormal_of_mean ~sigma:0.5 ~mean:2.) 0.05;
  Alcotest.(check (float 1e-9))
    "deterministic" 4.
    (Distribution.sample (Distribution.Deterministic 4.) rng)

let test_distribution_mean_parameterization () =
  Alcotest.(check (float 1e-6))
    "weibull_of_mean" 7.
    (Distribution.mean (Distribution.weibull_of_mean ~shape:2. ~mean:7.));
  Alcotest.(check (float 1e-6))
    "lognormal_of_mean" 3.
    (Distribution.mean (Distribution.lognormal_of_mean ~sigma:1. ~mean:3.));
  Alcotest.(check (float 1e-6))
    "weibull shape 1 is exponential" 5.
    (Distribution.mean (Distribution.weibull_of_mean ~shape:1. ~mean:5.))

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "copy and split" `Quick test_rng_copy_and_split;
          Alcotest.test_case "known answers" `Quick test_rng_known_answers;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "int distribution" `Quick test_int_bounds;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "invalid parameters" `Quick
            test_invalid_parameters;
        ] );
      ( "event-queue",
        [
          Alcotest.test_case "ordering property" `Quick test_queue_ordering;
          Alcotest.test_case "interleaved pops match a sorted model" `Quick
            test_queue_matches_model;
          Alcotest.test_case "FIFO tie-break" `Quick test_queue_fifo_ties;
          Alcotest.test_case "basics" `Quick test_queue_basics;
        ] );
      ( "distribution",
        [
          Alcotest.test_case "sampled means" `Slow test_distribution_means;
          Alcotest.test_case "mean parameterization" `Quick
            test_distribution_mean_parameterization;
        ] );
    ]

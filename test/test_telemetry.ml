(* Tests for the telemetry registry and span collectors: sharded
   counter/histogram merge across domains, span parent links (also
   across pool domains), disabled-registry no-ops, and the Chrome trace
   export. *)

module Telemetry = Aved_telemetry.Telemetry

let with_fresh_registry f =
  let t = Telemetry.create () in
  Telemetry.install t;
  Fun.protect ~finally:Telemetry.uninstall (fun () -> f t)

(* ------------------------------------------------------------------ *)
(* Counters *)

let test_counter_basic () =
  let c = Telemetry.Counter.make "test.counter.basic" in
  with_fresh_registry @@ fun t ->
  Telemetry.Counter.incr c;
  Telemetry.Counter.add c 41;
  Alcotest.(check int) "aggregated" 42 (Telemetry.Counter.read t c);
  Alcotest.(check int) "by name" 42
    (Telemetry.Counter.read_by_name t "test.counter.basic");
  Alcotest.(check int) "unknown name" 0
    (Telemetry.Counter.read_by_name t "test.counter.never-created")

let test_counter_merge_across_domains () =
  let c = Telemetry.Counter.make "test.counter.domains" in
  with_fresh_registry @@ fun t ->
  Telemetry.Counter.incr c;
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Telemetry.Counter.incr c
            done))
  in
  List.iter Domain.join domains;
  (* The read aggregates every shard, so no increment is lost even
     though the worker domains have exited. *)
  Alcotest.(check int) "all increments survive" 4001
    (Telemetry.Counter.read t c)

let test_counter_isolated_between_registries () =
  let c = Telemetry.Counter.make "test.counter.isolation" in
  let first =
    with_fresh_registry (fun t ->
        Telemetry.Counter.add c 7;
        Telemetry.Counter.read t c)
  in
  Alcotest.(check int) "first registry" 7 first;
  let second =
    with_fresh_registry (fun t ->
        Telemetry.Counter.incr c;
        Telemetry.Counter.read t c)
  in
  (* A fresh registry starts from zero; the earlier run's cells belong
     to the earlier registry. *)
  Alcotest.(check int) "second registry starts clean" 1 second

let test_disabled_is_noop () =
  let c = Telemetry.Counter.make "test.counter.disabled" in
  let h = Telemetry.Histogram.make "test.histogram.disabled" in
  (* No registry installed: record operations are dropped, value-passing
     combinators still pass values through. *)
  Alcotest.(check bool) "disabled" false (Telemetry.enabled ());
  Telemetry.Counter.incr c;
  Telemetry.Histogram.observe h 1.0;
  Alcotest.(check int) "timed thunk still runs" 9
    (Telemetry.Histogram.time h (fun () -> 9));
  Alcotest.(check string) "span thunk still runs" "ok"
    (Telemetry.with_span "test.disabled.span" (fun () -> "ok"));
  with_fresh_registry @@ fun t ->
  (* The pre-install activity left no trace in the new registry. *)
  Alcotest.(check int) "counter clean" 0 (Telemetry.Counter.read t c);
  Alcotest.(check int) "histogram clean" 0
    (Telemetry.Histogram.read t h).Telemetry.Histogram.count

(* ------------------------------------------------------------------ *)
(* Gauges and histograms *)

let test_gauge () =
  let g = Telemetry.Gauge.make "test.gauge" in
  with_fresh_registry @@ fun t ->
  Alcotest.(check bool) "unset reads None" true
    (Telemetry.Gauge.read t g = None);
  Telemetry.Gauge.set g 2.5;
  Telemetry.Gauge.set g 4.0;
  Alcotest.(check (option (float 1e-9))) "last write wins" (Some 4.0)
    (Telemetry.Gauge.read t g)

let test_histogram_summary () =
  let h = Telemetry.Histogram.make "test.histogram.summary" in
  with_fresh_registry @@ fun t ->
  List.iter (Telemetry.Histogram.observe h) [ 1.0; 2.0; 4.0; 8.0 ];
  let s = Telemetry.Histogram.read t h in
  Alcotest.(check int) "count" 4 s.Telemetry.Histogram.count;
  Alcotest.(check (float 1e-9)) "sum" 15.0 s.Telemetry.Histogram.sum;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Telemetry.Histogram.min;
  Alcotest.(check (float 1e-9)) "max" 8.0 s.Telemetry.Histogram.max;
  Alcotest.(check (float 1e-9)) "mean" 3.75 (Telemetry.Histogram.mean s);
  (* Quantiles report the upper bound of the crossing bucket. *)
  Alcotest.(check bool) "p99 covers the max" true
    (Telemetry.Histogram.quantile s 0.99 >= 8.0)

(* quantile_est interpolates within the crossing log bucket, so any
   estimate must land within one bucket (a factor of 2) of the true
   quantile of the observed distribution — and exactly on it when every
   observation in the crossing bucket is the same value. *)
let test_histogram_quantile_est () =
  let h = Telemetry.Histogram.make "test.histogram.quantile_est" in
  with_fresh_registry @@ fun t ->
  (* Uniform 1..1000 ms expressed in seconds. *)
  for i = 1 to 1000 do
    Telemetry.Histogram.observe h (float_of_int i /. 1000.)
  done;
  let s = Telemetry.Histogram.read t h in
  List.iter
    (fun (q, exact) ->
      let est = Telemetry.Histogram.quantile_est s q in
      let ratio = est /. exact in
      if not (ratio >= 0.5 && ratio <= 2.0) then
        Alcotest.failf "p%.0f estimate %.4f not within a bucket of %.4f"
          (100. *. q) est exact;
      (* And never outside the observed range. *)
      Alcotest.(check bool) "within min/max" true
        (est >= s.Telemetry.Histogram.min && est <= s.Telemetry.Histogram.max))
    [ (0.5, 0.5); (0.95, 0.95); (0.99, 0.99) ]

let test_histogram_quantile_est_point_mass () =
  let h = Telemetry.Histogram.make "test.histogram.quantile_point" in
  with_fresh_registry @@ fun t ->
  (* Every observation identical: all quantiles are that value, and
     min/max clamping makes the estimate exact. *)
  for _ = 1 to 100 do
    Telemetry.Histogram.observe h 0.042
  done;
  let s = Telemetry.Histogram.read t h in
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%.0f of point mass" (100. *. q))
        0.042
        (Telemetry.Histogram.quantile_est s q))
    [ 0.5; 0.95; 0.99 ];
  (* Empty summary: NaN, matching [quantile]. *)
  let empty = Telemetry.Histogram.make "test.histogram.quantile_empty" in
  let s = Telemetry.Histogram.read t empty in
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Telemetry.Histogram.quantile_est s 0.5))

(* A two-sided spread: 90 fast observations and 10 slow ones. p50 must
   report the fast mode and p99 the slow mode — the tail is never
   averaged away. *)
let test_histogram_quantile_est_bimodal () =
  let h = Telemetry.Histogram.make "test.histogram.quantile_bimodal" in
  with_fresh_registry @@ fun t ->
  for _ = 1 to 90 do
    Telemetry.Histogram.observe h 0.001
  done;
  for _ = 1 to 10 do
    Telemetry.Histogram.observe h 1.0
  done;
  let s = Telemetry.Histogram.read t h in
  let p50 = Telemetry.Histogram.quantile_est s 0.5 in
  let p99 = Telemetry.Histogram.quantile_est s 0.99 in
  Alcotest.(check bool) "p50 sits in the fast mode" true (p50 < 0.01);
  Alcotest.(check bool) "p99 sits in the slow mode" true (p99 > 0.5)

let test_histogram_merge_across_domains () =
  let h = Telemetry.Histogram.make "test.histogram.domains" in
  with_fresh_registry @@ fun t ->
  let domains =
    List.init 4 (fun i ->
        Domain.spawn (fun () ->
            (* Distinct magnitudes per domain so min/max provably come
               from different shards. *)
            Telemetry.Histogram.observe h (Float.pow 10. (float_of_int i))))
  in
  List.iter Domain.join domains;
  let s = Telemetry.Histogram.read t h in
  Alcotest.(check int) "count" 4 s.Telemetry.Histogram.count;
  Alcotest.(check (float 1e-6)) "sum" 1111.0 s.Telemetry.Histogram.sum;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Telemetry.Histogram.min;
  Alcotest.(check (float 1e-9)) "max" 1000.0 s.Telemetry.Histogram.max

(* ------------------------------------------------------------------ *)
(* Spans *)

module Trace = Telemetry.Trace

(* A fresh collector bound as the calling thread's root trace context,
   as [--stats] and [--trace FILE] bind one around a CLI command. *)
let with_collector f =
  let tr = Trace.create ~trace_id:"test" () in
  Trace.with_context (Some (Trace.context tr ~parent:0)) (fun () -> f tr)

let find_span spans name =
  match List.find_opt (fun s -> s.Trace.name = name) spans with
  | Some s -> s
  | None -> Alcotest.failf "span %s not recorded" name

let check_within ~parent child =
  Alcotest.(check bool) "child starts after parent" true
    (child.Trace.start_s >= parent.Trace.start_s);
  Alcotest.(check bool) "child ends before parent" true
    (child.Trace.start_s +. child.Trace.dur_s
    <= parent.Trace.start_s +. parent.Trace.dur_s +. 1e-9)

let test_span_nesting () =
  with_fresh_registry @@ fun _ ->
  (* A registry alone records no span: [with_span] is a plain call. *)
  Alcotest.(check bool) "no trace bound" false (Telemetry.tracing ());
  Alcotest.(check int) "untraced value passes through" 3
    (Telemetry.with_span "untraced" (fun () -> 3));
  let tr, result =
    with_collector (fun tr ->
        Alcotest.(check bool) "trace bound" true (Telemetry.tracing ());
        ( tr,
          Telemetry.with_span "outer" (fun () ->
              Telemetry.with_span "inner" (fun () -> 17)) ))
  in
  Alcotest.(check int) "value passes through" 17 result;
  let spans = Trace.spans tr in
  Alcotest.(check int) "two spans" 2 (List.length spans);
  let outer = find_span spans "outer" and inner = find_span spans "inner" in
  Alcotest.(check int) "outer is a root" 0 outer.Trace.parent;
  Alcotest.(check int) "inner under outer" outer.Trace.id inner.Trace.parent;
  Alcotest.(check int) "same domain" outer.Trace.tid inner.Trace.tid;
  check_within ~parent:outer inner

(* Pool tasks adopt the caller's trace context, so spans on worker
   domains link to the span that fanned them out. *)
let test_span_nesting_across_pool () =
  Aved_parallel.Pool.run ~jobs:4 @@ fun pool ->
  let tr =
    with_collector (fun tr ->
        Telemetry.with_span "fanout" (fun () ->
            ignore
              (Aved_parallel.Pool.map pool
                 (fun i ->
                   Telemetry.with_span "task" (fun () ->
                       Telemetry.with_span "leaf" (fun () -> i)))
                 (List.init 8 Fun.id)));
        tr)
  in
  let spans = Trace.spans tr in
  let named name = List.filter (fun s -> s.Trace.name = name) spans in
  let fanout = find_span spans "fanout" in
  let tasks = named "task" and leaves = named "leaf" in
  Alcotest.(check int) "every task traced" 8 (List.length tasks);
  Alcotest.(check int) "every leaf traced" 8 (List.length leaves);
  List.iter
    (fun task ->
      Alcotest.(check int) "task under fanout" fanout.Trace.id
        task.Trace.parent;
      check_within ~parent:fanout task)
    tasks;
  List.iter
    (fun leaf ->
      match List.find_opt (fun t -> t.Trace.id = leaf.Trace.parent) tasks with
      | None -> Alcotest.fail "leaf not under a task"
      | Some task ->
          Alcotest.(check int) "leaf on its task's domain" task.Trace.tid
            leaf.Trace.tid;
          check_within ~parent:task leaf)
    leaves;
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped tr)

let test_span_survives_exception () =
  let tr = Trace.create ~trace_id:"test" () in
  (match
     Trace.with_context
       (Some (Trace.context tr ~parent:0))
       (fun () -> Telemetry.with_span "failing" (fun () -> failwith "boom"))
   with
  | _ -> Alcotest.fail "expected the exception to propagate"
  | exception Failure _ -> ());
  Alcotest.(check bool) "span recorded despite the raise" true
    (List.exists (fun s -> s.Trace.name = "failing") (Trace.spans tr));
  Alcotest.(check bool) "context restored" false (Telemetry.tracing ())

let test_chrome_trace_export () =
  let tr =
    with_collector (fun tr ->
        Telemetry.with_span "export \"quoted\"" (fun () -> ());
        tr)
  in
  let path = Filename.temp_file "aved_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Telemetry.write_chrome_spans (Trace.spans tr) oc;
      close_out oc;
      let ic = open_in path in
      let len = in_channel_length ic in
      let content = really_input_string ic len in
      close_in ic;
      let contains needle =
        let nl = String.length needle and cl = String.length content in
        let rec scan i =
          i + nl <= cl && (String.sub content i nl = needle || scan (i + 1))
        in
        scan 0
      in
      Alcotest.(check bool) "has traceEvents" true
        (contains "\"traceEvents\"");
      Alcotest.(check bool) "has complete events" true
        (contains "\"ph\":\"X\"");
      Alcotest.(check bool) "escapes quotes in names" true
        (contains "export \\\"quoted\\\""))

let () =
  Alcotest.run "telemetry"
    [
      ( "counters",
        [
          Alcotest.test_case "basic" `Quick test_counter_basic;
          Alcotest.test_case "merge across domains" `Quick
            test_counter_merge_across_domains;
          Alcotest.test_case "registry isolation" `Quick
            test_counter_isolated_between_registries;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_disabled_is_noop;
        ] );
      ( "gauges-histograms",
        [
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram quantile_est uniform" `Quick
            test_histogram_quantile_est;
          Alcotest.test_case "histogram quantile_est point mass" `Quick
            test_histogram_quantile_est_point_mass;
          Alcotest.test_case "histogram quantile_est bimodal" `Quick
            test_histogram_quantile_est_bimodal;
          Alcotest.test_case "histogram summary" `Quick
            test_histogram_summary;
          Alcotest.test_case "histogram merge across domains" `Quick
            test_histogram_merge_across_domains;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "nesting across Pool.map" `Quick
            test_span_nesting_across_pool;
          Alcotest.test_case "survives exceptions" `Quick
            test_span_survives_exception;
          Alcotest.test_case "chrome trace export" `Quick
            test_chrome_trace_export;
        ] );
    ]

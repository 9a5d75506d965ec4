(* Tests for the observability layer: the rolling SLO window (budget
   exhaustion and recovery), trace-id generation, Prometheus text
   exposition, and the request-lifecycle log record. *)

module Telemetry = Aved_telemetry.Telemetry
module Rolling = Aved_telemetry.Rolling
module Slo = Aved_obs.Slo
module Trace_id = Aved_obs.Trace_id
module Prometheus = Aved_obs.Prometheus
module Lifecycle = Aved_obs.Lifecycle
module Json = Aved_explain.Json

(* ------------------------------------------------------------------ *)
(* Rolling window *)

let test_rolling_counts () =
  let r = Rolling.create ~window_s:60. ~buckets:6 in
  let t0 = 1000. in
  Rolling.record r ~now:t0 ~good:true;
  Rolling.record r ~now:(t0 +. 1.) ~good:true;
  Rolling.record r ~now:(t0 +. 2.) ~good:false;
  let { Rolling.good; bad } = Rolling.totals r ~now:(t0 +. 3.) in
  Alcotest.(check int) "good" 2 good;
  Alcotest.(check int) "bad" 1 bad

let test_rolling_expiry () =
  let r = Rolling.create ~window_s:60. ~buckets:6 in
  let t0 = 1000. in
  Rolling.record r ~now:t0 ~good:false;
  (* Still visible within the window... *)
  Alcotest.(check int) "inside window" 1 (Rolling.totals r ~now:(t0 +. 30.)).Rolling.bad;
  (* ...gone after the window has fully rolled past it. *)
  Alcotest.(check int) "expired" 0 (Rolling.totals r ~now:(t0 +. 120.)).Rolling.bad;
  (* And the recycled bucket does not resurrect old counts. *)
  Rolling.record r ~now:(t0 +. 120.) ~good:true;
  let { Rolling.good; bad } = Rolling.totals r ~now:(t0 +. 121.) in
  Alcotest.(check int) "fresh good" 1 good;
  Alcotest.(check int) "no resurrection" 0 bad

let test_rolling_validation () =
  Alcotest.check_raises "zero window" (Invalid_argument "Rolling.create: window_s must be positive")
    (fun () -> ignore (Rolling.create ~window_s:0. ~buckets:6));
  Alcotest.check_raises "zero buckets" (Invalid_argument "Rolling.create: buckets must be >= 1")
    (fun () -> ignore (Rolling.create ~window_s:60. ~buckets:0))

(* ------------------------------------------------------------------ *)
(* SLO tracker *)

let slo_config = { Slo.target = 0.9; latency_budget_s = 0.05; window_s = 60. }

let test_slo_good_window () =
  let slo = Slo.create ~buckets:6 slo_config in
  let t0 = 1000. in
  for i = 0 to 99 do
    Slo.record slo ~now:(t0 +. float_of_int i /. 10.) ~ok:true ~latency_s:0.01
  done;
  let s = Slo.snapshot slo ~now:(t0 +. 10.) in
  Alcotest.(check int) "total" 100 s.Slo.total;
  Alcotest.(check (float 1e-9)) "success" 1.0 s.Slo.success_rate;
  Alcotest.(check (float 1e-9)) "burn" 0.0 s.Slo.burn_rate;
  Alcotest.(check (float 1e-9)) "budget intact" 1.0 s.Slo.budget_remaining;
  Alcotest.(check bool) "met" true s.Slo.met

(* Budget exhaustion: with a 90% target the error budget is 10% of the
   window. 80 good + 20 bad is a 20% error rate — twice the budget, so
   burn rate 2.0, budget_remaining -1.0, objective missed. *)
let test_slo_budget_exhaustion () =
  let slo = Slo.create ~buckets:6 slo_config in
  let t0 = 1000. in
  for _ = 1 to 80 do
    Slo.record slo ~now:t0 ~ok:true ~latency_s:0.01
  done;
  for i = 1 to 20 do
    (* Mix the failure modes: errors, slow successes, and sheds. *)
    if i mod 3 = 0 then Slo.record_failure slo ~now:t0
    else if i mod 3 = 1 then Slo.record slo ~now:t0 ~ok:false ~latency_s:0.01
    else Slo.record slo ~now:t0 ~ok:true ~latency_s:0.2
  done;
  let s = Slo.snapshot slo ~now:(t0 +. 1.) in
  Alcotest.(check int) "total" 100 s.Slo.total;
  Alcotest.(check int) "bad" 20 s.Slo.bad;
  Alcotest.(check (float 1e-9)) "success" 0.8 s.Slo.success_rate;
  Alcotest.(check (float 1e-9)) "burn rate" 2.0 s.Slo.burn_rate;
  Alcotest.(check (float 1e-9)) "budget overspent" (-1.0) s.Slo.budget_remaining;
  Alcotest.(check bool) "missed" false s.Slo.met

(* Recovery: the bad burst ages out of the rolling window while fresh
   good traffic keeps arriving, so the budget replenishes without any
   reset. *)
let test_slo_recovery () =
  let slo = Slo.create ~buckets:6 slo_config in
  let t0 = 1000. in
  for _ = 1 to 20 do
    Slo.record_failure slo ~now:t0
  done;
  let burning = Slo.snapshot slo ~now:(t0 +. 1.) in
  Alcotest.(check bool) "burning" false burning.Slo.met;
  Alcotest.(check bool) "budget gone" true
    (burning.Slo.budget_remaining < 0.);
  (* 90 seconds later the burst is outside the 60 s window. *)
  for i = 0 to 49 do
    Slo.record slo ~now:(t0 +. 90. +. float_of_int i /. 10.) ~ok:true
      ~latency_s:0.01
  done;
  let healed = Slo.snapshot slo ~now:(t0 +. 95.) in
  Alcotest.(check int) "burst aged out" 0 healed.Slo.bad;
  Alcotest.(check (float 1e-9)) "success back to 1" 1.0
    healed.Slo.success_rate;
  Alcotest.(check (float 1e-9)) "budget recovered" 1.0
    healed.Slo.budget_remaining;
  Alcotest.(check bool) "met again" true healed.Slo.met

let test_slo_empty_window_passes () =
  let slo = Slo.create ~buckets:6 slo_config in
  let s = Slo.snapshot slo ~now:1000. in
  Alcotest.(check int) "empty" 0 s.Slo.total;
  Alcotest.(check (float 1e-9)) "success 1.0" 1.0 s.Slo.success_rate;
  Alcotest.(check bool) "met" true s.Slo.met

let test_slo_validate_config () =
  let bad cfg = match Slo.validate_config cfg with Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "default valid" false (bad Slo.default_config);
  Alcotest.(check bool) "target 0" true
    (bad { slo_config with Slo.target = 0. });
  Alcotest.(check bool) "target > 1" true
    (bad { slo_config with Slo.target = 1.5 });
  Alcotest.(check bool) "negative latency" true
    (bad { slo_config with Slo.latency_budget_s = -1. });
  Alcotest.(check bool) "zero window" true
    (bad { slo_config with Slo.window_s = 0. })

(* ------------------------------------------------------------------ *)
(* Trace ids *)

let test_trace_id_format_and_uniqueness () =
  let seen = Hashtbl.create 4096 in
  let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
  for _ = 1 to 10_000 do
    let id = Trace_id.fresh () in
    Alcotest.(check int) "16 chars" 16 (String.length id);
    Alcotest.(check bool) "lowercase hex" true (String.for_all is_hex id);
    if Hashtbl.mem seen id then Alcotest.failf "duplicate trace id %s" id;
    Hashtbl.add seen id ()
  done

(* ------------------------------------------------------------------ *)
(* Prometheus exposition *)

(* A minimal text-format parser strong enough to catch what CI also
   validates: every non-comment line is [name{labels} value], every
   family has exactly one TYPE header, histogram buckets are cumulative
   and end at +Inf = count. *)
let parse_exposition text =
  let types = Hashtbl.create 16 in
  let samples = ref [] in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line = "" then ()
         else if String.length line >= 6 && String.sub line 0 6 = "# TYPE" then (
           match String.split_on_char ' ' line with
           | [ "#"; "TYPE"; name; kind ] ->
               if Hashtbl.mem types name then
                 Alcotest.failf "duplicate TYPE for %s" name;
               Hashtbl.add types name kind
           | _ -> Alcotest.failf "malformed TYPE line %S" line)
         else if line.[0] = '#' then ()
         else
           match String.index_opt line ' ' with
           | None -> Alcotest.failf "malformed sample line %S" line
           | Some i ->
               let name_part = String.sub line 0 i in
               let value_part =
                 String.sub line (i + 1) (String.length line - i - 1)
               in
               let value =
                 if value_part = "+Inf" then infinity
                 else
                   match float_of_string_opt value_part with
                   | Some v -> v
                   | None -> Alcotest.failf "bad sample value %S" value_part
               in
               samples := (name_part, value) :: !samples);
  (types, List.rev !samples)

let metric_name_ok name =
  let base =
    match String.index_opt name '{' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  String.length base > 0
  && (match base.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       base

let test_prometheus_render () =
  let c = Telemetry.Counter.make "test.prom.requests" in
  let g = Telemetry.Gauge.make "test.prom.depth" in
  let h = Telemetry.Histogram.make "test.prom.latency.seconds" in
  let t = Telemetry.create () in
  Telemetry.install t;
  Fun.protect ~finally:Telemetry.uninstall @@ fun () ->
  Telemetry.Counter.add c 7;
  Telemetry.Gauge.set g 3.5;
  List.iter (Telemetry.Histogram.observe h) [ 0.001; 0.004; 0.02; 1.5 ];
  let text =
    Prometheus.render ~extra_counters:[ ("test.prom.extra", 11) ]
      ~extra_gauges:[ ("test.prom.budget", 0.25) ]
      t
  in
  Alcotest.(check bool) "ends with newline" true
    (String.length text > 0 && text.[String.length text - 1] = '\n');
  let types, samples = parse_exposition text in
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) (Printf.sprintf "name %S legal" name) true
        (metric_name_ok name))
    samples;
  Alcotest.(check (option string)) "counter typed" (Some "counter")
    (Hashtbl.find_opt types "test_prom_requests");
  Alcotest.(check (option string)) "gauge typed" (Some "gauge")
    (Hashtbl.find_opt types "test_prom_depth");
  Alcotest.(check (option string)) "histogram typed" (Some "histogram")
    (Hashtbl.find_opt types "test_prom_latency_seconds");
  Alcotest.(check (option string)) "extra counter typed" (Some "counter")
    (Hashtbl.find_opt types "test_prom_extra");
  let value name =
    match List.assoc_opt name samples with
    | Some v -> v
    | None -> Alcotest.failf "missing sample %s" name
  in
  Alcotest.(check (float 1e-9)) "counter value" 7. (value "test_prom_requests");
  Alcotest.(check (float 1e-9)) "gauge value" 3.5 (value "test_prom_depth");
  Alcotest.(check (float 1e-9)) "extra counter" 11. (value "test_prom_extra");
  Alcotest.(check (float 1e-9)) "extra gauge" 0.25 (value "test_prom_budget");
  (* Histogram series: cumulative buckets, +Inf bucket equals count. *)
  let buckets =
    List.filter
      (fun (name, _) ->
        String.length name > 25
        && String.sub name 0 25 = "test_prom_latency_seconds"
        && String.contains name '{')
      samples
  in
  Alcotest.(check bool) "has buckets" true (List.length buckets > 1);
  let counts = List.map snd buckets in
  Alcotest.(check bool) "buckets cumulative" true
    (List.for_all2 ( <= ) counts
       (List.tl counts @ [ List.nth counts (List.length counts - 1) ]));
  Alcotest.(check (float 1e-9)) "count" 4.
    (value "test_prom_latency_seconds_count");
  Alcotest.(check bool) "+Inf bucket present" true
    (List.exists
       (fun (name, v) ->
         String.length name > 4
         && String.sub name (String.length name - 5) 5 = "Inf\"}"
         && v = 4.)
       buckets);
  Alcotest.(check (float 1e-6)) "sum" 1.525
    (value "test_prom_latency_seconds_sum")

let test_prometheus_sanitize () =
  Alcotest.(check string) "dots" "server_queue_depth"
    (Prometheus.sanitize_name "server.queue.depth");
  Alcotest.(check string) "leading digit" "_9lives"
    (Prometheus.sanitize_name "9lives");
  Alcotest.(check string) "parens" "evaluated_web_"
    (Prometheus.sanitize_name "evaluated(web)")

(* ------------------------------------------------------------------ *)
(* Lifecycle records *)

let test_lifecycle_record () =
  let t = Telemetry.create () in
  Telemetry.install t;
  Fun.protect ~finally:Telemetry.uninstall @@ fun () ->
  let lc =
    Lifecycle.start ~trace_id:"00000000deadbeef" ~verb:"design" ~conn_id:3
      ~req_id:(Json.Int 7)
      ~now:(Unix.gettimeofday ())
      ()
  in
  List.iter
    (fun stage -> Lifecycle.stamp lc stage)
    [ "parse"; "admit"; "queue"; "handle"; "encode"; "write" ];
  let record = Lifecycle.finish lc ~outcome:"ok" ~slow_threshold_s:10. in
  let fields = match record with Json.Obj f -> f | _ -> [] in
  Alcotest.(check bool) "is object" true (fields <> []);
  let str name =
    match List.assoc_opt name fields with
    | Some (Json.String s) -> s
    | _ -> Alcotest.failf "field %S missing or not a string" name
  in
  Alcotest.(check string) "trace id" "00000000deadbeef" (str "trace_id");
  Alcotest.(check string) "verb" "design" (str "verb");
  Alcotest.(check string) "outcome" "ok" (str "outcome");
  (match List.assoc_opt "slow" fields with
  | Some (Json.Bool false) -> ()
  | _ -> Alcotest.fail "slow flag should be false under a 10 s threshold");
  let stages =
    match List.assoc_opt "stages" fields with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "stages missing"
  in
  Alcotest.(check int) "six stages" 6 (List.length stages);
  let ends =
    List.map
      (fun s ->
        match s with
        | Json.Obj f -> (
            match List.assoc_opt "end_s" f with
            | Some (Json.Float e) -> e
            | _ -> Alcotest.fail "stage missing end_s")
        | _ -> Alcotest.fail "stage not an object")
      stages
  in
  Alcotest.(check bool) "monotone stage timestamps" true
    (List.for_all2 ( <= ) ends (List.tl ends @ [ infinity ]));
  (* Stage durations partition the end-to-end latency. *)
  let stage_ms =
    List.fold_left
      (fun acc s ->
        match s with
        | Json.Obj f -> (
            match List.assoc_opt "ms" f with
            | Some (Json.Float ms) -> acc +. ms
            | _ -> acc)
        | _ -> acc)
      0. stages
  in
  let total_ms =
    match List.assoc_opt "total_ms" fields with
    | Some (Json.Float ms) -> ms
    | _ -> Alcotest.fail "total_ms missing"
  in
  Alcotest.(check (float 1e-6)) "stages sum to total" total_ms stage_ms;
  (* The per-verb and per-stage histograms were fed. *)
  let histogram_count name =
    match List.assoc_opt name (Telemetry.histograms t) with
    | Some s -> s.Telemetry.Histogram.count
    | None -> 0
  in
  Alcotest.(check int) "verb histogram observed" 1
    (histogram_count "server.verb.design.seconds");
  Alcotest.(check int) "stage histogram observed" 1
    (histogram_count "server.stage.design.handle.seconds")

(* ------------------------------------------------------------------ *)
(* Trace collectors: span trees, capacity, sampling, ring, exemplars *)

module Trace = Telemetry.Trace
module Trace_store = Aved_obs.Trace_store
module Exemplars = Aved_obs.Exemplars
module Process_stats = Aved_obs.Process_stats

let span_ids spans = List.map (fun s -> s.Trace.id) spans

let check_parents_resolve spans =
  let ids = span_ids spans in
  List.iter
    (fun s ->
      if s.Trace.parent <> 0 && not (List.mem s.Trace.parent ids) then
        Alcotest.failf "span %d (%s) has unresolvable parent %d" s.Trace.id
          s.Trace.name s.Trace.parent)
    spans

let test_trace_tree () =
  let tr = Trace.create ~trace_id:"cafe" () in
  let root = Trace.alloc_span_id tr in
  Trace.with_context (Some (Trace.context tr ~parent:root)) (fun () ->
      Telemetry.with_span "outer" (fun () ->
          Telemetry.with_span "inner" (fun () -> ());
          Telemetry.with_span "inner2" (fun () -> ())));
  Alcotest.(check (option bool))
    "context restored" None
    (Option.map (fun _ -> true) (Trace.current ()));
  let spans = Trace.spans tr in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let find name = List.find (fun s -> s.Trace.name = name) spans in
  let outer = find "outer" and inner = find "inner" and inner2 = find "inner2" in
  Alcotest.(check int) "outer under root" root outer.Trace.parent;
  Alcotest.(check int) "inner under outer" outer.Trace.id inner.Trace.parent;
  Alcotest.(check int) "inner2 under outer" outer.Trace.id inner2.Trace.parent;
  (* Durations nest: children start no earlier and end no later. *)
  List.iter
    (fun child ->
      Alcotest.(check bool) "child starts after parent" true
        (child.Trace.start_s >= outer.Trace.start_s);
      Alcotest.(check bool) "child ends before parent" true
        (child.Trace.start_s +. child.Trace.dur_s
        <= outer.Trace.start_s +. outer.Trace.dur_s +. 1e-9))
    [ inner; inner2 ];
  Alcotest.(check bool) "children sum within parent" true
    (inner.Trace.dur_s +. inner2.Trace.dur_s <= outer.Trace.dur_s +. 1e-9);
  List.iter
    (fun s ->
      Alcotest.(check bool) "cpu nonnegative" true (s.Trace.cpu_s >= 0.);
      Alcotest.(check bool) "minor words nonnegative" true
        (s.Trace.minor_words >= 0.))
    spans;
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped tr)

let test_trace_capacity_drops_subtrees () =
  let tr = Trace.create ~capacity:3 ~trace_id:"feed" () in
  let root = Trace.alloc_span_id tr in
  Trace.with_context (Some (Trace.context tr ~parent:root)) (fun () ->
      for i = 1 to 10 do
        Telemetry.with_span (Printf.sprintf "outer%d" i) (fun () ->
            Telemetry.with_span "leaf" (fun () -> ()))
      done);
  (* The daemon's lifecycle records the root span at finish. *)
  Trace.record tr ~id:root ~parent:0 ~name:"request" ~start_s:0. ~dur_s:1.
    ~tid:0;
  let spans = Trace.spans tr in
  Alcotest.(check int) "capacity respected" 4 (List.length spans);
  Alcotest.(check int) "drops counted" 17 (Trace.dropped tr);
  (* Cells are claimed at entry, so retained spans always form complete
     chains back to the root: no orphan leaves from dropped parents. *)
  check_parents_resolve spans;
  (* A dropped parent must not leave a retained child: every leaf's
     parent is present. *)
  List.iter
    (fun s ->
      if s.Trace.name = "leaf" then
        Alcotest.(check bool) "leaf's parent retained" true
          (List.exists
             (fun p -> p.Trace.id = s.Trace.parent)
             spans))
    spans

let test_trace_record_bypasses_capacity () =
  let tr = Trace.create ~capacity:1 ~trace_id:"beef" () in
  Trace.with_context (Some (Trace.context tr ~parent:0)) (fun () ->
      Telemetry.with_span "a" (fun () -> ());
      Telemetry.with_span "b" (fun () -> ()));
  let root = Trace.alloc_span_id tr in
  Trace.record tr ~id:root ~parent:0 ~name:"request" ~start_s:0. ~dur_s:1.
    ~tid:0;
  (* The synthetic lifecycle span lands even though the cap is long
     gone; only the organically-entered span was bounded. *)
  let names = List.map (fun s -> s.Trace.name) (Trace.spans tr) in
  Alcotest.(check bool) "request span present" true
    (List.mem "request" names);
  Alcotest.(check int) "one organic span" 2 (List.length names)

let test_trace_sampling () =
  let id = "00000000deadbeef" in
  Alcotest.(check bool) "rate 1 samples" true (Trace_id.sampled id ~rate:1.);
  Alcotest.(check bool) "rate 0 never" false (Trace_id.sampled id ~rate:0.);
  Alcotest.(check bool) "nan never" false (Trace_id.sampled id ~rate:Float.nan);
  (* Deterministic per id: the decision is a pure function of the id,
     so reader threads and tests agree without shared state. *)
  let d = Trace_id.sampled id ~rate:0.5 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "stable" d (Trace_id.sampled id ~rate:0.5)
  done;
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Trace_id.sampled (Trace_id.fresh ()) ~rate:0.3 then incr hits
  done;
  let fraction = float_of_int !hits /. float_of_int n in
  if fraction < 0.25 || fraction > 0.35 then
    Alcotest.failf "sampling rate 0.3 hit %.3f" fraction

let completed ~trace_id ~verb =
  {
    Trace_store.trace_id;
    verb;
    conn_id = 1;
    outcome = "ok";
    started_s = 100.;
    total_s = 0.5;
    spans = [];
    spans_dropped = 0;
    counters = [ ("markov.birth_death.solves", 3) ];
  }

let test_trace_store_ring () =
  let ring = Trace_store.create ~capacity:2 in
  Trace_store.add ring (completed ~trace_id:"aa" ~verb:"design");
  Trace_store.add ring (completed ~trace_id:"bb" ~verb:"explain");
  Alcotest.(check int) "two live" 2 (Trace_store.length ring);
  Trace_store.add ring (completed ~trace_id:"cc" ~verb:"check");
  Alcotest.(check int) "still two" 2 (Trace_store.length ring);
  Alcotest.(check int) "one eviction" 1 (Trace_store.evictions ring);
  Alcotest.(check bool) "oldest gone" true (Trace_store.find ring "aa" = None);
  (match Trace_store.find ring "cc" with
  | Some c -> Alcotest.(check string) "newest verb" "check" c.Trace_store.verb
  | None -> Alcotest.fail "newest trace missing");
  match Trace_store.to_json (completed ~trace_id:"dd" ~verb:"design") with
  | Json.Obj fields ->
      List.iter
        (fun key ->
          Alcotest.(check bool) (key ^ " present") true
            (List.mem_assoc key fields))
        [ "trace_id"; "verb"; "outcome"; "total_ms"; "spans"; "counters" ]
  | _ -> Alcotest.fail "to_json not an object"

let test_exemplar_store () =
  let ex = Exemplars.create () in
  Exemplars.observe ex ~metric:"server.request.seconds" ~trace_id:"t1"
    ~value:0.01 ~now:5.;
  let le = Telemetry.Histogram.bound_of_value 0.01 in
  (match Exemplars.find ex ~metric:"server.request.seconds" ~le with
  | Some { Exemplars.ex_trace_id; ex_value; _ } ->
      Alcotest.(check string) "id" "t1" ex_trace_id;
      Alcotest.(check (float 0.)) "value" 0.01 ex_value
  | None -> Alcotest.fail "exemplar not found");
  (* Latest wins within a bucket; other buckets are unaffected. *)
  Exemplars.observe ex ~metric:"server.request.seconds" ~trace_id:"t2"
    ~value:0.0101 ~now:6.;
  (match Exemplars.find ex ~metric:"server.request.seconds" ~le with
  | Some e -> Alcotest.(check string) "latest wins" "t2" e.Exemplars.ex_trace_id
  | None -> Alcotest.fail "exemplar vanished");
  Exemplars.observe ex ~metric:"server.request.seconds" ~trace_id:"t3"
    ~value:100. ~now:7.;
  Alcotest.(check int) "two buckets" 2 (Exemplars.count ex);
  match Exemplars.find ex ~metric:"other" ~le with
  | Some _ -> Alcotest.fail "wrong metric matched"
  | None -> ()

let test_prometheus_exemplars () =
  let t = Telemetry.create () in
  Telemetry.with_registry t (fun () ->
      Telemetry.Histogram.observe
        (Telemetry.Histogram.make "server.request.seconds")
        0.02);
  let ex = Exemplars.create () in
  Exemplars.observe ex ~metric:"server.request.seconds" ~trace_id:"abcd1234"
    ~value:0.02 ~now:9.;
  let body = Prometheus.render ~exemplars:ex t in
  let exemplar_line =
    List.find_opt
      (fun line ->
        let has_prefix p =
          String.length line >= String.length p
          && String.sub line 0 (String.length p) = p
        in
        has_prefix "server_request_seconds_bucket"
        && String.length line > 3
        &&
        let rec contains i =
          i + 3 <= String.length line
          && (String.sub line i 3 = " # " || contains (i + 1))
        in
        contains 0)
      (String.split_on_char '\n' body)
  in
  (match exemplar_line with
  | None -> Alcotest.fail "no exemplar on any bucket line"
  | Some line ->
      let is_sub sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length line
          && (String.sub line i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "exemplar labels trace id" true
        (is_sub "# {trace_id=\"abcd1234\"}"));
  (* A scraper that strips exemplars must see the plain exposition:
     drop everything from " # " and re-validate with the strict
     parser (cumulative buckets, one TYPE per family). *)
  let stripped =
    String.split_on_char '\n' body
    |> List.map (fun line ->
           let rec find i =
             if i + 3 > String.length line then None
             else if String.sub line i 3 = " # " then Some i
             else find (i + 1)
           in
           match find 0 with
           | Some i -> String.sub line 0 i
           | None -> line)
    |> String.concat "\n"
  in
  let _types, samples = parse_exposition stripped in
  Alcotest.(check bool) "stripped body parses" true (samples <> [])

let test_process_stats () =
  let cpu = Process_stats.cpu_seconds () in
  Alcotest.(check bool) "cpu nonnegative" true (cpu >= 0.);
  (match Process_stats.open_fds () with
  | Some fds -> Alcotest.(check bool) "some fds open" true (fds >= 3)
  | None -> ());
  match Process_stats.live_threads () with
  | Some n -> Alcotest.(check bool) "at least one thread" true (n >= 1)
  | None -> ()

(* Pool workers adopt the spawning request's whole context from one
   capture: spans recorded inside tasks land in the same trace, parented
   under the span that was ambient at the [map] call, and every other
   key bound beside the trace context (here a test-local one) is seen
   too. Once the binding's scope ends, no task sees it any more. *)
let test_trace_pool_propagation () =
  let pool = Aved_parallel.Pool.create ~jobs:2 in
  Fun.protect ~finally:(fun () -> Aved_parallel.Pool.shutdown pool)
  @@ fun () ->
  let tag : string Telemetry.Context.key = Telemetry.Context.key () in
  let tr = Trace.create ~trace_id:"00ddba11" () in
  let root = Trace.alloc_span_id tr in
  let tags =
    Trace.with_context (Some (Trace.context tr ~parent:root)) (fun () ->
        Telemetry.Context.with_value tag (Some "request-7") (fun () ->
            Telemetry.with_span "fanout" (fun () ->
                Aved_parallel.Pool.map pool
                  (fun i ->
                    Telemetry.with_span (Printf.sprintf "task%d" i)
                      (fun () -> Telemetry.Context.get tag))
                  [ 1; 2; 3; 4 ])))
  in
  Trace.record tr ~id:root ~parent:0 ~name:"request" ~start_s:0. ~dur_s:1.
    ~tid:0;
  let spans = Trace.spans tr in
  check_parents_resolve spans;
  let fanout = List.find (fun s -> s.Trace.name = "fanout") spans in
  let tasks =
    List.filter
      (fun s ->
        String.length s.Trace.name >= 4 && String.sub s.Trace.name 0 4 = "task")
      spans
  in
  Alcotest.(check int) "all tasks traced" 4 (List.length tasks);
  List.iter
    (fun s ->
      Alcotest.(check int) "task under fanout" fanout.Trace.id s.Trace.parent)
    tasks;
  Alcotest.(check (list (option string)))
    "every task saw the key bound beside the trace"
    (List.init 4 (fun _ -> Some "request-7"))
    tags;
  Alcotest.(check (option string))
    "binding gone from the caller" None
    (Telemetry.Context.get tag);
  let after =
    Aved_parallel.Pool.map pool
      (fun _ -> (Telemetry.Context.get tag, Trace.current () <> None))
      [ 1; 2; 3; 4 ]
  in
  List.iter
    (fun (tag, traced) ->
      Alcotest.(check (option string)) "binding gone from tasks" None tag;
      Alcotest.(check bool) "trace gone from tasks" false traced)
    after

let () =
  Alcotest.run "obs"
    [
      ( "rolling",
        [
          Alcotest.test_case "counts" `Quick test_rolling_counts;
          Alcotest.test_case "expiry" `Quick test_rolling_expiry;
          Alcotest.test_case "validation" `Quick test_rolling_validation;
        ] );
      ( "slo",
        [
          Alcotest.test_case "good window" `Quick test_slo_good_window;
          Alcotest.test_case "budget exhaustion" `Quick
            test_slo_budget_exhaustion;
          Alcotest.test_case "recovery" `Quick test_slo_recovery;
          Alcotest.test_case "empty window passes" `Quick
            test_slo_empty_window_passes;
          Alcotest.test_case "validate config" `Quick test_slo_validate_config;
        ] );
      ( "trace-id",
        [
          Alcotest.test_case "format and uniqueness" `Quick
            test_trace_id_format_and_uniqueness;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "render" `Quick test_prometheus_render;
          Alcotest.test_case "sanitize" `Quick test_prometheus_sanitize;
        ] );
      ( "lifecycle",
        [ Alcotest.test_case "record" `Quick test_lifecycle_record ] );
      ( "trace",
        [
          Alcotest.test_case "span tree" `Quick test_trace_tree;
          Alcotest.test_case "capacity drops subtrees" `Quick
            test_trace_capacity_drops_subtrees;
          Alcotest.test_case "record bypasses capacity" `Quick
            test_trace_record_bypasses_capacity;
          Alcotest.test_case "sampling" `Quick test_trace_sampling;
          Alcotest.test_case "ring" `Quick test_trace_store_ring;
          Alcotest.test_case "pool propagation" `Quick
            test_trace_pool_propagation;
        ] );
      ( "exemplars",
        [
          Alcotest.test_case "store" `Quick test_exemplar_store;
          Alcotest.test_case "rendered" `Quick test_prometheus_exemplars;
        ] );
      ( "process",
        [ Alcotest.test_case "stats" `Quick test_process_stats ] );
    ]

(* The explain subsystem: provenance trail semantics, fates recorded by
   real searches, downtime decomposition agreement across the three
   engines, and the report/JSON assembly. *)

module Duration = Aved_units.Duration
module Money = Aved_units.Money
module Availability = Aved_reliability.Availability
module Tier_model = Aved_avail.Tier_model
module Evaluate = Aved_avail.Evaluate
module Search_config = Aved_search.Search_config
module Candidate = Aved_search.Candidate
module Tier_search = Aved_search.Tier_search
module Provenance = Aved_search.Provenance
module Explain = Aved_explain.Explain
module Json = Aved_explain.Json
open Aved_model

let config = Search_config.default
let infra () = Aved.Experiments.infrastructure ()
let app_tier () = Aved.Experiments.application_tier ()

let dummy_design ?(n_active = 1) ?(n_spare = 0) ?mechanism_settings () =
  Design.tier_design ~tier_name:"t" ~resource:"rC" ~n_active ~n_spare
    ?mechanism_settings ()

let dummy_record ?(tier = "t") ?(cost = 0.) ?(fate = Provenance.Incumbent) ()
    =
  {
    Provenance.tier;
    design = dummy_design ();
    cost = Money.of_float cost;
    downtime = None;
    execution_time = None;
    fate;
  }

(* ------------------------------------------------------------------ *)
(* Trail ring semantics *)

let test_ring_bound () =
  let t = Provenance.create ~capacity:4 () in
  Alcotest.(check int) "capacity" 4 (Provenance.capacity t);
  Provenance.with_trail t (fun () ->
      for i = 0 to 5 do
        Provenance.note (fun () -> dummy_record ~cost:(float_of_int i) ())
      done);
  Alcotest.(check int) "noted" 6 (Provenance.noted t);
  Alcotest.(check int) "dropped" 2 (Provenance.dropped t);
  Alcotest.(check (list string)) "tiers" [ "t" ] (Provenance.tiers t);
  let costs =
    List.map
      (fun (r : Provenance.record) -> Money.to_float r.cost)
      (Provenance.records t ~tier:"t")
  in
  (* The two oldest records were overwritten; survivors oldest-first. *)
  Alcotest.(check (list (float 0.))) "oldest-first" [ 2.; 3.; 4.; 5. ] costs;
  Alcotest.(check (list string)) "unknown tier empty" []
    (List.map
       (fun (r : Provenance.record) -> r.tier)
       (Provenance.records t ~tier:"nope"))

(* Nothing binds a trail on the test's main thread, so [note] must be
   inert here whatever other threads have bound. *)
let test_note_disabled_is_free () =
  Alcotest.(check bool) "disabled" false (Provenance.enabled ());
  let ran = ref false in
  Provenance.note (fun () ->
      ran := true;
      dummy_record ());
  Alcotest.(check bool) "thunk not run without a trail" false !ran

let test_with_trail_scoping () =
  let outer = Provenance.create () and inner = Provenance.create () in
  Alcotest.(check bool) "enabled inside" true
    (Provenance.with_trail outer (fun () -> Provenance.enabled ()));
  Alcotest.(check bool) "disabled after" false (Provenance.enabled ());
  (* Nested trails shadow, then restore, the enclosing one. *)
  Provenance.with_trail outer (fun () ->
      Provenance.with_trail inner (fun () ->
          Provenance.note (fun () -> dummy_record ~tier:"inner" ()));
      Provenance.note (fun () -> dummy_record ~tier:"outer" ()));
  Alcotest.(check (list string)) "inner got its record" [ "inner" ]
    (Provenance.tiers inner);
  Alcotest.(check (list string)) "outer got its record" [ "outer" ]
    (Provenance.tiers outer);
  (* A trail bound on another thread is invisible here. *)
  let other =
    Thread.create
      (fun () ->
        Provenance.with_trail outer (fun () ->
            Provenance.note (fun () -> dummy_record ~tier:"other" ())))
      ()
  in
  Thread.join other;
  Alcotest.(check bool) "other thread's trail not visible" false
    (Provenance.enabled ());
  (* Unbinds on exception too. *)
  (try
     Provenance.with_trail outer (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "disabled after raise" false (Provenance.enabled ())

let test_fate_labels () =
  let labels =
    List.map Provenance.fate_label
      [
        Provenance.Incumbent;
        Dominated { by = "x" };
        Over_downtime_budget { excess = Duration.zero };
        Over_cost_cap { excess = Money.zero };
        Rejected_by_model { reason = "r" };
      ]
  in
  Alcotest.(check (list string))
    "stable labels"
    [
      "incumbent";
      "dominated";
      "over_downtime_budget";
      "over_cost_cap";
      "rejected_by_model";
    ]
    labels

(* ------------------------------------------------------------------ *)
(* Fates recorded by a real search *)

let searched_optimal ?(jobs = 1) ?pool () =
  let config = Search_config.with_jobs jobs config in
  let trail = Provenance.create ~capacity:100_000 () in
  let best =
    Provenance.with_trail trail @@ fun () ->
    Tier_search.optimal ?pool config (infra ()) ~tier:(app_tier ())
      ~demand:1000. ~max_downtime:(Duration.of_minutes 100.)
  in
  match best with
  | Some c -> (trail, c)
  | None -> Alcotest.fail "expected a design"

let test_search_records_fates () =
  let trail, winner = searched_optimal () in
  let records = Provenance.records trail ~tier:"application" in
  Alcotest.(check bool) "has records" true (records <> []);
  Alcotest.(check int) "no drops at this capacity" 0
    (Provenance.dropped trail);
  Alcotest.(check int) "noted equals surviving" (Provenance.noted trail)
    (List.length records);
  (* The winner's latest record must be Incumbent. *)
  let final_for_winner =
    List.fold_left
      (fun acc (r : Provenance.record) ->
        if Design.compare_tier r.design winner.Candidate.design = 0 then
          Some r
        else acc)
      None records
  in
  (match final_for_winner with
  | Some { fate = Provenance.Incumbent; _ } -> ()
  | Some r ->
      Alcotest.failf "winner's final fate is %s"
        (Provenance.fate_label r.fate)
  | None -> Alcotest.fail "winner never recorded");
  let has label =
    List.exists
      (fun (r : Provenance.record) -> Provenance.fate_label r.fate = label)
      records
  in
  Alcotest.(check bool) "some candidate was over budget" true
    (has "over_downtime_budget");
  Alcotest.(check bool) "some candidate was dominated" true (has "dominated");
  (* Enterprise records carry downtime (when evaluated), never job time. *)
  List.iter
    (fun (r : Provenance.record) ->
      Alcotest.(check bool) "no execution_time" true (r.execution_time = None))
    records

let explanation_of (trail, winner) =
  Explain.explain_tier ~top:5 ~trail ~engine:Evaluate.Analytic
    ~design:winner.Candidate.design ~cost:winner.Candidate.cost
    ~model:winner.Candidate.model ()

let summarize_runner_ups (e : Explain.tier_explanation) =
  List.map
    (fun (r : Explain.runner_up) ->
      Provenance.describe r.record.design
      ^ " / "
      ^ Provenance.fate_label r.record.fate)
    e.runner_ups

let check_same_explanation name (expected : Explain.tier_explanation)
    (actual : Explain.tier_explanation) =
  Alcotest.(check int) (name ^ ": same distinct designs") expected.considered
    actual.considered;
  Alcotest.(check (list string))
    (name ^ ": same runner-ups in the same order")
    (summarize_runner_ups expected)
    (summarize_runner_ups actual)

let test_runner_ups_deterministic_across_jobs () =
  check_same_explanation "jobs 1 vs 3"
    (explanation_of (searched_optimal ~jobs:1 ()))
    (explanation_of (searched_optimal ~jobs:3 ()))

let test_explain_tier_report () =
  let trail, winner = searched_optimal () in
  let e =
    Explain.explain_tier ~top:3 ~trail ~engine:Evaluate.Analytic
      ~design:winner.Candidate.design ~cost:winner.Candidate.cost
      ~model:winner.Candidate.model ()
  in
  Alcotest.(check string) "tier name" "application" e.tier_name;
  Alcotest.(check bool) "runner-ups bounded" true
    (List.length e.runner_ups <= 3);
  Alcotest.(check bool) "winner excluded from runner-ups" true
    (List.for_all
       (fun (r : Explain.runner_up) ->
         Design.compare_tier r.record.design winner.Candidate.design <> 0)
       e.runner_ups);
  (* Runner-ups sorted by cost. *)
  let costs =
    List.map
      (fun (r : Explain.runner_up) -> Money.to_float r.record.cost)
      e.runner_ups
  in
  Alcotest.(check (list (float 1e-9))) "sorted by cost"
    (List.sort Float.compare costs)
    costs;
  (* Deltas are relative to the winner. *)
  List.iter
    (fun (r : Explain.runner_up) ->
      Alcotest.(check (float 1e-6))
        "cost delta"
        (Money.to_float r.record.cost -. Money.to_float winner.Candidate.cost)
        r.cost_delta)
    e.runner_ups;
  (* The analytic decomposition total is the winner's downtime fraction. *)
  Alcotest.(check (float 0.))
    "total is the engine downtime" winner.Candidate.downtime_fraction
    e.decomposition.Evaluate.total;
  (* Mean failed resources is available on the analytic engine. *)
  (match e.mean_failed_resources with
  | Some m -> Alcotest.(check bool) "mean failed in (0, n)" true (m > 0.)
  | None -> Alcotest.fail "expected mean failed resources");
  (* The human report renders without raising and mentions the parts. *)
  let explanation =
    {
      Explain.service_name = "test";
      engine = Explain.engine_label Evaluate.Analytic;
      cost = winner.Candidate.cost;
      downtime = Some (Candidate.downtime winner);
      execution_time = None;
      tiers = [ e ];
      noted = Provenance.noted trail;
      dropped = Provenance.dropped trail;
    }
  in
  let text = Format.asprintf "%a" Explain.pp explanation in
  List.iter
    (fun needle ->
      if
        not
          (let nl = String.length needle and hl = String.length text in
           let rec scan i =
             i + nl <= hl
             && (String.sub text i nl = needle || scan (i + 1))
           in
           scan 0)
      then Alcotest.failf "report misses %S in:\n%s" needle text)
    [ "by failure mode"; "runner-ups"; "nines"; "min/yr" ]

(* ------------------------------------------------------------------ *)
(* Trails are per request: concurrent searches never share one *)

(* Every record of a trail, rendered, in recording order. *)
let trail_lines trail =
  List.concat_map
    (fun tier ->
      List.map
        (fun (r : Provenance.record) ->
          Printf.sprintf "%s | %s | %.17g | %s | %s" r.tier
            (Provenance.describe r.design)
            (Money.to_float r.cost)
            (match r.downtime with
            | Some d -> Printf.sprintf "%.17g" (Duration.minutes d)
            | None -> "-")
            (Provenance.fate_label r.fate))
        (Provenance.records trail ~tier))
    (Provenance.tiers trail)

(* At jobs 1 a search's trail is a deterministic sequence, so searches
   interleaved on two threads must each record exactly what a solo run
   records — nothing of the other's. Each thread searches repeatedly so
   that the runtime's preemption ticks land inside searches. *)
let test_concurrent_trails_match_solo () =
  let solo = trail_lines (fst (searched_optimal ())) in
  let rounds = 40 in
  let runs = Array.make 2 [] in
  let threads =
    Array.init 2 (fun k ->
        Thread.create
          (fun () ->
            runs.(k) <-
              List.init rounds (fun _ ->
                  trail_lines (fst (searched_optimal ()))))
          ())
  in
  Array.iter Thread.join threads;
  Array.iteri
    (fun k trails ->
      List.iteri
        (fun round lines ->
          Alcotest.(check (list string))
            (Printf.sprintf "thread %d, round %d: trail equals the solo trail"
               k round)
            solo lines)
        trails)
    runs

(* On one shared jobs-2 pool, a trailed search runs beside an untrailed
   search of another load; the trailed one's explanation is the solo
   jobs-1 one. *)
let test_trailed_beside_untrailed_search () =
  let solo = explanation_of (searched_optimal ~jobs:1 ()) in
  Aved_parallel.Pool.run ~jobs:2 @@ fun pool ->
  let config = Search_config.with_jobs 2 config in
  let untrailed =
    Thread.create
      (fun () ->
        for _ = 1 to 3 do
          ignore
            (Tier_search.optimal ~pool config (infra ()) ~tier:(app_tier ())
               ~demand:2500. ~max_downtime:(Duration.of_minutes 30.))
        done)
      ()
  in
  let trailed = explanation_of (searched_optimal ~jobs:2 ~pool ()) in
  Thread.join untrailed;
  check_same_explanation "trailed beside untrailed" solo trailed

(* Every pool task sees its own batch's trail binding, also when the
   thread executing it is a caller helping from another batch. The
   schedule is forced: the untrailed batch parks its first two slots
   (the caller's own and the one worker's) until the trailed batch is
   done, so the trailed caller must drain the untrailed batch's queued
   tasks itself. *)
let test_pool_tasks_see_their_batch_trail () =
  Aved_parallel.Pool.run ~jobs:2 @@ fun pool ->
  let m = Mutex.create () and changed = Condition.create () in
  let started = ref 0 and released = ref false in
  let probe () = (Provenance.enabled (), Thread.id (Thread.self ())) in
  let untrailed_task i =
    Mutex.lock m;
    incr started;
    Condition.broadcast changed;
    if i < 2 then
      while not !released do
        Condition.wait changed m
      done;
    Mutex.unlock m;
    probe ()
  in
  let untrailed_result = ref [] in
  let untrailed =
    Thread.create
      (fun () ->
        untrailed_result :=
          Aved_parallel.Pool.map pool untrailed_task (List.init 6 Fun.id))
      ()
  in
  Mutex.lock m;
  while !started < 2 do
    Condition.wait changed m
  done;
  Mutex.unlock m;
  let trail = Provenance.create () in
  let trailed =
    Provenance.with_trail trail (fun () ->
        Aved_parallel.Pool.map pool (fun _ -> probe ()) (List.init 4 Fun.id))
  in
  Mutex.lock m;
  released := true;
  Condition.broadcast changed;
  Mutex.unlock m;
  Thread.join untrailed;
  let me = Thread.id (Thread.self ()) in
  List.iter
    (fun (enabled, tid) ->
      Alcotest.(check bool) "trailed task sees the trail" true enabled;
      Alcotest.(check int) "trailed task ran on its caller" me tid)
    trailed;
  List.iteri
    (fun i (enabled, tid) ->
      Alcotest.(check bool)
        (Printf.sprintf "untrailed task %d sees no trail" i)
        false enabled;
      if i >= 2 then
        Alcotest.(check int)
          (Printf.sprintf "untrailed task %d ran on the helping caller" i)
          me tid)
    !untrailed_result

(* ------------------------------------------------------------------ *)
(* Decomposition across engines *)

let mc_config =
  { Aved_avail.Monte_carlo.replications = 4; horizon = Duration.of_years 10.; seed = 11 }

let test_decomposition_sums_across_engines () =
  let _, winner = searched_optimal () in
  let model = winner.Candidate.model in
  List.iter
    (fun (name, engine) ->
      let d = Evaluate.tier_downtime_decomposition engine model in
      let parts =
        List.fold_left
          (fun acc (c : Evaluate.class_contribution) -> acc +. c.fraction)
          0. d.by_class
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: classes sum to total (|%.3e|)" name
           (parts -. d.total))
        true
        (Float.abs (parts -. d.total) <= 1e-9);
      Alcotest.(check int)
        (name ^ ": one contribution per class")
        (List.length model.Tier_model.classes)
        (List.length d.by_class);
      List.iter
        (fun (c : Evaluate.class_contribution) ->
          Alcotest.(check bool) (name ^ ": non-negative") true
            (c.fraction >= 0.))
        d.by_class;
      (* Grouping by mechanism preserves the sum. *)
      let grouped =
        List.fold_left
          (fun acc (_, f) -> acc +. f)
          0.
          (Evaluate.by_mechanism d)
      in
      Alcotest.(check bool) (name ^ ": mechanism groups sum") true
        (Float.abs (grouped -. d.total) <= 1e-9))
    [
      ("analytic", Evaluate.Analytic);
      ("exact", Evaluate.Exact { max_states = 50_000 });
      ("monte-carlo", Evaluate.Monte_carlo mc_config);
    ]

let test_decomposition_carries_mechanism () =
  let _, winner = searched_optimal () in
  let d =
    Evaluate.tier_downtime_decomposition Evaluate.Analytic
      winner.Candidate.model
  in
  (* The application tier's hardware mode repairs via a maintenance
     contract; its software modes have fixed (zero) repair. *)
  Alcotest.(check bool) "a mechanism-repaired mode exists" true
    (List.exists
       (fun (c : Evaluate.class_contribution) ->
         match c.repair_mechanism with Some _ -> true | None -> false)
       d.by_class);
  Alcotest.(check bool) "a fixed-repair mode exists" true
    (List.exists
       (fun (c : Evaluate.class_contribution) -> c.repair_mechanism = None)
       d.by_class)

let test_by_mechanism_grouping () =
  let d =
    {
      Evaluate.total = 0.6;
      by_class =
        [
          { Evaluate.label = "a"; repair_mechanism = Some "m"; fraction = 0.1 };
          { Evaluate.label = "b"; repair_mechanism = None; fraction = 0.2 };
          { Evaluate.label = "c"; repair_mechanism = Some "m"; fraction = 0.3 };
        ];
    }
  in
  match Evaluate.by_mechanism d with
  | [ (Some "m", f1); (None, f2) ] ->
      Alcotest.(check (float 1e-12)) "mechanism sum" 0.4 f1;
      Alcotest.(check (float 1e-12)) "fixed sum" 0.2 f2
  | groups ->
      Alcotest.failf "unexpected grouping of %d entries" (List.length groups)

let perfect_model =
  {
    Tier_model.tier_name = "perfect";
    n_active = 1;
    n_min = 1;
    n_spare = 0;
    failure_scope = Service.Resource_scope;
    classes = [];
    loss_window = None;
    effective_performance = 1.;
  }

let test_decomposition_perfect_tier () =
  let d = Evaluate.tier_downtime_decomposition Evaluate.Analytic perfect_model in
  Alcotest.(check (float 0.)) "no downtime" 0. d.total;
  Alcotest.(check int) "no classes" 0 (List.length d.by_class)

(* ------------------------------------------------------------------ *)
(* Typed rejection (satellite: no blanket Invalid_argument catch) *)

let test_rejected_is_typed () =
  let starved = { perfect_model with effective_performance = 0. } in
  Alcotest.(check bool) "zero throughput raises Rejected" true
    (match
       Evaluate.job_completion_time Evaluate.Analytic starved ~job_size:10.
     with
    | _ -> false
    | exception Tier_model.Rejected _ -> true)

(* ------------------------------------------------------------------ *)
(* Nines formatting *)

let test_nines () =
  let mk fraction =
    {
      Candidate.design = dummy_design ();
      model = perfect_model;
      cost = Money.zero;
      downtime_fraction = fraction;
    }
  in
  Alcotest.(check (float 1e-9)) "3 nines" 3. (Candidate.nines (mk 0.001));
  Alcotest.(check string) "formatted" "3.0"
    (Format.asprintf "%a" Candidate.pp_nines (mk 0.001));
  Alcotest.(check string) "perfect is inf" "inf"
    (Format.asprintf "%a" Candidate.pp_nines (mk 0.));
  Alcotest.(check (float 1e-9))
    "availability nines agree" 5.
    (Availability.nines (Availability.of_fraction 0.99999))

(* ------------------------------------------------------------------ *)
(* JSON *)

let test_json_serializer () =
  Alcotest.(check string) "escaping" "{\"a\\\"b\":\"x\\ny\"}"
    (Json.to_string (Json.Obj [ ("a\"b", Json.String "x\ny") ]));
  Alcotest.(check string) "scalars" "[null,true,3,0.1,\"s\"]"
    (Json.to_string
       (Json.List
          [ Json.Null; Json.Bool true; Json.Int 3; Json.Float 0.1;
            Json.String "s" ]));
  Alcotest.(check string) "non-finite floats are null" "[null,null]"
    (Json.to_string
       (Json.List [ Json.Float Float.infinity; Json.Float Float.nan ]));
  (* Round-tripping: the printed representation parses back exactly. *)
  List.iter
    (fun f ->
      let s = Json.to_string (Json.Float f) in
      Alcotest.(check (float 0.)) ("round-trip " ^ s) f (float_of_string s))
    [ 0.1; 1. /. 3.; 1e-300; 98.26587 /. (365. *. 24. *. 60.) ]

(* The serializer's rules before its fast paths, kept as the
   reference: every float through "%.15g", falling back to "%.17g",
   and every string character through its own escape. *)
let reference_float f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let reference_string s =
  let buf = Buffer.create 16 in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* Random bit patterns, random integers of either sign up to 2^53, and
   the edges of the integer fast path. *)
let gen_json_float =
  let open QCheck2.Gen in
  oneof
    [
      map Int64.float_of_bits int64;
      map float_of_int (int_range (-(1 lsl 53)) (1 lsl 53));
      map float_of_int (int_range (-100_000) 100_000);
      oneofl
        [
          0.; -0.; 1e15; -1e15; 1e15 -. 1.; -.(1e15 -. 1.); 1e15 +. 1.;
          -.(1e15 +. 1.); 1e15 -. 0.5; 999999999999999.5; 2. ** 53.;
          -.(2. ** 53.); (2. ** 53.) +. 2.; 5e-324; -5e-324;
          Float.min_float; 2.2250738585072009e-308; Float.max_float;
          Float.infinity; Float.neg_infinity; Float.nan; 0.5; -1.; 1e14;
        ];
    ]

let json_float_matches_reference =
  QCheck2.Test.make ~name:"float printing = %.15g/%.17g rule" ~count:5000
    ~print:(fun f -> Printf.sprintf "%h" f)
    gen_json_float
    (fun f -> String.equal (Json.to_string (Json.Float f)) (reference_float f))

let json_string_matches_reference =
  QCheck2.Test.make ~name:"string escaping = per-character rule" ~count:2000
    ~print:String.escaped
    QCheck2.Gen.(
      string_size ~gen:(frequency [ (6, printable); (1, char) ]) (int_range 0 40))
    (fun s -> String.equal (Json.to_string (Json.String s)) (reference_string s))

let test_explanation_json_shape () =
  let trail, winner = searched_optimal () in
  let tier =
    Explain.explain_tier ~top:2 ~trail ~engine:Evaluate.Analytic
      ~design:winner.Candidate.design ~cost:winner.Candidate.cost
      ~model:winner.Candidate.model ()
  in
  let json =
    Explain.to_json
      {
        Explain.service_name = "svc";
        engine = "analytic";
        cost = winner.Candidate.cost;
        downtime = Some (Candidate.downtime winner);
        execution_time = None;
        tiers = [ tier ];
        noted = Provenance.noted trail;
        dropped = Provenance.dropped trail;
      }
  in
  match json with
  | Json.Obj fields ->
      List.iter
        (fun key ->
          Alcotest.(check bool) ("has " ^ key) true (List.mem_assoc key fields))
        [ "service"; "engine"; "cost"; "downtime_minutes_per_year";
          "provenance"; "tiers" ];
      (match List.assoc "tiers" fields with
      | Json.List [ Json.Obj tier_fields ] -> (
          match List.assoc "downtime" tier_fields with
          | Json.Obj downtime_fields ->
              (* The JSON carries the raw fractions: the sum-to-total
                 check CI runs must hold on the emitted values. *)
              let fraction = function
                | Json.Float f -> f
                | _ -> Alcotest.fail "fraction not a float"
              in
              let total = fraction (List.assoc "fraction" downtime_fields) in
              let parts =
                match List.assoc "by_class" downtime_fields with
                | Json.List classes ->
                    List.fold_left
                      (fun acc c ->
                        match c with
                        | Json.Obj cf ->
                            acc +. fraction (List.assoc "fraction" cf)
                        | _ -> Alcotest.fail "class not an object")
                      0. classes
                | _ -> Alcotest.fail "by_class not a list"
              in
              Alcotest.(check bool) "emitted fractions sum" true
                (Float.abs (parts -. total) <= 1e-9)
          | _ -> Alcotest.fail "downtime not an object")
      | _ -> Alcotest.fail "tiers shape");
  | _ -> Alcotest.fail "top-level not an object"

(* ------------------------------------------------------------------ *)
(* Frontier step annotation *)

let test_annotate_step () =
  let frontier =
    Tier_search.frontier config (infra ()) ~tier:(app_tier ()) ~demand:1000.
  in
  (match frontier with
  | a :: b :: _ ->
      let line = Explain.annotate_step ~prev:a ~next:b in
      let contains needle =
        let nl = String.length needle and hl = String.length line in
        let rec scan i =
          i + nl <= hl && (String.sub line i nl = needle || scan (i + 1))
        in
        scan 0
      in
      Alcotest.(check bool) ("describes a change: " ^ line) true
        (contains "->");
      Alcotest.(check bool) "prices the step" true (contains "buys");
      Alcotest.(check bool) "reports nines" true (contains "nines")
  | _ -> Alcotest.fail "frontier too small");
  (* Hand-built step: only n_spare changes. *)
  let mk ~n_spare ~cost ~fraction =
    {
      Candidate.design = dummy_design ~n_active:5 ~n_spare ();
      model = perfect_model;
      cost = Money.of_float cost;
      downtime_fraction = fraction;
    }
  in
  let line =
    Explain.annotate_step
      ~prev:(mk ~n_spare:0 ~cost:100. ~fraction:0.001)
      ~next:(mk ~n_spare:1 ~cost:150. ~fraction:0.0001)
  in
  let expect_prefix = "n_spare 0->1: +50/yr buys " in
  Alcotest.(check string) "diff and delta"
    expect_prefix
    (String.sub line 0 (String.length expect_prefix))

let () =
  Alcotest.run "explain"
    [
      ( "trail",
        [
          Alcotest.test_case "ring bound" `Quick test_ring_bound;
          Alcotest.test_case "disabled note is inert" `Quick
            test_note_disabled_is_free;
          Alcotest.test_case "with_trail scoping" `Quick
            test_with_trail_scoping;
          Alcotest.test_case "fate labels" `Quick test_fate_labels;
        ] );
      ( "fates",
        [
          Alcotest.test_case "search records fates" `Quick
            test_search_records_fates;
          Alcotest.test_case "runner-ups deterministic across jobs" `Quick
            test_runner_ups_deterministic_across_jobs;
          Alcotest.test_case "tier explanation" `Quick test_explain_tier_report;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "concurrent trails match solo" `Quick
            test_concurrent_trails_match_solo;
          Alcotest.test_case "trailed beside untrailed search" `Quick
            test_trailed_beside_untrailed_search;
          Alcotest.test_case "pool tasks see their batch's trail" `Quick
            test_pool_tasks_see_their_batch_trail;
        ] );
      ( "decomposition",
        [
          Alcotest.test_case "sums across engines" `Quick
            test_decomposition_sums_across_engines;
          Alcotest.test_case "carries repair mechanism" `Quick
            test_decomposition_carries_mechanism;
          Alcotest.test_case "by-mechanism grouping" `Quick
            test_by_mechanism_grouping;
          Alcotest.test_case "perfect tier" `Quick
            test_decomposition_perfect_tier;
          Alcotest.test_case "rejection is typed" `Quick test_rejected_is_typed;
        ] );
      ( "format",
        [
          Alcotest.test_case "nines" `Quick test_nines;
          Alcotest.test_case "json serializer" `Quick test_json_serializer;
          QCheck_alcotest.to_alcotest json_float_matches_reference;
          QCheck_alcotest.to_alcotest json_string_matches_reference;
          Alcotest.test_case "explanation json shape" `Quick
            test_explanation_json_shape;
          Alcotest.test_case "annotate step" `Quick test_annotate_step;
        ] );
    ]

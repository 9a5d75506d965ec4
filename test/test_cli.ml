(* End-to-end smoke tests of the aved executable: error paths must exit
   with status 1 and a single line on stderr, the telemetry flags must
   produce a stats summary and a Chrome-loadable trace, and validate
   and explain --json must reproduce their golden outputs. The tests run from
   _build/default/test, next to ../bin/main.exe. *)

let aved = Filename.concat (Filename.concat ".." "bin") "main.exe"

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  content

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
  in
  scan 0

(* Run [aved args], capturing the exit status and both streams. *)
let run_aved args =
  let dir = Filename.temp_file "aved_cli" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let out = Filename.concat dir "out" in
  let err = Filename.concat dir "err" in
  let status =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote aved) args
         (Filename.quote out) (Filename.quote err))
  in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  Sys.rmdir dir;
  (status, stdout, stderr)

(* A scratch directory holding the built-in specs, produced once via
   aved dump-specs. *)
let spec_dir =
  lazy
    (let dir = Filename.temp_file "aved_specs" "" in
     Sys.remove dir;
     let status, _, _ = run_aved (Printf.sprintf "dump-specs %s" dir) in
     if status <> 0 then Alcotest.failf "dump-specs failed with %d" status;
     dir)

let spec name = Filename.concat (Lazy.force spec_dir) name

let one_line s =
  match String.split_on_char '\n' (String.trim s) with
  | [ _ ] -> true
  | _ -> false

let test_bad_spec_file () =
  let bad = Filename.temp_file "aved_bad" ".spec" in
  write_file bad "this is not a spec\n";
  let status, _, stderr =
    run_aved
      (Printf.sprintf
         "design -i %s -s %s --load 1000 --downtime 100" bad
         (spec "ecommerce.spec"))
  in
  Sys.remove bad;
  Alcotest.(check int) "exit status" 1 status;
  Alcotest.(check bool) "one-line stderr" true (one_line stderr);
  Alcotest.(check bool) "names the parse error" true
    (contains stderr "spec error")

let test_missing_spec_file () =
  let status, _, stderr =
    run_aved
      (Printf.sprintf "design -i %s -s %s --load 1000 --downtime 100"
         "/nonexistent/infra.spec" (spec "ecommerce.spec"))
  in
  (* cmdliner rejects a missing `file`-typed argument before the command
     runs; any nonzero status with a diagnostic will do. *)
  Alcotest.(check bool) "nonzero exit" true (status <> 0);
  Alcotest.(check bool) "mentions the path" true
    (contains stderr "/nonexistent/infra.spec")

let test_jobs_zero () =
  let status, _, stderr =
    run_aved
      (Printf.sprintf
         "design -i %s -s %s --load 1000 --downtime 100 --jobs 0"
         (spec "infrastructure.spec") (spec "ecommerce.spec"))
  in
  Alcotest.(check int) "exit status" 1 status;
  Alcotest.(check bool) "one-line stderr" true (one_line stderr);
  Alcotest.(check bool) "names --jobs" true (contains stderr "--jobs")

let test_conflicting_requirements () =
  let status, _, stderr =
    run_aved
      (Printf.sprintf
         "design -i %s -s %s --load 1000 --downtime 100 --job-hours 5"
         (spec "infrastructure.spec") (spec "ecommerce.spec"))
  in
  Alcotest.(check int) "exit status" 1 status;
  Alcotest.(check bool) "one-line stderr" true (one_line stderr)

let test_stats_and_trace () =
  let trace = Filename.temp_file "aved_trace" ".json" in
  let status, stdout, stderr =
    run_aved
      (Printf.sprintf
         "design -i %s -s %s --load 400 --downtime 100 --jobs 2 --stats \
          --trace %s"
         (spec "infrastructure.spec") (spec "ecommerce.spec") trace)
  in
  let trace_content = read_file trace in
  Sys.remove trace;
  Alcotest.(check int) "exit status" 0 status;
  Alcotest.(check bool) "stdout has the design" true
    (contains stdout "cost");
  (* The summary lands on stderr, leaving stdout byte-identical to a
     run without --stats. *)
  Alcotest.(check bool) "stderr has the summary" true
    (contains stderr "telemetry summary");
  Alcotest.(check bool) "candidate counters present" true
    (contains stderr "search.candidates.evaluated");
  Alcotest.(check bool) "eval-cache reuse counter present" true
    (contains stderr "search.eval.downtime.reused");
  Alcotest.(check bool) "engine histogram present" true
    (contains stderr "avail.engine.analytic.seconds");
  Alcotest.(check bool) "solver span totals present" true
    (contains stderr "markov.birth_death.solve");
  Alcotest.(check bool) "trace is chrome json" true
    (contains trace_content "\"traceEvents\"")

(* Neither telemetry flag, alone or together, at one domain or four,
   changes a byte of stdout. *)
let test_stats_does_not_change_stdout () =
  let args =
    Printf.sprintf "design -i %s -s %s --load 400 --downtime 100"
      (spec "infrastructure.spec") (spec "ecommerce.spec")
  in
  let s0, plain, _ = run_aved (args ^ " --jobs 1") in
  Alcotest.(check int) "plain exit" 0 s0;
  let trace = Filename.temp_file "aved_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove trace) @@ fun () ->
  List.iter
    (fun jobs ->
      List.iter
        (fun flags ->
          let label = Printf.sprintf "--jobs %d%s" jobs flags in
          let status, stdout, _ =
            run_aved (Printf.sprintf "%s --jobs %d%s" args jobs flags)
          in
          Alcotest.(check int) (label ^ " exit") 0 status;
          Alcotest.(check string) (label ^ " stdout byte-identical") plain
            stdout)
        [
          " --stats";
          " --trace " ^ Filename.quote trace;
          " --stats --trace " ^ Filename.quote trace;
        ])
    [ 1; 4 ]

(* Span names of a Chrome trace-event file, one per event. *)
let trace_event_names path =
  let module Json = Aved_explain.Json in
  let field name = function
    | Json.Obj fields -> List.assoc_opt name fields
    | _ -> None
  in
  let doc = Aved_api.Json_parse.of_string_exn (read_file path) in
  match field "traceEvents" doc with
  | Some (Json.List events) ->
      List.map
        (fun event ->
          match field "name" event with
          | Some (Json.String name) -> name
          | _ -> Alcotest.fail "trace event without a name")
        events
  | _ -> Alcotest.fail "no traceEvents list"

let has_prefix prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* The value of a counter row ("  name   value") of the --stats table. *)
let stats_counter stderr name =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | [ n; v ] when n = name -> int_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' stderr)

(* A design's trace reaches below the search: the evaluation, engine
   and solver spans recorded on every pool domain are in the file. *)
let test_design_trace_reaches_engines () =
  let trace = Filename.temp_file "aved_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove trace) @@ fun () ->
  let status, _, _ =
    run_aved
      (Printf.sprintf
         "design -i %s -s %s --load 400 --downtime 100 --jobs 2 --trace %s"
         (spec "infrastructure.spec") (spec "ecommerce.spec")
         (Filename.quote trace))
  in
  Alcotest.(check int) "exit status" 0 status;
  let names = trace_event_names trace in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("has " ^ name) true (List.mem name names))
    [
      "search.tier.optimal";
      "search.eval.downtime";
      "avail.engine.analytic";
      "markov.birth_death.solve";
    ]

(* fig6 --trace keeps every sweep point and every fresh evaluation:
   nothing is dropped, however many spans the run records. *)
let test_fig6_trace_keeps_every_span () =
  let trace = Filename.temp_file "aved_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove trace) @@ fun () ->
  let status, _, stderr =
    run_aved
      (Printf.sprintf "fig6 --jobs 2 --stats --trace %s" (Filename.quote trace))
  in
  Alcotest.(check int) "exit status" 0 status;
  let names = trace_event_names trace in
  let loads = List.filter (has_prefix "fig6.load:") names in
  Alcotest.(check int) "24 fig6.load spans" 24 (List.length loads);
  Alcotest.(check int) "24 distinct loads" 24
    (List.length (List.sort_uniq String.compare loads));
  Alcotest.(check (option int))
    "one search.eval.downtime span per fresh evaluation"
    (stats_counter stderr "search.eval.downtime.fresh")
    (Some
       (List.length (List.filter (String.equal "search.eval.downtime") names)))

let test_explain_json () =
  let status, stdout, _ =
    run_aved
      (Printf.sprintf "explain -i %s -s %s --load 400 --downtime 100 --json"
         (spec "infrastructure.spec") (spec "ecommerce.spec"))
  in
  Alcotest.(check int) "exit status" 0 status;
  List.iter
    (fun key ->
      Alcotest.(check bool) ("has " ^ key) true
        (contains stdout (Printf.sprintf "\"%s\"" key)))
    [
      "service"; "engine"; "tiers"; "downtime_minutes_per_year"; "by_class";
      "runner_ups"; "fate"; "provenance";
    ];
  Alcotest.(check bool) "closes the object" true
    (String.length (String.trim stdout) > 2
    && (String.trim stdout).[0] = '{'
    && (String.trim stdout).[String.length (String.trim stdout) - 1] = '}')

let test_explain_human () =
  let status, stdout, _ =
    run_aved
      (Printf.sprintf "explain -i %s -s %s --load 400 --downtime 100 --top 3"
         (spec "infrastructure.spec") (spec "ecommerce.spec"))
  in
  Alcotest.(check int) "exit status" 0 status;
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true
        (contains stdout needle))
    [ "by failure mode"; "runner-ups"; "nines"; "min/yr" ]

let test_frontier_explain_is_superset () =
  let args tail =
    Printf.sprintf "frontier -i %s -s %s --tier application --load 400%s"
      (spec "infrastructure.spec") (spec "ecommerce.spec") tail
  in
  let s0, plain, _ = run_aved (args "") in
  let s1, explained, _ = run_aved (args " --explain") in
  Alcotest.(check int) "plain exit" 0 s0;
  Alcotest.(check int) "explain exit" 0 s1;
  (* Annotation lines carry a distinctive prefix; dropping them must
     recover the plain output byte for byte. *)
  let without_annotations =
    String.split_on_char '\n' explained
    |> List.filter (fun line ->
           not
             (String.length line >= 6 && String.sub line 0 6 = "    ^ "))
    |> String.concat "\n"
  in
  Alcotest.(check string) "annotations are purely additive" plain
    without_annotations;
  Alcotest.(check bool) "has at least one annotation" true
    (contains explained "    ^ ")

(* validate pins Engines A, B (exact CTMC) and C (simulation) end to
   end on the built-in scenario: byte for byte the checked-in golden. *)
let test_validate_golden () =
  let status, stdout, _ = run_aved "validate --jobs 1" in
  Alcotest.(check int) "exit status" 0 status;
  Alcotest.(check string) "golden/validate.txt"
    (read_file (Filename.concat "golden" "validate.txt"))
    stdout

(* explain --json pins the decision-provenance trail the search leaves
   behind (which candidates were recorded, with which fate), byte for
   byte, for an enterprise and a finite-job request. One domain, so
   the trail's counts do not depend on scheduling. *)
let test_explain_golden ~golden args () =
  let status, stdout, _ =
    run_aved
      (Printf.sprintf "explain -i %s %s --json --jobs 1"
         (spec "infrastructure.spec") args)
  in
  Alcotest.(check int) "exit status" 0 status;
  Alcotest.(check string) ("golden/" ^ golden)
    (read_file (Filename.concat "golden" golden))
    stdout

let () =
  Alcotest.run "cli"
    [
      ( "errors",
        [
          Alcotest.test_case "bad spec file" `Quick test_bad_spec_file;
          Alcotest.test_case "missing spec file" `Quick
            test_missing_spec_file;
          Alcotest.test_case "--jobs 0" `Quick test_jobs_zero;
          Alcotest.test_case "conflicting requirements" `Quick
            test_conflicting_requirements;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "--stats and --trace" `Quick
            test_stats_and_trace;
          Alcotest.test_case "--stats leaves stdout unchanged" `Quick
            test_stats_does_not_change_stdout;
          Alcotest.test_case "design trace reaches the engines" `Quick
            test_design_trace_reaches_engines;
          Alcotest.test_case "fig6 --trace keeps every span" `Quick
            test_fig6_trace_keeps_every_span;
        ] );
      ( "explain",
        [
          Alcotest.test_case "explain --json" `Quick test_explain_json;
          Alcotest.test_case "explain human report" `Quick test_explain_human;
          Alcotest.test_case "frontier --explain is additive" `Quick
            test_frontier_explain_is_superset;
        ] );
      ( "golden",
        [
          Alcotest.test_case "validate output" `Quick test_validate_golden;
          Alcotest.test_case "explain --json, e-commerce" `Quick
            (test_explain_golden ~golden:"explain_ecommerce.json"
               (Printf.sprintf "-s %s --load 1000 --downtime 100"
                  (spec "ecommerce.spec")));
          Alcotest.test_case "explain --json, scientific" `Quick
            (test_explain_golden ~golden:"explain_scientific.json"
               (Printf.sprintf "-s %s --job-hours 100"
                  (spec "scientific.spec")));
        ] );
    ]

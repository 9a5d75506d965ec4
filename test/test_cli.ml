(* End-to-end smoke tests of the aved executable: error paths must exit
   with status 1 and a single line on stderr, the telemetry flags must
   produce a stats summary and a Chrome-loadable trace, and validate
   must reproduce its golden output. The tests run from
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
  Alcotest.(check bool) "trace is chrome json" true
    (contains trace_content "\"traceEvents\"")

let test_stats_does_not_change_stdout () =
  let args =
    Printf.sprintf "design -i %s -s %s --load 400 --downtime 100 --jobs 1"
      (spec "infrastructure.spec") (spec "ecommerce.spec")
  in
  let s0, plain, _ = run_aved args in
  let s1, with_stats, _ = run_aved (args ^ " --stats") in
  Alcotest.(check int) "plain exit" 0 s0;
  Alcotest.(check int) "stats exit" 0 s1;
  Alcotest.(check string) "stdout byte-identical" plain with_stats

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
        ] );
      ( "explain",
        [
          Alcotest.test_case "explain --json" `Quick test_explain_json;
          Alcotest.test_case "explain human report" `Quick test_explain_human;
          Alcotest.test_case "frontier --explain is additive" `Quick
            test_frontier_explain_is_superset;
        ] );
      ( "golden",
        [ Alcotest.test_case "validate output" `Quick test_validate_golden ] );
    ]

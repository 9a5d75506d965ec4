(* Tests for the aved_check static analyzer.

   Four groups: golden diagnostics over the corpus of deliberately
   broken specs in bad_specs/ (every diagnostic must carry the right
   file:line:col), CTMC well-formedness on hand-built chains, the
   dimension lattice, and the central property — a spec the checker
   accepts without errors evaluates all its expressions over their
   declared ranges without Unbound_variable. *)

module Check = Aved_check.Check
module Diagnostic = Aved_check.Diagnostic
module Dim = Aved_check.Dim
module Ctmc = Aved_markov.Ctmc
module Spec = Aved_spec.Spec
open Aved_model

let qtest = QCheck_alcotest.to_alcotest
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

let run_aved args =
  let dir = Filename.temp_file "aved_check" "" in
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

(* ------------------------------------------------------------------ *)
(* Golden corpus: bad_specs/X.spec must produce exactly X.expected.
   Service specs are checked together with base_infra.spec, the clean
   infrastructure they resolve against. *)

let base_infra = Filename.concat "bad_specs" "base_infra.spec"

let corpus () =
  Sys.readdir "bad_specs" |> Array.to_list
  |> List.filter (fun f ->
         Filename.check_suffix f ".spec" && f <> "base_infra.spec")
  |> List.sort String.compare

let golden_case file =
  let spec = Filename.concat "bad_specs" file in
  let expected = read_file (Filename.remove_extension spec ^ ".expected") in
  let context = if contains (read_file spec) "application=" then base_infra ^ " " else "" in
  let status, stdout, stderr = run_aved (Printf.sprintf "check %s%s" context spec) in
  Alcotest.(check string) (file ^ " stderr") "" stderr;
  Alcotest.(check string) (file ^ " diagnostics") expected stdout;
  let want = if contains expected "error[" then 1 else 0 in
  Alcotest.(check int) (file ^ " exit status") want status

let test_golden_corpus () =
  let files = corpus () in
  Alcotest.(check bool) "corpus is non-empty" true (files <> []);
  List.iter golden_case files

let test_base_infra_is_clean () =
  let status, stdout, stderr =
    run_aved (Printf.sprintf "check --strict %s" base_infra)
  in
  Alcotest.(check int) "exit status" 0 status;
  Alcotest.(check string) "stdout" "" stdout;
  Alcotest.(check string) "stderr" "" stderr

let test_strict_promotes_warnings () =
  (* svc_discontinuity carries only a warning: default gate passes,
     --strict fails. *)
  let spec = Filename.concat "bad_specs" "svc_discontinuity.spec" in
  let lax, _, _ = run_aved (Printf.sprintf "check %s %s" base_infra spec) in
  Alcotest.(check int) "default exit" 0 lax;
  let strict, _, _ =
    run_aved (Printf.sprintf "check --strict %s %s" base_infra spec)
  in
  Alcotest.(check int) "strict exit" 1 strict

let test_bounds_infeasible_budget () =
  (* The worked --bounds example: a tier-scope service whose downtime
     lower bound over the whole search region exceeds a 5 min/yr
     budget. The bounds pass must certify infeasibility (exit 1)
     byte-for-byte per the blessed output; without --bounds the spec
     checks clean (covered by the corpus golden above). *)
  let spec = Filename.concat "bad_specs" "svc_infeasible_budget.spec" in
  let expected =
    read_file (Filename.concat "bad_specs" "svc_infeasible_budget.bounds.expected")
  in
  let status, stdout, stderr =
    run_aved
      (Printf.sprintf "check --bounds --downtime 5 %s %s" base_infra spec)
  in
  Alcotest.(check string) "stderr" "" stderr;
  Alcotest.(check string) "diagnostics and bounds table" expected stdout;
  Alcotest.(check int) "exit status" 1 status

let test_json_output () =
  let spec = Filename.concat "bad_specs" "svc_parse_caret.spec" in
  let status, stdout, _ =
    run_aved (Printf.sprintf "check --json %s %s" base_infra spec)
  in
  Alcotest.(check int) "exit status" 1 status;
  Alcotest.(check bool) "is a versioned object" true
    (String.length stdout > 1
    && stdout.[0] = '{'
    && contains stdout "\"schema_version\":2");
  Alcotest.(check bool) "carries a diagnostics array" true
    (contains stdout "\"diagnostics\":[");
  Alcotest.(check bool) "carries severity" true
    (contains stdout "\"severity\":\"error\"");
  Alcotest.(check bool) "carries the span" true
    (contains stdout "\"line\":7");
  let clean, empty, _ =
    run_aved (Printf.sprintf "check --json %s" base_infra)
  in
  Alcotest.(check int) "clean exit" 0 clean;
  Alcotest.(check bool) "clean report has zero errors" true
    (contains empty "\"errors\":0");
  Alcotest.(check bool) "clean report has no diagnostics" true
    (contains empty "\"diagnostics\":[]")

let test_design_refuses_errors () =
  (* The implicit check: design refuses a spec with checker errors and
     names the override; --no-check restores the old behaviour. *)
  let spec = Filename.concat "bad_specs" "svc_dims.spec" in
  let args =
    Printf.sprintf "design -i %s -s %s --load 100 --downtime 100" base_infra
      spec
  in
  let status, _, stderr = run_aved args in
  Alcotest.(check int) "refused" 1 status;
  Alcotest.(check bool) "names the override" true
    (contains stderr "--no-check");
  Alcotest.(check bool) "shows the diagnostic" true
    (contains stderr "dim-mismatch");
  let status, _, _ = run_aved (args ^ " --no-check") in
  Alcotest.(check int) "overridden" 0 status

let test_parse_error_caret () =
  (* The real parser must locate the truncated expression and render a
     caret snippet pointing at the offending column. *)
  let spec = Filename.concat "bad_specs" "svc_parse_caret.spec" in
  match Spec.service_of_file spec with
  | _ -> Alcotest.fail "expected a parse error"
  | exception Aved_spec.Line_lexer.Error { line; col; message } ->
      Alcotest.(check int) "line" 7 line;
      Alcotest.(check int) "column" 29 col;
      Alcotest.(check bool) "echoes the source line" true
        (contains message "performance(nActive)=200*n +");
      Alcotest.(check bool) "draws the caret" true
        (contains message (String.make (col - 1) ' ' ^ "^"))

(* ------------------------------------------------------------------ *)
(* Round trip: specs written by Spec_writer must check clean. *)

let test_written_specs_check_clean () =
  let dir = Filename.temp_file "aved_dump" "" in
  Sys.remove dir;
  let status, _, _ = run_aved (Printf.sprintf "dump-specs %s" dir) in
  Alcotest.(check int) "dump-specs" 0 status;
  let specs =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".spec")
    |> List.map (Filename.concat dir)
    |> List.sort String.compare
  in
  Alcotest.(check bool) "specs were written" true (specs <> []);
  let diags = Check.check_files specs in
  Alcotest.(check string) "no diagnostics" "" (Check.render_human diags);
  List.iter Sys.remove specs;
  Sys.rmdir dir

let replace_once ~sub ~by text =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length text then
      Alcotest.failf "%S does not occur in the text" sub
    else if String.sub text i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub text 0 i ^ by
  ^ String.sub text (i + n) (String.length text - i - n)

(* The checker's cost does not grow with the width of an nActive
   range: the monotonicity lint probes a rank-spread sample of the
   range, never the whole of it. The e-commerce pair is checked at the
   shipped [1-1000,+1] and at [1-100000,+1], from the same paths so the
   diagnostics compare byte for byte. *)
let test_check_cost_independent_of_range_width () =
  let dir = Filename.temp_file "aved_width" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let infra = Filename.concat dir "infrastructure.spec" in
  let service = Filename.concat dir "ecommerce.spec" in
  write_file infra Aved.Experiments.infrastructure_spec;
  let check ~n_active =
    write_file service
      (replace_once ~sub:"nActive=[1-1000,+1]" ~by:("nActive=" ^ n_active)
         Aved.Experiments.ecommerce_spec);
    let words0 = Gc.minor_words () in
    let diags = Check.check_files [ infra; service ] in
    (Check.render_human diags, Gc.minor_words () -. words0)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove [ infra; service ];
      Sys.rmdir dir)
  @@ fun () ->
  ignore (check ~n_active:"[1-1000,+1]");
  let narrow, narrow_words = check ~n_active:"[1-1000,+1]" in
  let wide, wide_words = check ~n_active:"[1-100000,+1]" in
  Alcotest.(check string) "same diagnostics" narrow wide;
  if wide_words > 2. *. narrow_words then
    Alcotest.failf
      "minor words %.0f at [1-1000,+1] vs %.0f at [1-100000,+1] (%.1fx)"
      narrow_words wide_words
      (wide_words /. narrow_words)

(* ------------------------------------------------------------------ *)
(* CTMC well-formedness on hand-built chains. *)

let codes diags =
  List.sort_uniq String.compare
    (List.map (fun (d : Diagnostic.t) -> d.code) diags)

let test_ctmc_clean () =
  let chain = Ctmc.create 3 in
  Ctmc.add_transition chain ~src:0 ~dst:1 ~rate:1.;
  Ctmc.add_transition chain ~src:1 ~dst:2 ~rate:2.;
  Ctmc.add_transition chain ~src:2 ~dst:0 ~rate:3.;
  Alcotest.(check (list string)) "no diagnostics" [] (codes (Check.check_ctmc chain))

let test_ctmc_single_state () =
  (* One state, no transitions: trivially well-formed, not absorbing. *)
  Alcotest.(check (list string)) "no diagnostics" []
    (codes (Check.check_ctmc (Ctmc.create 1)))

let test_ctmc_unreachable () =
  let chain = Ctmc.create 3 in
  Ctmc.add_transition chain ~src:0 ~dst:1 ~rate:1.;
  Ctmc.add_transition chain ~src:1 ~dst:0 ~rate:1.;
  Ctmc.add_transition chain ~src:2 ~dst:0 ~rate:1.;
  (* State 2 can reach 0 but nothing reaches it. *)
  Alcotest.(check (list string)) "unreachable flagged" [ "ctmc-unreachable" ]
    (codes (Check.check_ctmc chain))

let test_ctmc_absorbing () =
  let chain = Ctmc.create 3 in
  Ctmc.add_transition chain ~src:0 ~dst:1 ~rate:1.;
  Ctmc.add_transition chain ~src:1 ~dst:0 ~rate:1.;
  Ctmc.add_transition chain ~src:1 ~dst:2 ~rate:0.5;
  (* State 2 is reachable but traps probability. *)
  Alcotest.(check (list string)) "absorbing flagged" [ "ctmc-absorbing" ]
    (codes (Check.check_ctmc chain))

let test_ctmc_on_paper_models () =
  (* The representative designs of both built-in services must induce
     well-formed chains — check_model stays silent. *)
  let infra = Aved.Experiments.infrastructure () in
  List.iter
    (fun service ->
      let diags = Check.check_model ~infra ~service in
      Alcotest.(check string)
        (service.Service.service_name ^ " models are well-formed") ""
        (Check.render_human diags))
    [ Aved.Experiments.ecommerce (); Aved.Experiments.scientific () ]

(* ------------------------------------------------------------------ *)
(* The dimension lattice. *)

let dim = Alcotest.testable (Fmt.of_to_string Dim.to_string) ( = )

let test_dim_lattice () =
  Alcotest.(check (option dim)) "duration + count is a mismatch" None
    (Dim.unify Dim.Duration Dim.Scalar);
  Alcotest.(check (option dim)) "money + duration is a mismatch" None
    (Dim.unify Dim.Money Dim.Duration);
  Alcotest.(check (option dim)) "rate vs fraction is tolerated"
    (Some Dim.Scalar)
    (Dim.unify Dim.Per_duration Dim.Scalar);
  Alcotest.(check (option dim)) "Any is polymorphic" (Some Dim.Money)
    (Dim.unify Dim.Any Dim.Money);
  (match Dim.div Dim.Scalar Dim.Duration with
  | Dim.Dim Dim.Per_duration -> ()
  | _ -> Alcotest.fail "count / duration should be a rate");
  (match Dim.mul Dim.Duration Dim.Per_duration with
  | Dim.Dim Dim.Scalar -> ()
  | _ -> Alcotest.fail "duration x rate should cancel");
  (match Dim.mul Dim.Duration Dim.Duration with
  | Dim.Nonsense _ -> ()
  | _ -> Alcotest.fail "time squared should be nonsense");
  match Dim.div Dim.Scalar Dim.Money with
  | Dim.Nonsense _ -> ()
  | _ -> Alcotest.fail "money in a denominator should be nonsense"

(* ------------------------------------------------------------------ *)
(* Property: a spec the checker accepts without errors evaluates all
   its expressions over the declared ranges without Unbound_variable.
   The generator deliberately produces free variables, dimension
   mismatches and truncated expressions some of the time; those specs
   draw errors and are vacuously fine. The interesting half is the
   accepted specs: acceptance must imply evaluability. *)

let gen_perf_expr =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        map string_of_int (int_range 1 500);
        return "n";
        (* An unknown variable, some of the time. *)
        frequency [ (4, return "n"); (1, return "m") ];
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        let sub = self (depth - 1) in
        oneof
          [
            leaf;
            map2 (Printf.sprintf "%s + %s") sub sub;
            map2 (Printf.sprintf "%s * %s") sub sub;
            map2 (Printf.sprintf "min(%s, %s)") sub sub;
            map2 (Printf.sprintf "(%s) / %d") sub (int_range 1 9);
            map3
              (Printf.sprintf "if %s <= %d then %s else 2 * n")
              sub (int_range 1 6) sub;
          ])
    2

let gen_slowdown_expr =
  let open QCheck2.Gen in
  oneof
    [
      return "max(10/cpi, 100%)";
      return "100% + n";
      map (Printf.sprintf "%d%%") (int_range 100 400);
      (* Dimension mismatch: must be rejected, never evaluated. *)
      return "cpi + n";
      (* Free variable: likewise. *)
      return "max(10/zz, 100%)";
      map (Printf.sprintf "if n <= %d then 100%% else 100%% + n") (int_range 1 6);
    ]

let gen_service_spec =
  let open QCheck2.Gen in
  let* lo = int_range 1 4 in
  let* span = int_range 0 6 in
  let* step = int_range 1 3 in
  let* perf = gen_perf_expr in
  let* slow = gen_slowdown_expr in
  return
    (Printf.sprintf
       "application=prop\n\
        tier=web\n\
        resource=rX sizing=dynamic\n\
        nActive=[%d-%d,+%d]\n\
        performance(nActive)=%s\n\
        mechanism=chk\n\
        mperformance=%s\n"
       lo (lo + span) step perf slow)

let chk_setting =
  [
    ("cpi", Mechanism.Duration_value (Aved_units.Duration.of_minutes 1.));
    ("loc", Mechanism.Enum_value "central");
  ]

let evaluates_without_unbound (service : Service.t) =
  List.for_all
    (fun (tier : Service.tier) ->
      List.for_all
        (fun (option : Service.resource_option) ->
          List.for_all
            (fun n ->
              match
                ignore (Aved_perf.Perf_function.eval option.performance ~n);
                List.iter
                  (fun (_, impact) ->
                    ignore (Mech_impact.eval impact ~setting:chk_setting ~n))
                  option.mech_performance
              with
              | () -> true
              | exception Aved_expr.Expr.Unbound_variable _ -> false)
            (Int_range.to_list option.n_active))
        tier.options)
    service.tiers

let prop_accepted_specs_evaluate =
  QCheck2.Test.make ~name:"accepted specs evaluate over their ranges"
    ~count:120 gen_service_spec (fun text ->
      let file = Filename.temp_file "aved_prop" ".spec" in
      write_file file text;
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          let diags = Check.check_files [ base_infra; file ] in
          if Diagnostic.has_errors diags then true
          else evaluates_without_unbound (Spec.service_of_file file)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "check"
    [
      ( "golden",
        [
          Alcotest.test_case "bad-spec corpus" `Quick test_golden_corpus;
          Alcotest.test_case "base infrastructure is clean" `Quick
            test_base_infra_is_clean;
          Alcotest.test_case "--strict promotes warnings" `Quick
            test_strict_promotes_warnings;
          Alcotest.test_case "--bounds certifies an infeasible budget"
            `Quick test_bounds_infeasible_budget;
          Alcotest.test_case "--json" `Quick test_json_output;
          Alcotest.test_case "design refuses checker errors" `Quick
            test_design_refuses_errors;
          Alcotest.test_case "parse errors carry a caret" `Quick
            test_parse_error_caret;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "written specs check clean" `Quick
            test_written_specs_check_clean;
          Alcotest.test_case "wide nActive: same diagnostics, same allocation"
            `Quick test_check_cost_independent_of_range_width;
        ] );
      ( "ctmc",
        [
          Alcotest.test_case "well-formed chain" `Quick test_ctmc_clean;
          Alcotest.test_case "single state" `Quick test_ctmc_single_state;
          Alcotest.test_case "unreachable state" `Quick test_ctmc_unreachable;
          Alcotest.test_case "absorbing class" `Quick test_ctmc_absorbing;
          Alcotest.test_case "paper models are well-formed" `Quick
            test_ctmc_on_paper_models;
        ] );
      ( "dimensions",
        [ Alcotest.test_case "lattice" `Quick test_dim_lattice ] );
      ("properties", [ qtest prop_accepted_specs_evaluate ]);
    ]

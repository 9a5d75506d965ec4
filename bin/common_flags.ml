(* Shared command-line plumbing of the aved subcommands: the flags
   every search-running command repeats (--jobs/--stats/--trace/
   --no-check and the spec-file pair), the requirements triple, the
   implicit static-check gate, telemetry installation, and one error
   handler giving every command the same exit-code contract:

     0  success
     1  user error (bad flag values, malformed or rejected specs) —
        one line on stderr
     2  internal error (a bug) — one "internal error:" line on stderr

   (cmdliner itself exits 124 on command-line parse errors.) *)

open Cmdliner
module Duration = Aved_units.Duration
module Telemetry = Aved_telemetry.Telemetry

let ok_exit = 0
let user_error_exit = 1
let internal_error_exit = 2

(* Run a command body, mapping user-facing errors (bad arguments, bad
   specification files) to [user_error_exit] with a one-line message on
   stderr and anything unexpected to [internal_error_exit]. The body
   returns its own exit status so commands can signal failure without
   exceptions too. *)
let handle_errors f =
  match f () with
  | code -> code
  | exception Failure message ->
      prerr_endline message;
      user_error_exit
  | exception exn -> (
      match Aved_spec.Spec.error_to_string exn with
      | Some message ->
          prerr_endline message;
          user_error_exit
      | None ->
          Printf.eprintf "internal error: %s\n%!" (Printexc.to_string exn);
          internal_error_exit)

(* ------------------------------------------------------------------ *)
(* Common arguments *)

let infra_file =
  let doc = "Infrastructure specification file (paper Fig. 3 format)." in
  Arg.(required & opt (some file) None & info [ "infra"; "i" ] ~doc ~docv:"FILE")

let service_file =
  let doc = "Service specification file (paper Figs. 4/5 format)." in
  Arg.(
    required & opt (some file) None & info [ "service"; "s" ] ~doc ~docv:"FILE")

let load_arg =
  let doc = "Throughput requirement in service-specific units of load." in
  Arg.(value & opt (some float) None & info [ "load" ] ~doc ~docv:"UNITS")

let downtime_arg =
  let doc = "Maximum annual downtime, in minutes." in
  Arg.(value & opt (some float) None & info [ "downtime" ] ~doc ~docv:"MIN")

let job_hours_arg =
  let doc = "Maximum expected job completion time, in hours." in
  Arg.(value & opt (some float) None & info [ "job-hours" ] ~doc ~docv:"H")

let tier_arg =
  let doc = "Tier to analyze (defaults to the first tier)." in
  Arg.(value & opt (some string) None & info [ "tier" ] ~doc ~docv:"NAME")

let jobs_arg =
  let doc =
    "Number of domains the search may use (defaults to the runtime's \
     recommended domain count). The chosen design, frontier and figures are \
     identical for every value. $(b,aved explain) is the exception: its \
     candidate counts ($(i,designs_considered), $(i,provenance.noted)) can \
     differ between values (ROADMAP: \"Explain answers that do not depend \
     on --jobs\")."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~doc ~docv:"N")

let stats_arg =
  let doc =
    "Print a telemetry summary (search counters, engine latency histograms, \
     span totals by name) to stderr after the command finishes."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let no_check_arg =
  let doc =
    "Skip the implicit static check ($(b,aved check)) of the specification \
     files. Without this flag, commands refuse to run on specs with \
     Error-severity diagnostics."
  in
  Arg.(value & flag & info [ "no-check" ] ~doc)

let trace_file_arg =
  let doc =
    "Trace the whole command — search, engine and solver spans — and write \
     the spans to $(docv) as Chrome trace-event JSON (load in \
     chrome://tracing or ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")

let json_arg =
  let doc =
    Printf.sprintf
      "Emit the result as a single JSON object on stdout (Aved wire API, \
       schema_version %d — the same encoding $(b,aved serve) returns)."
      Aved_api.Api.schema_version
  in
  Arg.(value & flag & info [ "json" ] ~doc)

(* ------------------------------------------------------------------ *)
(* Shared command bodies *)

(* The requirements triple shared by design/explain/report: enterprise
   mode wants --load and --downtime together, finite-job mode --job-hours
   alone. *)
let requirements ~load ~downtime ~job_hours =
  match (load, downtime, job_hours) with
  | Some load, Some minutes, None ->
      Aved_model.Requirements.enterprise ~throughput:load
        ~max_annual_downtime:(Duration.of_minutes minutes)
  | None, None, Some hours ->
      Aved_model.Requirements.finite_job
        ~max_execution_time:(Duration.of_hours hours)
  | _ -> failwith "specify either --load and --downtime, or --job-hours alone"

(* Load the two spec files and run the static checker over them, unless
   --no-check. Errors refuse the run; clean specs print nothing, so
   stdout stays byte-identical to an unchecked run. Spec.load runs
   first so syntactically broken files keep their original one-line
   "spec error" report. *)
let load_checked ~no_check ~infra_file ~service_file =
  let infra, service = Aved_spec.Spec.load ~infra_file ~service_file in
  if not no_check then begin
    let diags = Aved_check.Check.check_files [ infra_file; service_file ] in
    let errors =
      List.filter
        (fun (d : Aved_check.Diagnostic.t) ->
          d.severity = Aved_check.Diagnostic.Error)
        diags
    in
    if errors <> [] then begin
      prerr_endline (Aved_check.Check.render_human errors);
      failwith
        (Printf.sprintf
           "static check failed with %d error(s); use --no-check to override"
           (List.length errors))
    end
  end;
  (infra, service)

(* When --stats or --trace asks for it, run a command body under a
   recording registry and a root trace collector: the command is traced
   at 100%, every span on every pool domain included. With both flags
   absent neither exists, so every instrumentation point in the
   libraries stays on its disabled one-branch path and output is
   byte-identical to an uninstrumented build. The collector is
   unbounded: a CLI run ends, and the largest (fig6) records about 24k
   spans at --jobs 1 and 32k at --jobs 4. *)
let with_telemetry ?(stats = false) ?trace f =
  if (not stats) && trace = None then f ()
  else begin
    let t = Telemetry.create () in
    let collector =
      Telemetry.Trace.create ~capacity:max_int ~trace_id:"aved" ()
    in
    let code =
      Telemetry.with_registry t @@ fun () ->
      Telemetry.Trace.with_context
        (Some (Telemetry.Trace.context collector ~parent:0))
        f
    in
    let spans = Telemetry.Trace.spans collector in
    if stats then
      Format.eprintf "%a@,%a@." Telemetry.pp_summary t
        Telemetry.pp_span_totals spans;
    Option.iter
      (fun path ->
        let oc = open_out path in
        Telemetry.write_chrome_spans spans oc;
        close_out oc;
        Printf.eprintf "wrote trace to %s\n%!" path)
      trace;
    code
  end

(* The --jobs value of every command, [aved serve] included: the
   runtime's recommended domain count when absent. Validated here
   rather than in the cmdliner converter so every command reports bad
   values the same way (exit 1, one line on stderr). *)
let resolve_jobs = function
  | Some j when j < 1 ->
      failwith (Printf.sprintf "--jobs must be a positive integer (got %d)" j)
  | Some j -> j
  | None -> Domain.recommended_domain_count ()

(* Search configuration of every search command: the base with the
   requested parallelism. *)
let search_config ?(base = Aved_search.Search_config.default) jobs =
  Aved_search.Search_config.with_jobs (resolve_jobs jobs) base

(* The aved command-line tool: design services from specification files
   and regenerate the paper's evaluation artifacts. The flags shared by
   every command, the static-check gate and the exit-code contract live
   in Common_flags; machine-readable output renders through Aved_api,
   the same encoders the serve daemon answers with. *)

open Cmdliner
open Common_flags
module Duration = Aved_units.Duration
module Model = Aved_model
module Api = Aved_api.Api
module Json = Aved_explain.Json

(* ------------------------------------------------------------------ *)
(* aved design *)

let design_cmd =
  let run infra_file service_file load downtime job_hours json jobs stats
      trace no_check =
    handle_errors (fun () ->
        let requirements = requirements ~load ~downtime ~job_hours in
        let infra, service = load_checked ~no_check ~infra_file ~service_file in
        let config = search_config jobs in
        with_telemetry ~stats ?trace @@ fun () ->
        let report = Aved.Engine.design ~config infra service requirements in
        (if json then
           print_endline
             (Json.to_string
                (Api.design_result_to_json (Api.design_result_of_report report)))
         else
           match report with
           | Some report -> Format.printf "%a@." Aved.Engine.pp_report report
           | None ->
               Format.printf
                 "no feasible design: the design space holds no configuration \
                  meeting %a@."
                 Model.Requirements.pp requirements);
        ok_exit)
  in
  let term =
    Term.(
      const run $ infra_file $ service_file $ load_arg $ downtime_arg
      $ job_hours_arg $ json_arg $ jobs_arg $ stats_arg $ trace_file_arg
      $ no_check_arg)
  in
  Cmd.v
    (Cmd.info "design"
       ~doc:
         "Search the design space for the minimum-cost design meeting the \
          requirements.")
    term

(* ------------------------------------------------------------------ *)
(* aved frontier *)

let frontier_cmd =
  let explain_flag =
    let doc =
      "Annotate each frontier step with what changed against the previous \
       design and what the extra spend buys (annotation lines start with \
       '    ^'; the plain frontier lines are unchanged)."
    in
    Arg.(value & flag & info [ "explain" ] ~doc)
  in
  let run infra_file service_file tier_name load explain json jobs stats
      trace no_check =
    handle_errors (fun () ->
        let load =
          match load with Some l -> l | None -> failwith "--load is required"
        in
        let infra, service = load_checked ~no_check ~infra_file ~service_file in
        let tier =
          match tier_name with
          | Some name -> (
              match Model.Service.find_tier service name with
              | Some t -> t
              | None -> failwith (Printf.sprintf "no tier %S" name))
          | None -> List.hd service.Model.Service.tiers
        in
        let config = search_config jobs in
        with_telemetry ~stats ?trace @@ fun () ->
        let frontier =
          Aved_search.Tier_search.frontier config infra ~tier ~demand:load
        in
        if json then
          print_endline
            (Json.to_string
               (Api.frontier_result_to_json
                  (Api.frontier_result_of_candidates
                     ~tier:tier.Model.Service.tier_name ~demand:load frontier)))
        else begin
          Format.printf
            "cost-availability frontier of tier %s at load %g (%d designs):@."
            tier.Model.Service.tier_name load (List.length frontier);
          let prev = ref None in
          List.iter
            (fun (c : Aved_search.Candidate.t) ->
              Format.printf "  %-44s downtime %10.3f min/yr   cost %s/yr@."
                (Aved_search.Candidate.family c
                   ~n_min_nominal:c.model.Aved_avail.Tier_model.n_min)
                (Duration.minutes (Aved_search.Candidate.downtime c))
                (Aved_units.Money.to_string c.cost);
              if explain then begin
                Option.iter
                  (fun p ->
                    Format.printf "    ^ %s@."
                      (Aved_explain.Explain.annotate_step ~prev:p ~next:c))
                  !prev;
                prev := Some c
              end)
            frontier
        end;
        ok_exit)
  in
  let term =
    Term.(
      const run $ infra_file $ service_file $ tier_arg $ load_arg
      $ explain_flag $ json_arg $ jobs_arg $ stats_arg $ trace_file_arg
      $ no_check_arg)
  in
  Cmd.v
    (Cmd.info "frontier"
       ~doc:"Print the cost-availability Pareto frontier of one tier.")
    term

(* ------------------------------------------------------------------ *)
(* Figure commands (built-in paper scenarios) *)

let fig6_cmd =
  let run jobs stats trace =
    handle_errors (fun () ->
        let config = search_config jobs in
        with_telemetry ~stats ?trace @@ fun () ->
        Aved.Figures.print_fig6 Format.std_formatter
          (Aved.Figures.fig6 ~config ());
        ok_exit)
  in
  Cmd.v
    (Cmd.info "fig6"
       ~doc:
         "Regenerate paper Fig. 6: optimal application-tier design families \
          over load and downtime requirements.")
    Term.(const run $ jobs_arg $ stats_arg $ trace_file_arg)

let fig7_cmd =
  let run jobs stats trace =
    handle_errors (fun () ->
        let config = search_config ~base:Aved.Experiments.fig7_config jobs in
        with_telemetry ~stats ?trace @@ fun () ->
        Aved.Figures.print_fig7 Format.std_formatter
          (Aved.Figures.fig7 ~config ());
        ok_exit)
  in
  Cmd.v
    (Cmd.info "fig7"
       ~doc:
         "Regenerate paper Fig. 7: optimal scientific-application design vs \
          execution-time requirement.")
    Term.(const run $ jobs_arg $ stats_arg $ trace_file_arg)

let fig8_cmd =
  let run jobs stats trace =
    handle_errors (fun () ->
        let config = search_config jobs in
        with_telemetry ~stats ?trace @@ fun () ->
        Aved.Figures.print_fig8 Format.std_formatter
          (Aved.Figures.fig8 ~config ());
        ok_exit)
  in
  Cmd.v
    (Cmd.info "fig8"
       ~doc:
         "Regenerate paper Fig. 8: extra annual cost of availability vs \
          downtime requirement.")
    Term.(const run $ jobs_arg $ stats_arg $ trace_file_arg)

let table1_cmd =
  let run () =
    Aved.Figures.print_table1 Format.std_formatter;
    ok_exit
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Print paper Table 1: the performance functions.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* aved validate: cross-engine agreement on the built-in scenario *)

let validate_cmd =
  let run jobs stats trace =
    handle_errors @@ fun () ->
    let config = search_config jobs in
    with_telemetry ~stats ?trace @@ fun () ->
    let infra = Aved.Experiments.infrastructure () in
    let service = Aved.Experiments.ecommerce () in
    let requirements =
      Model.Requirements.enterprise ~throughput:1000.
        ~max_annual_downtime:(Duration.of_minutes 100.)
    in
    match Aved.Engine.design ~config infra service requirements with
    | None ->
        prerr_endline "validation scenario unexpectedly infeasible";
        user_error_exit
    | Some report ->
        Format.printf "%a@.@." Aved.Engine.pp_report report;
        let models =
          Aved.Engine.evaluate_design infra service report.design
            ~demand:(Some 1000.)
        in
        Format.printf
          "engine cross-check (per tier, annual downtime in minutes):@.";
        Format.printf "%-14s %12s %12s %12s@." "tier" "analytic" "exact"
          "simulation";
        List.iter
          (fun (m : Aved_avail.Tier_model.t) ->
            let minutes f = Duration.minutes (Duration.of_years f) in
            let { Aved.Engine.analytic; exact; simulated } =
              Aved.Engine.cross_check m
            in
            let exact =
              match exact with
              | Some v -> Printf.sprintf "%12.3f" (minutes v)
              | None -> "  (too large)"
            in
            Format.printf "%-14s %12.3f %s %12.3f@." m.tier_name
              (minutes analytic) exact (minutes simulated))
          models;
        ok_exit
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Design the built-in e-commerce scenario and cross-check the three \
          availability engines on the result.")
    Term.(const run $ jobs_arg $ stats_arg $ trace_file_arg)

(* ------------------------------------------------------------------ *)
(* aved explain: decision provenance for a design run *)

let explain_cmd =
  let top_arg =
    let doc = "Runner-up candidates to show per tier." in
    Arg.(value & opt int 5 & info [ "top" ] ~doc ~docv:"K")
  in
  let run infra_file service_file load downtime job_hours top json jobs stats
      trace no_check =
    handle_errors (fun () ->
        let requirements = requirements ~load ~downtime ~job_hours in
        let infra, service = load_checked ~no_check ~infra_file ~service_file in
        let config = search_config jobs in
        with_telemetry ~stats ?trace @@ fun () ->
        let trail = Aved_search.Provenance.create () in
        let result =
          Aved_search.Provenance.with_trail trail @@ fun () ->
          Aved.Engine.design ~config infra service requirements
        in
        let explanation =
          Option.map
            (fun report ->
              Aved.Engine.explain ~top ~trail ~config infra service
                requirements report)
            result
        in
        (if json then
           print_endline
             (Json.to_string
                (Api.explain_result_to_json
                   (Api.explain_result_of_explanation explanation)))
         else
           match explanation with
           | None -> print_endline "no feasible design"
           | Some explanation ->
               Format.printf "%a@." Aved_explain.Explain.pp explanation);
        ok_exit)
  in
  let term =
    Term.(
      const run $ infra_file $ service_file $ load_arg $ downtime_arg
      $ job_hours_arg $ top_arg $ json_arg $ jobs_arg $ stats_arg
      $ trace_file_arg $ no_check_arg)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Design a service, then explain the decision: per-failure-class \
          downtime attribution of the winner and the top runner-up \
          candidates with the reason each one lost.")
    term

(* ------------------------------------------------------------------ *)
(* aved report: the full design document *)

let report_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the report to a file.")
  in
  let run infra_file service_file load downtime job_hours jobs out stats
      trace no_check =
    handle_errors (fun () ->
        let requirements = requirements ~load ~downtime ~job_hours in
        let infra, service = load_checked ~no_check ~infra_file ~service_file in
        let config = search_config jobs in
        with_telemetry ~stats ?trace @@ fun () ->
        match Aved.Report.generate ~config infra service requirements with
        | None ->
            print_endline "no feasible design";
            ok_exit
        | Some text ->
            (match out with
            | None -> print_string text
            | Some path ->
                let oc = open_out path in
                output_string oc text;
                close_out oc;
                Printf.printf "wrote %s\n" path);
            ok_exit)
  in
  let term =
    Term.(
      const run $ infra_file $ service_file $ load_arg $ downtime_arg
      $ job_hours_arg $ jobs_arg $ out_arg $ stats_arg $ trace_file_arg
      $ no_check_arg)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Design a service and emit the full report: configuration, cost, \
          per-tier downtime attribution, first-month transient, engine \
          cross-check and sensitivity analysis.")
    term

(* ------------------------------------------------------------------ *)
(* aved ablate: distribution-shape sensitivity via simulation *)

let ablate_cmd =
  let run stats trace =
    handle_errors @@ fun () ->
    with_telemetry ~stats ?trace @@ fun () ->
    let infra = Aved.Experiments.infrastructure () in
    let service = Aved.Experiments.ecommerce () in
    match
      Aved.Engine.design infra service
        (Model.Requirements.enterprise ~throughput:1000.
           ~max_annual_downtime:(Duration.of_minutes 100.))
    with
    | None ->
        prerr_endline "scenario unexpectedly infeasible";
        user_error_exit
    | Some report ->
        Format.printf "%a@.@." Aved.Engine.pp_report report;
        Format.printf
          "distribution-shape ablation (simulated annual downtime, \
           min/yr; means preserved):@.";
        Format.printf "%-14s %12s %12s %12s %12s@." "tier" "exponential"
          "weibull .7" "weibull 1.5" "lognorm rep";
        let shapes =
          let open Aved_avail.Monte_carlo in
          [
            exponential_shapes;
            { exponential_shapes with failure = Weibull_shape 0.7 };
            { exponential_shapes with failure = Weibull_shape 1.5 };
            { exponential_shapes with repair = Lognormal_sigma 1.2 };
          ]
        in
        let config =
          {
            Aved_avail.Monte_carlo.replications = 16;
            horizon = Duration.of_years 30.;
            seed = 2004;
          }
        in
        List.iter
          (fun (m : Aved_avail.Tier_model.t) ->
            let cells =
              List.map
                (fun s ->
                  Printf.sprintf "%12.2f"
                    (Duration.minutes
                       (Aved_avail.Monte_carlo.annual_downtime ~config ~shapes:s
                          m)))
                shapes
            in
            Format.printf "%-14s %s@." m.tier_name (String.concat " " cells))
          (Aved.Engine.evaluate_design infra service report.design
             ~demand:(Some 1000.));
        ok_exit
  in
  Cmd.v
    (Cmd.info "ablate"
       ~doc:
         "Simulate the designed e-commerce scenario under non-exponential \
          failure and repair distributions (mean-preserving) and compare \
          downtime.")
    Term.(const run $ stats_arg $ trace_file_arg)

(* ------------------------------------------------------------------ *)
(* aved adapt: replay a load trace through the adaptive controller *)

let adapt_cmd =
  let trace_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "trace" ] ~docv:"CSV"
          ~doc:
            "Load trace as hours,load CSV rows. Without it, a synthetic \
             3-day diurnal trace spanning half to full of --load is used.")
  in
  let headroom_arg =
    Arg.(
      value & opt float 0.3
      & info [ "headroom" ] ~docv:"FRACTION"
          ~doc:"Over-provisioning tolerated before scaling down.")
  in
  (* [--trace] already names the load-trace CSV here, so adapt exposes
     only [--stats]; use another command for span traces. *)
  let run infra_file service_file tier_name load downtime trace headroom jobs
      stats no_check =
    handle_errors (fun () ->
        let downtime =
          match downtime with
          | Some d -> d
          | None -> failwith "--downtime is required"
        in
        let infra, service = load_checked ~no_check ~infra_file ~service_file in
        let tier =
          match tier_name with
          | Some name -> (
              match Model.Service.find_tier service name with
              | Some t -> t
              | None -> failwith (Printf.sprintf "no tier %S" name))
          | None -> List.hd service.Model.Service.tiers
        in
        let trace =
          match trace with
          | Some path -> Aved_search.Load_trace.of_csv_file path
          | None ->
              let peak = Option.value load ~default:2000. in
              Aved_search.Load_trace.diurnal ~days:3 ~samples_per_day:12
                ~base:(peak /. 2.) ~peak ()
        in
        let config = search_config jobs in
        with_telemetry ~stats @@ fun () ->
        let replay =
          Aved_search.Adaptive.replay config infra ~tier
            ~max_downtime:(Duration.of_minutes downtime)
            ~policy:{ Aved_search.Adaptive.headroom }
            ~trace ()
        in
        Format.printf "%-10s %10s  %-44s %s@." "hour" "load" "design" "";
        List.iter
          (fun (s : Aved_search.Adaptive.step) ->
            Format.printf "%-10.1f %10.0f  %-44s %s@."
              (Duration.hours s.time) s.load
              (Aved_search.Candidate.family s.candidate
                 ~n_min_nominal:
                   s.candidate.model.Aved_avail.Tier_model.n_min)
              (if s.redesigned then "<- redesign" else ""))
          replay.steps;
        Format.printf
          "@.%d redesigns after the initial one; time-weighted cost %s/yr@."
          replay.redesigns
          (Aved_units.Money.to_string replay.average_cost);
        ok_exit)
  in
  let term =
    Term.(
      const run $ infra_file $ service_file $ tier_arg $ load_arg
      $ downtime_arg $ trace_arg $ headroom_arg $ jobs_arg $ stats_arg
      $ no_check_arg)
  in
  Cmd.v
    (Cmd.info "adapt"
       ~doc:
         "Replay a load trace through the adaptive redesign controller \
          (utility-computing mode).")
    term

(* ------------------------------------------------------------------ *)
(* aved check: the static analyzer *)

let check_cmd =
  let files_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:
            "Specification files to check together. Files are classified \
             by content: a file with an $(b,application) line is a service \
             spec, anything else an infrastructure spec. Service specs are \
             resolved against the infrastructure specs in the same \
             invocation.")
  in
  let strict_arg =
    let doc = "Exit with status 1 on any diagnostic, warnings included." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let bounds_arg =
    let doc =
      "Run the whole-domain bounds analysis: per (tier, option), bracket \
       the downtime fraction of every design the search could evaluate in \
       outward-rounded interval arithmetic, audit CTMC well-formedness at \
       the extreme mttr corners of the mechanism-settings grid, and — when \
       --downtime gives a budget — certify it infeasible or trivially \
       satisfiable before any search runs."
    in
    Arg.(value & flag & info [ "bounds" ] ~doc)
  in
  let certificates_arg =
    let doc =
      "Write the feasibility certificates produced by --bounds to $(docv) \
       as a JSON array (machine-checkable proof objects)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "certificates" ] ~doc ~docv:"FILE")
  in
  let run files strict json bounds load downtime certificates =
    handle_errors (fun () ->
        let diags = Aved_check.Check.check_files files in
        let bounds_outcome =
          if bounds then
            let budget_fraction =
              Option.map
                (fun minutes ->
                  Duration.years (Duration.of_minutes minutes))
                downtime
            in
            Some
              (Aved_check.Check.bounds_for_files files ~demand:load
                 ~budget_fraction)
          else None
        in
        let diags =
          match bounds_outcome with
          | None -> diags
          | Some o ->
              List.sort_uniq Aved_check.Diagnostic.compare
                (diags @ o.Aved_check.Check.bo_diags)
        in
        if json then
          print_endline
            (Json.to_string
               (Api.check_result_to_json
                  (Api.check_result_of_diagnostics diags)))
        else begin
          if diags <> [] then begin
            print_endline (Aved_check.Check.render_human diags);
            print_endline (Aved_check.Diagnostic.summary diags)
          end;
          Option.iter
            (fun (o : Aved_check.Check.bounds_outcome) ->
              if o.bo_reports <> [] then begin
                print_endline "downtime bounds (over all settings):";
                print_endline (Aved_check.Check.render_bounds o.bo_reports)
              end)
            bounds_outcome
        end;
        Option.iter
          (fun (o : Aved_check.Check.bounds_outcome) ->
            Option.iter
              (fun path ->
                let oc = open_out path in
                output_string oc
                  (Aved_check.Check.render_certificates o.bo_certificates);
                output_char oc '\n';
                close_out oc;
                Printf.eprintf "wrote %d certificate(s) to %s\n%!"
                  (List.length o.bo_certificates)
                  path)
              certificates)
          bounds_outcome;
        Aved_check.Check.exit_status ~strict diags)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically check specification files: dimension/unit inference \
          over expressions, cross-reference and liveness analysis, \
          expression lints (unreachable branches, division by zero, \
          discontinuous piecewise splits, non-monotone performance), and \
          CTMC well-formedness of the induced availability models. With \
          --bounds, additionally bracket every option's downtime by \
          abstract interpretation and certify a --downtime budget \
          infeasible or trivially satisfiable. Exits 0 when clean, 1 on \
          errors (or on any diagnostic with --strict).")
    Term.(
      const run $ files_arg $ strict_arg $ json_arg $ bounds_arg $ load_arg
      $ downtime_arg $ certificates_arg)

(* ------------------------------------------------------------------ *)
(* aved serve: the long-running design daemon *)

let serve_cmd =
  let module Server = Aved_server.Server in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at $(docv).")
  in
  let tcp_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:"Listen on TCP $(docv) (port 0 lets the kernel pick).")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Search domains beside the event loop's (defaults to the \
             runtime's recommended domain count). Each takes admitted \
             requests in turn and, between requests, helps the other \
             domains' searches. No search runs on the event loop's domain. \
             Design and frontier answers are identical for every value.")
  in
  let dispatchers_arg =
    Arg.(
      value & opt int 2
      & info [ "dispatchers" ] ~docv:"N"
          ~doc:"Ignored; the $(b,--jobs) search domains answer requests.")
  in
  let queue_arg =
    Arg.(
      value & opt int 128
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission queue capacity; requests beyond it are shed with an \
             $(i,overloaded) response.")
  in
  let max_conns_arg =
    Arg.(
      value & opt int 900
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Concurrent connection bound (at most 1000 — the event loop \
             multiplexes with select). Connections over the limit get one \
             $(i,overloaded) response and are closed.")
  in
  let coalesce_arg =
    Arg.(
      value & opt bool true
      & info [ "coalesce" ] ~docv:"BOOL"
          ~doc:
            "Attach identical in-flight work requests to one computation: a \
             thundering herd on one spec runs the search once and every \
             waiter receives the shared result under its own id. Set false \
             to force every request through its own search.")
  in
  let send_timeout_arg =
    Arg.(
      value & opt float 10.
      & info [ "send-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Write-stall bound: a connection whose response backlog makes no \
             progress for this long is dropped instead of buffering without \
             bound for a client that stopped reading.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Default queueing deadline for requests that do not carry their \
             own deadline_ms.")
  in
  let log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:
            "Append a structured JSON log to $(docv): one object per \
             request (trace id, per-stage timings, outcome), plus \
             start/stop/snapshot events.")
  in
  let slo_target_arg =
    Arg.(
      value
      & opt float 0.999
      & info [ "slo-target" ] ~docv:"FRACTION"
          ~doc:
            "Availability target in (0, 1]: the fraction of work requests \
             that must be served within the latency budget.")
  in
  let slo_latency_arg =
    Arg.(
      value & opt float 50.
      & info [ "slo-latency-ms" ] ~docv:"MS"
          ~doc:
            "Per-request latency budget: a served answer slower than this \
             spends error budget and is flagged slow in the log.")
  in
  let slo_window_arg =
    Arg.(
      value & opt float 300.
      & info [ "slo-window" ] ~docv:"SECONDS"
          ~doc:"Rolling window over which the SLO is evaluated.")
  in
  let trace_sample_arg =
    Arg.(
      value & opt float 0.
      & info [ "trace-sample" ] ~docv:"FRACTION"
          ~doc:
            "Head-sampling rate in [0, 1]: the fraction of requests traced \
             with a full span tree (search, engine and solver spans with \
             per-span CPU and allocation attribution), fetchable by trace \
             id with $(b,aved trace). 0 (the default) disables tracing.")
  in
  let trace_ring_arg =
    Arg.(
      value & opt int 256
      & info [ "trace-ring" ] ~docv:"N"
          ~doc:
            "How many completed sampled traces the daemon retains for the \
             $(i,trace) verb before evicting the oldest.")
  in
  let run socket tcp jobs (_dispatchers : int) queue max_conns coalesce
      send_timeout deadline log_path slo_target slo_latency_ms slo_window
      trace_sample trace_ring =
    handle_errors (fun () ->
        let transport =
          match (socket, tcp) with
          | Some path, None -> Server.Unix_socket path
          | None, Some hostport -> (
              match String.rindex_opt hostport ':' with
              | None -> failwith "--tcp expects HOST:PORT"
              | Some i -> (
                  let host =
                    match String.sub hostport 0 i with
                    | "" -> "127.0.0.1"
                    | host -> host
                  in
                  let port_text =
                    String.sub hostport (i + 1)
                      (String.length hostport - i - 1)
                  in
                  match int_of_string_opt port_text with
                  | Some port when port >= 0 && port < 65536 ->
                      Server.Tcp { host; port }
                  | Some _ | None ->
                      failwith
                        (Printf.sprintf "invalid --tcp port %S" port_text)))
          | Some _, Some _ ->
              failwith "--socket and --tcp are mutually exclusive"
          | None, None -> failwith "specify --socket PATH or --tcp HOST:PORT"
        in
        let jobs = resolve_jobs jobs in
        List.iter
          (fun (flag, v) ->
            if v < 1 then
              failwith
                (Printf.sprintf "%s must be a positive integer (got %d)" flag v))
          [ ("--queue", queue); ("--max-conns", max_conns) ];
        if max_conns > 1000 then
          failwith
            (Printf.sprintf "--max-conns must be at most 1000 (got %d)"
               max_conns);
        if (not (Float.is_finite send_timeout)) || send_timeout <= 0. then
          failwith "--send-timeout must be a positive number of seconds";
        let slo =
          match
            Aved_obs.Slo.validate_config
              {
                Aved_obs.Slo.target = slo_target;
                latency_budget_s = slo_latency_ms /. 1000.;
                window_s = slo_window;
              }
          with
          | Ok slo -> slo
          | Error msg -> failwith msg
        in
        let config =
          {
            (Server.default_config transport) with
            Server.jobs;
            queue_capacity = queue;
            max_conns;
            coalesce;
            send_timeout_s = send_timeout;
            default_deadline_ms = deadline;
            log_path;
            slo;
            trace_sample;
            trace_ring;
          }
        in
        let server =
          try Server.create config
          with Unix.Unix_error (err, _, _) ->
            failwith
              (Printf.sprintf "cannot listen: %s" (Unix.error_message err))
        in
        Server.install_signal_handlers server;
        (match transport with
        | Server.Unix_socket path ->
            Printf.eprintf "aved serve: listening on %s\n%!" path
        | Server.Tcp { host; _ } ->
            Printf.eprintf "aved serve: listening on %s:%d\n%!" host
              (Option.value (Server.bound_port server) ~default:0));
        Server.run server;
        ok_exit)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-lived design daemon: newline-delimited JSON requests \
          (design, frontier, explain, check, health, stats, metrics) over a \
          Unix-domain or TCP socket, answered from warm state — a shared \
          search pool with per-domain evaluation caches and a content-hash \
          spec cache. One event loop multiplexes up to --max-conns connections \
          (see PROTOCOL.md for the wire format, schema versions 1 and 2); \
          identical concurrent work requests coalesce onto one search \
          (--coalesce). Results are byte-identical to the corresponding \
          --json command. The daemon tracks its own availability SLO (--slo-target, \
          --slo-latency-ms, --slo-window), logs every request with a trace \
          id and per-stage timings (--log), answers Prometheus-format \
          scrapes on the metrics verb, head-samples full request traces \
          (--trace-sample) served back over the trace verb, and dumps a \
          full metrics/GC snapshot on SIGUSR1. SIGTERM drains gracefully.")
    Term.(
      const run $ socket_arg $ tcp_arg $ jobs_arg $ dispatchers_arg
      $ queue_arg $ max_conns_arg $ coalesce_arg $ send_timeout_arg
      $ deadline_arg $ log_arg
      $ slo_target_arg $ slo_latency_arg $ slo_window_arg
      $ trace_sample_arg $ trace_ring_arg)

(* ------------------------------------------------------------------ *)
(* Client-side endpoint parsing shared by the daemon clients
   (aved top, aved trace). *)

let client_endpoint socket tcp =
  match (socket, tcp) with
  | Some path, None -> Top_ui.Unix_socket path
  | None, Some hostport -> (
      match String.rindex_opt hostport ':' with
      | None -> failwith "--tcp expects HOST:PORT"
      | Some i -> (
          let host =
            match String.sub hostport 0 i with
            | "" -> "127.0.0.1"
            | host -> host
          in
          let port_text =
            String.sub hostport (i + 1) (String.length hostport - i - 1)
          in
          match int_of_string_opt port_text with
          | Some port when port > 0 && port < 65536 -> Top_ui.Tcp { host; port }
          | Some _ | None ->
              failwith (Printf.sprintf "invalid --tcp port %S" port_text)))
  | Some _, Some _ -> failwith "--socket and --tcp are mutually exclusive"
  | None, None -> failwith "specify --socket PATH or --tcp HOST:PORT"

(* ------------------------------------------------------------------ *)
(* aved top: live dashboard over a running daemon *)

let top_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Connect to the daemon's Unix-domain socket at $(docv).")
  in
  let tcp_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Connect to TCP $(docv).")
  in
  let interval_arg =
    Arg.(
      value & opt float 2.
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Seconds between refreshes.")
  in
  let iterations_arg =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Render $(docv) frames then exit; 0 runs until interrupted.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Scrape the metrics verb once, print the Prometheus text body \
             and exit (no dashboard).")
  in
  let run socket tcp interval iterations metrics =
    handle_errors (fun () ->
        let endpoint = client_endpoint socket tcp in
        if iterations < 0 then failwith "--iterations must be >= 0";
        if metrics then Top_ui.print_metrics_once endpoint
        else Top_ui.run ~endpoint ~interval_s:interval ~iterations;
        ok_exit)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard over a running aved serve daemon: per-verb latency \
          percentiles from the server's own histograms, request rate, \
          queue/search-domain occupancy, and the SLO error-budget readout. \
          With $(b,--metrics), scrape the Prometheus text exposition once \
          and print it.")
    Term.(
      const run $ socket_arg $ tcp_arg $ interval_arg $ iterations_arg
      $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* aved trace: fetch and render one sampled request trace *)

let trace_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Connect to the daemon's Unix-domain socket at $(docv).")
  in
  let tcp_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Connect to TCP $(docv).")
  in
  let id_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE_ID"
          ~doc:
            "The trace id to fetch — echoed in every response envelope's \
             $(i,trace_id) field, in the --log record, and in metrics \
             exemplars.")
  in
  let chrome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Also write the spans as Chrome trace_event JSON to $(docv) \
             (loadable by chrome://tracing and ui.perfetto.dev).")
  in
  let run socket tcp trace_id json chrome =
    handle_errors (fun () ->
        let endpoint = client_endpoint socket tcp in
        Trace_view.show ~endpoint ~trace_id ~json ~chrome;
        ok_exit)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Fetch one completed request's span tree from a running aved \
          serve daemon (started with --trace-sample > 0) and render it as \
          a waterfall: tree-indented spans from the request lifecycle down \
          through search, engine and solver layers, each with wall/CPU \
          time, allocation attribution and the owning domain, plus the \
          request-scoped engine counter deltas. With $(b,--json), print \
          the wire document instead; $(b,--chrome) exports the spans for \
          chrome://tracing.")
    Term.(
      const run $ socket_arg $ tcp_arg $ id_arg $ json_arg $ chrome_arg)

(* ------------------------------------------------------------------ *)
(* aved dump-specs *)

let dump_specs_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Directory to write the .spec files into.")
  in
  let run dir =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let write name content =
      let path = Filename.concat dir name in
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      Printf.printf "wrote %s\n" path
    in
    write "infrastructure.spec" Aved.Experiments.infrastructure_spec;
    write "ecommerce.spec" Aved.Experiments.ecommerce_spec;
    write "scientific.spec" Aved.Experiments.scientific_spec;
    ok_exit
  in
  Cmd.v
    (Cmd.info "dump-specs"
       ~doc:
         "Write the built-in paper scenarios (Figs. 3-5) as specification \
          files.")
    Term.(const run $ dir_arg)

let () =
  let info =
    Cmd.info "aved" ~version:"1.0.0"
      ~doc:
        "Automated system design for availability (reproduction of \
         Janakiraman, Santos & Turner, DSN 2004)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            check_cmd;
            design_cmd;
            frontier_cmd;
            fig6_cmd;
            fig7_cmd;
            fig8_cmd;
            table1_cmd;
            validate_cmd;
            explain_cmd;
            report_cmd;
            ablate_cmd;
            adapt_cmd;
            serve_cmd;
            top_cmd;
            trace_cmd;
            dump_specs_cmd;
          ]))

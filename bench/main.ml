(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (the series are printed first), then times the
   computational kernel behind each artifact with Bechamel.

   Run with: dune exec bench/main.exe
   Skip the timing pass with: dune exec bench/main.exe -- --no-timing
   Print only one artifact:
     dune exec bench/main.exe -- table1|fig6|fig7|fig8|ablations|speedup
   Time only the CTMC solver backends on Engine B's chains:
     dune exec bench/main.exe -- solvers
   Write the machine-readable search benchmark (BENCH_search.json):
     dune exec bench/main.exe -- json *)

module Duration = Aved_units.Duration
module Search = Aved_search
module Telemetry = Aved_telemetry.Telemetry

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Machine-readable search benchmark (dune exec bench/main.exe -- json)

   One telemetry-instrumented run per figure kernel, one of the engine
   cross-check ("validate") and one of the e-commerce service designs
   ("enterprise"), and one of the e-commerce tier frontiers
   ("frontiers"), written to BENCH_search.json (schema_version 8) for
   CI artifact upload and regression tracking. The first recorded
   run's per-figure wall times are carried forward verbatim as the
   "baseline" object on every subsequent run — a v1 file's "figures"
   array is adopted as the baseline — so the reported speedup is always
   against the pre-change code, not against the previous rerun. *)

module Json = Aved_explain.Json

type bench_baseline = { figures : (string * float) list }

let read_baseline path =
  if not (Sys.file_exists path) then None
  else
    let ic = open_in_bin path in
    let contents =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Aved_api.Json_parse.of_string contents with
    | Error _ -> None
    | Ok json -> (
        let wall_of = function
          | Json.Obj fields -> (
              match
                (List.assoc_opt "name" fields, List.assoc_opt "wall_seconds" fields)
              with
              | Some (Json.String name), Some (Json.Float w) -> Some (name, w)
              | Some (Json.String name), Some (Json.Int w) ->
                  Some (name, float_of_int w)
              | _ -> None)
          | _ -> None
        in
        let figures_of = function
          | Some (Json.List rows) ->
              let parsed = List.filter_map wall_of rows in
              if parsed = [] then None else Some { figures = parsed }
          | _ -> None
        in
        match json with
        | Json.Obj fields -> (
            (* Prefer an existing baseline; else a v1 file's own figures
               become the baseline. *)
            match List.assoc_opt "baseline" fields with
            | Some (Json.Obj baseline_fields) ->
                figures_of (List.assoc_opt "figures" baseline_fields)
            | _ -> figures_of (List.assoc_opt "figures" fields))
        | _ -> None)

(* The [aved validate] cross-check (Engines A, B and C) over all 48
   models of the application-tier frontier at load 1000: the bench that
   reaches Engine B's closed form and the simulator. The frontier is
   searched before the clock starts; the cross-check is sequential, so
   the one timed pass also gives counters that do not depend on
   scheduling. Engine B solves no chain, so [solver_fallback] reads 0
   unless something in the cross-check reaches a chain solve again. *)
let json_validate_benchmark ~jobs =
  let frontier =
    Search.Tier_search.frontier
      (Search.Search_config.with_jobs jobs Search.Search_config.default)
      (Aved.Experiments.infrastructure ())
      ~tier:(Aved.Experiments.application_tier ())
      ~demand:1000.
  in
  let t = Telemetry.create () in
  let words0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  Telemetry.with_registry t (fun () ->
      List.iter
        (fun (c : Search.Candidate.t) -> ignore (Aved.Engine.cross_check c.model))
        frontier);
  let wall = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. words0 in
  let counter = Telemetry.Counter.read_by_name t in
  Printf.sprintf
    "{\"models\": %d, \"wall_seconds\": %.6f, \"minor_words\": %.0f, \
     \"sim_events\": %d, \"solver_fallback\": %d}"
    (List.length frontier) wall words (counter "sim.events")
    (counter "markov.solver.fallback")

(* Service_search.design on the e-commerce service over a fixed grid
   of requirements (loads × downtime budgets): the bench that reaches
   phase 2 of the enterprise search, the frontier combination. The
   timed pass runs at [jobs] domains; the counts come from a second,
   one-domain pass, so they repeat exactly. A design reached phase 2
   when it ran at least one round of the frontier combination;
   [phase2_rounds] counts the rounds, and [evaluated] the designs whose
   downtime the whole pass looked up. *)
let json_enterprise_benchmark ~jobs ~minor_words =
  let infra = Aved.Experiments.infrastructure () in
  let service = Aved.Experiments.ecommerce () in
  let grid =
    List.concat_map
      (fun load ->
        List.map (fun downtime -> (load, downtime)) [ 5.; 20.; 60.; 200.; 500. ])
      [ 200.; 400.; 800.; 1600.; 3200. ]
  in
  let design jobs (load, downtime) =
    ignore
      (Search.Service_search.design
         (Search.Search_config.with_jobs jobs Search.Search_config.default)
         infra service
         (Aved_model.Requirements.enterprise ~throughput:load
            ~max_annual_downtime:(Duration.of_minutes downtime)))
  in
  let words0 = minor_words () in
  let t0 = Unix.gettimeofday () in
  List.iter (design jobs) grid;
  let wall = Unix.gettimeofday () -. t0 in
  let words = minor_words () -. words0 in
  let t = Telemetry.create () in
  let counter = Telemetry.Counter.read_by_name t in
  let phase2 =
    List.fold_left
      (fun phase2 point ->
        let rounds = counter "search.service.phase2.rounds" in
        Telemetry.with_registry t (fun () -> design 1 point);
        if counter "search.service.phase2.rounds" > rounds then phase2 + 1
        else phase2)
      0 grid
  in
  Printf.sprintf
    "{\"designs\": %d, \"wall_seconds\": %.6f, \"minor_words\": %.0f, \
     \"phase2_designs\": %d, \"phase2_rounds\": %d, \"evaluated\": %d, \
     \"combos_tested\": %d, \"combine_visited\": %d}"
    (List.length grid) wall words phase2
    (counter "search.service.phase2.rounds")
    (counter "search.candidates.evaluated")
    (counter "search.service.combos_tested")
    (counter "search.service.combine.visited")

(* Tier_search.frontier for the three e-commerce tiers over a fixed
   load grid, on one domain: the skyline frontier the enterprise
   search's phase 2 and the daemon's frontier verb run. One unmeasured
   pass warms the evaluation cache; [passes] warm passes are timed
   together, and the counts come from one more pass under a registry,
   so they repeat exactly. *)
let json_frontiers_benchmark ~minor_words =
  let infra = Aved.Experiments.infrastructure () in
  let service = Aved.Experiments.ecommerce () in
  let config = Search.Search_config.with_jobs 1 Search.Search_config.default in
  let loads = [ 200.; 400.; 800.; 1000.; 1600.; 2400.; 3200.; 4000. ] in
  let passes = 20 in
  let pass () =
    List.fold_left
      (fun points load ->
        List.fold_left
          (fun points tier ->
            points
            + List.length
                (Search.Tier_search.frontier config infra ~tier ~demand:load))
          points service.Aved_model.Service.tiers)
      0 loads
  in
  Search.Eval_cache.reset ();
  ignore (pass ());
  let words0 = minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to passes do
    ignore (pass ())
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let words = minor_words () -. words0 in
  let t = Telemetry.create () in
  let points = Telemetry.with_registry t pass in
  let counter = Telemetry.Counter.read_by_name t in
  Printf.sprintf
    "{\"frontiers\": %d, \"passes\": %d, \"wall_seconds\": %.6f, \
     \"minor_words\": %.0f, \"generated\": %d, \"points\": %d, \
     \"inserted\": %d}"
    (List.length loads * List.length service.tiers)
    passes wall words
    (counter "search.candidates.generated")
    points
    (counter "search.frontier.inserted")

let json_search_benchmark () =
  let jobs = Domain.recommended_domain_count () in
  (* Minor words come from [Gc.quick_stat], which sums over every
     domain: [Gc.minor_words] alone would count only this one, not the
     search pool's. Each figure joins its pool before returning, so
     the sum is complete when it is read. *)
  let minor_words () = (Gc.quick_stat ()).Gc.minor_words in
  (* [run jobs] runs one figure at [jobs] domains. The timed pass runs
     at the host's domain count. The search counters come from a
     second, one-domain pass: each domain warms its own evaluation
     cache, and the shared incumbent tightens a branch's cost cap as
     soon as another branch has found a design, so which domain takes
     which task moves the cache counts and the evaluated and pruned
     candidate counts. Only one domain gives the same counts on every
     host. *)
  let measure name run =
    let t = Telemetry.create () in
    Telemetry.install t;
    let words0 = minor_words () in
    let t0 = Unix.gettimeofday () in
    let () = Fun.protect ~finally:Telemetry.uninstall (fun () -> run jobs) in
    let wall = Unix.gettimeofday () -. t0 in
    let words = minor_words () -. words0 in
    let one_domain = Telemetry.create () in
    Telemetry.with_registry one_domain (fun () -> run 1);
    let counter n =
      if String.starts_with ~prefix:"search." n then
        Telemetry.Counter.read_by_name one_domain n
      else Telemetry.Counter.read_by_name t n
    in
    (name, wall, words, counter)
  in
  let with_jobs = Search.Search_config.with_jobs in
  let rows =
    [
      measure "fig6" (fun jobs ->
          ignore
            (Aved.Figures.fig6
               ~config:(with_jobs jobs Search.Search_config.default)
               ()));
      measure "fig7" (fun jobs ->
          ignore
            (Aved.Figures.fig7
               ~config:(with_jobs jobs Aved.Experiments.fig7_config)
               ()));
      measure "fig8" (fun jobs ->
          ignore
            (Aved.Figures.fig8
               ~config:(with_jobs jobs Search.Search_config.default)
               ()));
    ]
  in
  let path = "BENCH_search.json" in
  let baseline = read_baseline path in
  let total = List.fold_left (fun acc (_, w, _, _) -> acc +. w) 0. rows in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema_version\": 8,\n";
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" jobs);
  (match baseline with
  | Some { figures } ->
      let baseline_total = List.fold_left (fun acc (_, w) -> acc +. w) 0. figures in
      Buffer.add_string buf "  \"baseline\": {\"figures\": [\n";
      List.iteri
        (fun i (name, wall) ->
          Buffer.add_string buf
            (Printf.sprintf "    {\"name\": %S, \"wall_seconds\": %.6f}%s\n"
               name wall
               (if i = List.length figures - 1 then "" else ",")))
        figures;
      Buffer.add_string buf
        (Printf.sprintf "  ], \"total_wall_seconds\": %.6f},\n" baseline_total);
      Buffer.add_string buf
        (Printf.sprintf "  \"speedup_vs_baseline\": %.2f,\n"
           (baseline_total /. Float.max 1e-9 total))
  | None ->
      Buffer.add_string buf "  \"baseline\": null,\n";
      Buffer.add_string buf "  \"speedup_vs_baseline\": null,\n");
  Buffer.add_string buf
    (Printf.sprintf "  \"total_wall_seconds\": %.6f,\n" total);
  Buffer.add_string buf "  \"figures\": [\n";
  List.iteri
    (fun i (name, wall, words, counter) ->
      let generated = counter "search.candidates.generated" in
      let evaluated = counter "search.candidates.evaluated" in
      let pruned = counter "search.candidates.pruned_by_incumbent" in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"wall_seconds\": %.6f, \
            \"minor_words\": %.0f, \"candidates_generated\": %d, \"candidates_evaluated\": %d, \
            \"candidates_pruned\": %d, \"candidates_per_second\": %.1f, \
            \"downtime_fresh\": %d, \"downtime_reused\": %d, \
            \"solver_fallback\": %d}%s\n"
           name wall words generated evaluated pruned
           (float_of_int evaluated /. Float.max 1e-9 wall)
           (counter "search.eval.downtime.fresh")
           (counter "search.eval.downtime.reused")
           (counter "markov.solver.fallback")
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  let validate = json_validate_benchmark ~jobs in
  Buffer.add_string buf (Printf.sprintf "  \"validate\": %s,\n" validate);
  Buffer.add_string buf
    (Printf.sprintf "  \"frontiers\": %s,\n"
       (json_frontiers_benchmark ~minor_words));
  Buffer.add_string buf
    (Printf.sprintf "  \"enterprise\": %s\n}\n"
       (json_enterprise_benchmark ~jobs ~minor_words));
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Reproduction series *)

let print_table1 () =
  section "Table 1 (performance functions)";
  Aved.Figures.print_table1 Format.std_formatter;
  Format.print_newline ()

let print_fig6 () =
  section "Figure 6 (optimal family vs load and downtime requirement)";
  Aved.Figures.print_fig6 Format.std_formatter (Aved.Figures.fig6 ());
  Format.print_newline ()

let print_fig7 () =
  section "Figure 7 (scientific design vs execution-time requirement)";
  Aved.Figures.print_fig7 Format.std_formatter (Aved.Figures.fig7 ());
  Format.print_newline ()

let print_fig8 () =
  section "Figure 8 (extra annual cost of availability)";
  Aved.Figures.print_fig8 Format.std_formatter (Aved.Figures.fig8 ());
  Format.print_newline ()

(* ------------------------------------------------------------------ *)
(* Ablations *)

(* Engine agreement and relative cost on a representative tier design
   (the paper's headline point). *)
let ablation_engines () =
  section "Ablation: availability engines (A analytic / B exact / C simulated)";
  let infra = Aved.Experiments.infrastructure () in
  let tier = Aved.Experiments.application_tier () in
  match
    Search.Tier_search.optimal Search.Search_config.default infra ~tier
      ~demand:1000.
      ~max_downtime:(Duration.of_minutes 100.)
  with
  | None -> print_endline "headline point unexpectedly infeasible"
  | Some c ->
      let m = c.Search.Candidate.model in
      let time f =
        let t0 = Unix.gettimeofday () in
        let v = f () in
        (v, Unix.gettimeofday () -. t0)
      in
      let a, ta = time (fun () -> Aved_avail.Analytic.downtime_fraction m) in
      let b, tb = time (fun () -> Aved_avail.Exact.downtime_fraction m) in
      let c_, tc =
        time (fun () ->
            Aved_avail.Monte_carlo.downtime_fraction
              ~config:
                {
                  Aved_avail.Monte_carlo.replications = 16;
                  horizon = Duration.of_years 30.;
                  seed = 42;
                }
              m)
      in
      let minutes f = Duration.minutes (Duration.of_years f) in
      Printf.printf "%-12s %16s %12s\n" "engine" "downtime min/yr" "seconds";
      Printf.printf "%-12s %16.3f %12.6f\n" "analytic" (minutes a) ta;
      Printf.printf "%-12s %16.3f %12.6f\n" "exact" (minutes b) tb;
      Printf.printf "%-12s %16.3f %12.6f\n" "simulated" (minutes c_) tc

(* Cost-first pruning: the paper evaluates cost before availability and
   rejects costlier designs; compare the pruned single-design search
   against the exhaustive frontier sweep of the same space. *)
let ablation_pruning () =
  section "Ablation: cost-first pruning (search vs exhaustive sweep)";
  let infra = Aved.Experiments.infrastructure () in
  let tier = Aved.Experiments.application_tier () in
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  List.iter
    (fun load ->
      let pruned =
        time (fun () ->
            Search.Tier_search.optimal Search.Search_config.default infra
              ~tier ~demand:load
              ~max_downtime:(Duration.of_minutes 100.))
      in
      let exhaustive =
        time (fun () ->
            Search.Tier_search.frontier Search.Search_config.default infra
              ~tier ~demand:load)
      in
      Printf.printf
        "load %5.0f: pruned search %.4fs, exhaustive sweep %.4fs (%.1fx)\n"
        load pruned exhaustive
        (exhaustive /. Float.max 1e-9 pruned))
    [ 400.; 1600.; 4000. ]

(* Hot spares: allowing active components in spares shortens failover
   and lowers the reachable downtime floor of the static database
   tier. *)
let ablation_spare_modes () =
  section "Ablation: spare operational modes (database tier floor)";
  let infra = Aved.Experiments.infrastructure () in
  let service = Aved.Experiments.ecommerce () in
  let tier =
    match Aved_model.Service.find_tier service "database" with
    | Some t -> t
    | None -> failwith "database tier missing"
  in
  List.iter
    (fun (label, explore) ->
      let config =
        { Search.Search_config.default with explore_spare_modes = explore }
      in
      let frontier =
        Search.Tier_search.frontier config infra ~tier ~demand:5000.
      in
      match List.rev frontier with
      | best :: _ ->
          Printf.printf
            "%-18s floor %8.2f min/yr at cost %s/yr (%d frontier points)\n"
            label
            (Duration.minutes (Search.Candidate.downtime best))
            (Aved_units.Money.to_string best.Search.Candidate.cost)
            (List.length frontier)
      | [] -> Printf.printf "%-18s no designs\n" label)
    [ ("cold spares only", false); ("all spare modes", true) ]

(* Distribution shapes: mean-preserving burstiness moves finite-job
   completion times even though steady-state availability is
   insensitive to it. *)
let ablation_shapes () =
  section "Ablation: failure-distribution shape vs job completion time";
  let infra = Aved.Experiments.infrastructure_bronze () in
  let tier = Aved.Experiments.computation_tier () in
  match
    Search.Job_search.optimal Aved.Experiments.fig7_config infra ~tier
      ~job_size:Aved.Experiments.scientific_job_size
      ~max_time:(Duration.of_hours 100.)
  with
  | None -> print_endline "100 h design unexpectedly infeasible"
  | Some c ->
      let config =
        {
          Aved_avail.Monte_carlo.replications = 32;
          horizon = Duration.of_years 1.;
          seed = 7;
        }
      in
      Printf.printf "design: %s\n"
        (Format.asprintf "%a" Search.Job_search.pp_candidate c);
      List.iter
        (fun (label, shapes) ->
          let summary =
            Aved_avail.Monte_carlo.job_completion_times ~config ~shapes
              c.Search.Job_search.model
              ~job_size:Aved.Experiments.scientific_job_size
          in
          Printf.printf "%-24s mean %7.2f h (min %.2f, max %.2f)\n" label
            summary.Aved_stats.Stats.mean summary.min summary.max)
        [
          ("exponential", Aved_avail.Monte_carlo.exponential_shapes);
          ( "weibull k=0.6 (bursty)",
            {
              Aved_avail.Monte_carlo.failure =
                Aved_avail.Monte_carlo.Weibull_shape 0.6;
              repair = Aved_avail.Monte_carlo.Exponential;
            } );
          ( "weibull k=2.0 (regular)",
            {
              Aved_avail.Monte_carlo.failure =
                Aved_avail.Monte_carlo.Weibull_shape 2.0;
              repair = Aved_avail.Monte_carlo.Exponential;
            } );
          ( "lognormal repairs",
            {
              Aved_avail.Monte_carlo.failure =
                Aved_avail.Monte_carlo.Exponential;
              repair = Aved_avail.Monte_carlo.Lognormal_sigma 1.2;
            } );
        ]

(* Checkpoint interval: the T_job(interval) curve behind the Fig. 7
   discussion — overhead below the slowdown threshold, loss-window
   growth above it. *)
let ablation_checkpoint_interval () =
  section "Ablation: job time vs checkpoint interval (rH, n=40, central)";
  let infra = Aved.Experiments.infrastructure_bronze () in
  let tier = Aved.Experiments.computation_tier () in
  let option = List.hd tier.Aved_model.Service.options in
  List.iter
    (fun minutes ->
      let settings =
        [
          ( "maintenanceA",
            [ ("level", Aved_model.Mechanism.Enum_value "bronze") ] );
          ( "checkpoint",
            [
              ( "storage_location",
                Aved_model.Mechanism.Enum_value "central" );
              ( "checkpoint_interval",
                Aved_model.Mechanism.Duration_value
                  (Duration.of_minutes minutes) );
            ] );
        ]
      in
      let design =
        Aved_model.Design.tier_design ~tier_name:"computation" ~resource:"rH"
          ~n_active:40 ~n_spare:1 ~mechanism_settings:settings ()
      in
      let candidate =
        Search.Job_search.evaluate infra ~option
          ~job_size:Aved.Experiments.scientific_job_size design
      in
      Printf.printf "interval %8.1f min -> job %8.2f h\n" minutes
        (Duration.hours candidate.Search.Job_search.execution_time))
    [ 1.; 3.; 8.; 13.3; 20.; 40.; 120.; 480.; 1440. ]

let run_ablations () =
  ablation_engines ();
  ablation_pruning ();
  ablation_spare_modes ();
  ablation_shapes ();
  ablation_checkpoint_interval ()

(* ------------------------------------------------------------------ *)
(* Timing *)

(* Every stationary backend, and the auto-selected one, on Engine B's
   chains of the e-commerce application tier (resource rC, gold
   maintenance, one spare, four chain classes): 35, 126, 330 and 715
   states. These are the timings behind the 2048-state dense limit of
   [Ctmc.select_backend]. *)
let solver_tests () =
  let open Bechamel in
  let module Ctmc = Aved_markov.Ctmc in
  let infra = Aved.Experiments.infrastructure () in
  let option =
    List.find
      (fun (o : Aved_model.Service.resource_option) -> o.resource = "rC")
      (Aved.Experiments.application_tier ()).options
  in
  List.concat_map
    (fun n_active ->
      let design =
        Aved_model.Design.tier_design ~tier_name:"application" ~resource:"rC"
          ~n_active ~n_spare:1
          ~mechanism_settings:
            [ ("maintenanceA", [ ("level", Aved_model.Mechanism.Enum_value "gold") ]) ]
          ()
      in
      let chain =
        Aved_avail.Exact.chain
          (Aved_avail.Tier_model.build ~infra ~option ~design ~demand:(Some 300.))
      in
      List.map
        (fun (name, solve) ->
          Test.make
            ~name:
              (Printf.sprintf "markov: %s stationary (%d states)" name
                 (Ctmc.num_states chain))
            (Staged.stage (fun () -> ignore (solve chain))))
        [
          ("gth", Ctmc.stationary_gth);
          ("banded", Ctmc.stationary_with Ctmc.Banded);
          ("lu", Ctmc.stationary_lu);
          ( "auto=" ^ Ctmc.backend_name (Ctmc.select_backend chain),
            Ctmc.stationary );
        ])
    [ 2; 4; 6; 8 ]

let bench_tests () =
  let open Bechamel in
  let infra = Aved.Experiments.infrastructure () in
  let app_tier = Aved.Experiments.application_tier () in
  let bronze_infra = Aved.Experiments.infrastructure_bronze () in
  let sci_tier = Aved.Experiments.computation_tier () in
  let config = Search.Search_config.default in
  (* Table 1: one evaluation sweep of every performance function. *)
  let table1 =
    Test.make ~name:"table1: evaluate performance functions"
      (Staged.stage (fun () ->
           List.iter
             (fun (o : Aved_model.Service.resource_option) ->
               for n = 1 to 64 do
                 ignore (Aved_perf.Perf_function.eval o.performance ~n)
               done)
             (app_tier.options @ sci_tier.options)))
  in
  (* Fig. 6 kernel: one application-tier frontier at load 1000. *)
  let fig6 =
    Test.make ~name:"fig6: application-tier frontier (load 1000)"
      (Staged.stage (fun () ->
           ignore
             (Search.Tier_search.frontier config infra ~tier:app_tier
                ~demand:1000.)))
  in
  (* Fig. 7 kernel: one scientific-design search at 100 h. *)
  let fig7 =
    Test.make ~name:"fig7: scientific design search (100 h)"
      (Staged.stage (fun () ->
           ignore
             (Search.Job_search.optimal Aved.Experiments.fig7_config
                bronze_infra ~tier:sci_tier
                ~job_size:Aved.Experiments.scientific_job_size
                ~max_time:(Duration.of_hours 100.))))
  in
  (* Fig. 8 kernel: frontier + tradeoff readout at load 800. *)
  let fig8 =
    Test.make ~name:"fig8: cost/availability tradeoff (load 800)"
      (Staged.stage (fun () ->
           ignore
             (Aved.Figures.fig8 ~loads:[ 800. ]
                ~downtimes_minutes:[ 0.5; 5.; 50. ] ())))
  in
  (* Substrate kernels. *)
  let gth =
    let chain = Aved_markov.Ctmc.create 120 in
    for k = 0 to 118 do
      Aved_markov.Ctmc.add_transition chain ~src:k ~dst:(k + 1)
        ~rate:(1. +. float_of_int k);
      Aved_markov.Ctmc.add_transition chain ~src:(k + 1) ~dst:k ~rate:7.
    done;
    Test.make ~name:"markov: GTH stationary (120 states)"
      (Staged.stage (fun () -> ignore (Aved_markov.Ctmc.stationary_gth chain)))
  in
  let spec_parse =
    Test.make ~name:"spec: parse Fig. 3 infrastructure"
      (Staged.stage (fun () ->
           ignore
             (Aved_spec.Spec.infrastructure_of_string
                Aved.Experiments.infrastructure_spec)))
  in
  let monte_carlo =
    let model =
      {
        Aved_avail.Tier_model.tier_name = "bench";
        n_active = 5;
        n_min = 5;
        n_spare = 1;
        failure_scope = Aved_model.Service.Resource_scope;
        classes =
          [
            {
              Aved_avail.Tier_model.label = "hw/hard";
              rate = 1. /. Duration.seconds (Duration.of_days 400.);
              mttr = Duration.of_hours 24.;
              failover_time = Duration.of_minutes 5.;
              failover_considered = true;
              repair_mechanism = None;
            };
          ];
        loss_window = None;
        effective_performance = 1000.;
      }
    in
    Test.make ~name:"sim: 10 simulated years of a 5+1 tier"
      (Staged.stage (fun () ->
           ignore
             (Aved_avail.Monte_carlo.downtime_fraction
                ~config:
                  {
                    Aved_avail.Monte_carlo.replications = 1;
                    horizon = Duration.of_years 10.;
                    seed = 1;
                  }
                model)))
  in
  (* Parallel search: the same four-load Fig. 6 sweep at one domain and
     at four. Speedup tracks the host's physical core count; on a
     single-core machine the jobs=4 run measures pool overhead and
     contention instead of speedup. *)
  let sweep_loads = [ 400.; 1000.; 1600.; 2200. ] in
  let parallel jobs =
    Test.make
      ~name:(Printf.sprintf "parallel: fig6 sweep of 4 loads, jobs=%d" jobs)
      (Staged.stage (fun () ->
           ignore
             (Aved.Figures.fig6
                ~config:(Search.Search_config.with_jobs jobs config)
                ~loads:sweep_loads ())))
  in
  [ table1; fig6; fig7; fig8; gth ]
  @ solver_tests ()
  @ [ spec_parse; monte_carlo; parallel 1; parallel 4 ]

(* One wall-clock readout of the parallel search, so logs carry the
   measured ratio next to the core count it was measured on. *)
let run_parallel_speedup () =
  section "Parallel search speedup (fig6 sweep of 4 loads)";
  Printf.printf "recommended domains on this host: %d\n"
    (Domain.recommended_domain_count ());
  let time jobs =
    let config =
      Search.Search_config.with_jobs jobs Search.Search_config.default
    in
    let t0 = Unix.gettimeofday () in
    ignore (Aved.Figures.fig6 ~config ~loads:[ 400.; 1000.; 1600.; 2200. ] ());
    Unix.gettimeofday () -. t0
  in
  let t1 = time 1 in
  let t4 = time 4 in
  Printf.printf "jobs=1: %.3fs   jobs=4: %.3fs   speedup %.2fx\n" t1 t4
    (t1 /. Float.max 1e-9 t4);
  if Domain.recommended_domain_count () < 2 then
    print_endline
      "(single-core host: jobs=4 measures pool overhead, not speedup)"

let run_timing tests =
  let open Bechamel in
  section "Timing (Bechamel, monotonic clock)";
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let results = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ estimate ] ->
              let pretty =
                if estimate > 1e9 then Printf.sprintf "%8.3f s " (estimate /. 1e9)
                else if estimate > 1e6 then
                  Printf.sprintf "%8.3f ms" (estimate /. 1e6)
                else if estimate > 1e3 then
                  Printf.sprintf "%8.3f us" (estimate /. 1e3)
                else Printf.sprintf "%8.0f ns" estimate
              in
              Printf.printf "%-52s %s/run\n%!" name pretty
          | Some _ | None -> Printf.printf "%-52s (no estimate)\n%!" name)
        results)
    tests

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let timing = not (List.mem "--no-timing" args) in
  let only = List.filter (fun a -> a <> "--no-timing") args in
  let want name = only = [] || List.mem name only in
  if List.mem "json" only then json_search_benchmark ()
  else begin
  if want "table1" then print_table1 ();
  if want "fig6" then print_fig6 ();
  if want "fig7" then print_fig7 ();
  if want "fig8" then print_fig8 ();
  if want "ablations" then run_ablations ();
  if want "speedup" && only <> [] then run_parallel_speedup ();
  if List.mem "solvers" only then run_timing (solver_tests ());
  if timing && only = [] then (
    run_parallel_speedup ();
    run_timing (bench_tests ()))
  end

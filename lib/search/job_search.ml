module Duration = Aved_units.Duration
module Money = Aved_units.Money
module Model = Aved_model
module Avail = Aved_avail
module Perf_function = Aved_perf.Perf_function
module Pool = Aved_parallel.Pool
module Incumbent = Aved_parallel.Incumbent
module Telemetry = Aved_telemetry.Telemetry

type candidate = {
  design : Model.Design.tier_design;
  model : Avail.Tier_model.t;
  cost : Money.t;
  execution_time : Duration.t;
}

(* Provenance helper: one record of a job-search candidate. *)
let provenance_record ~tier c fate =
  {
    Provenance.tier;
    design = c.design;
    cost = c.cost;
    downtime = None;
    execution_time = Some c.execution_time;
    fate;
  }

let evaluate config infra ~option ~job_size design =
  let model = Avail.Tier_model.build ~infra ~option ~design ~demand:None in
  let execution_time =
    Avail.Evaluate.job_completion_time config.Search_config.engine model
      ~job_size
  in
  {
    design;
    model;
    cost = Model.Design.tier_cost infra design;
    execution_time;
  }

(* The search's total order — lower cost, then faster completion, then
   {!Model.Design.compare_tier} — so the selected optimum is a function
   of the candidate set, not of the enumeration schedule. *)
let compare_total a b =
  match Money.compare a.cost b.cost with
  | 0 -> (
      match Duration.compare a.execution_time b.execution_time with
      | 0 -> Model.Design.compare_tier a.design b.design
      | c -> c)
  | c -> c

let better a b = compare_total a b < 0

(* Failure-free completion time at nominal performance — a lower bound
   on the achievable execution time with [n] resources (slowdowns and
   failures only add to it). *)
let ideal_time ~(option : Model.Service.resource_option) ~job_size ~n =
  let perf = Perf_function.eval option.performance ~n in
  if perf <= 0. then None else Some (Duration.of_hours (job_size /. perf))

let feasible_n ~option ~job_size ~max_time n =
  match ideal_time ~option ~job_size ~n with
  | None -> false
  | Some ideal -> Duration.compare ideal max_time <= 0

(* The active/spare splits of [total] that pass the failure-free
   feasibility precheck. Settings-independent, so the caller computes
   it once per (option, total) rather than once per mechanism
   combination. *)
let feasible_splits config ~(option : Model.Service.resource_option)
    ~job_size ~max_time ~total =
  List.filter_map
    (fun n_spare ->
      let n_active = total - n_spare in
      if
        n_active > 0
        && Model.Int_range.mem option.n_active n_active
        && feasible_n ~option ~job_size ~max_time n_active
      then Some (n_active, n_spare)
      else None)
    (List.init (Stdlib.min config.Search_config.max_spares total + 1) Fun.id)

(* One mechanism-settings combination at the precomputed feasible
   splits of one total resource count: every split and spare
   operational mode, each surviving candidate passed to [emit] in
   enumeration order. Returns the minimum cost over ALL designs of the
   combination — including those pruned by [cost_cap] — so the
   caller's stopping rule is independent of the cap (and hence of
   parallel completion order). Designs failing the failure-free
   feasibility precheck are not part of the space and do not count.
   Equal-cost candidates survive the cap so ties can break toward
   faster completion deterministically. *)
let eval_settings_fold config ~tier_name
    ~(option : Model.Service.resource_option) ~job_size ~splits ?cost_cap
    ~emit (settings, base_entry) =
  let min_cost = ref None in
  let generated = ref 0
  and evaluated = ref 0
  and pruned = ref 0
  and rejected = ref 0 in
  List.iter
    (fun (n_active, n_spare) ->
      List.iter
        (fun (spare_active_components, entry) ->
          let design =
            Model.Design.tier_design ~tier_name ~resource:option.resource
              ~n_active ~n_spare ~spare_active_components
              ~mechanism_settings:settings ()
          in
          let cost = Eval_cache.tier_cost entry ~n_active ~n_spare in
          incr generated;
          (min_cost :=
             match !min_cost with
             | None -> Some cost
             | Some m -> Some (Money.min m cost));
          match cost_cap with
          | Some cap when not Money.(cost <= cap) ->
              incr pruned;
              Provenance.note (fun () ->
                  {
                    Provenance.tier = tier_name;
                    design;
                    cost;
                    downtime = None;
                    execution_time = None;
                    fate = Over_cost_cap { excess = Money.sub cost cap };
                  })
          | Some _ | None -> (
              (* Only genuine model rejections are caught and counted
                 ({!Aved_avail.Tier_model.Rejected}); an
                 [Invalid_argument] here is a programming error and
                 propagates. *)
              match
                let model =
                  Eval_cache.model entry ~n_active ~n_spare ~demand:None
                in
                let execution_time =
                  match config.Search_config.engine with
                  | Avail.Evaluate.Analytic ->
                      let downtime_fraction =
                        Eval_cache.downtime_fraction entry
                          config.Search_config.engine model
                      in
                      Avail.Evaluate.job_completion_time_of ~downtime_fraction
                        model ~job_size
                  | Avail.Evaluate.Exact _ | Avail.Evaluate.Monte_carlo _ ->
                      Avail.Evaluate.job_completion_time
                        config.Search_config.engine model ~job_size
                in
                { design; model; cost; execution_time }
              with
              | candidate ->
                  incr evaluated;
                  emit candidate
              | exception Avail.Tier_model.Rejected reason ->
                  incr rejected;
                  Provenance.note (fun () ->
                      {
                        Provenance.tier = tier_name;
                        design;
                        cost;
                        downtime = None;
                        execution_time = None;
                        fate = Rejected_by_model { reason };
                      })))
        (if n_spare = 0 || not config.Search_config.explore_spare_modes then
           [ ([], base_entry) ]
         else Eval_cache.spare_entries base_entry))
    splits;
  Search_metrics.flush ~tier_name ~generated:!generated ~evaluated:!evaluated
    ~pruned:!pruned ~rejected:!rejected;
  !min_cost

let eval_settings config ~tier_name ~option ~job_size ~splits ?cost_cap pair =
  let candidates = ref [] in
  let min_cost =
    eval_settings_fold config ~tier_name ~option ~job_size ~splits ?cost_cap
      ~emit:(fun candidate -> candidates := candidate :: !candidates)
      pair
  in
  (List.rev !candidates, min_cost)

(* All designs of one option at one total. The mechanism-settings grid
   is the dominant fan-out of the job search (e.g. the checkpoint
   interval × storage-location grid of the paper's scientific example),
   so that is the dimension fanned out over the pool; the merge is by
   settings index, keeping the candidate order deterministic. *)
let enumerate_and_min ?pool config infra ~tier_name
    ~(option : Model.Service.resource_option) ~job_size ~max_time ~total
    ?cost_cap () =
  let splits = feasible_splits config ~option ~job_size ~max_time ~total in
  if splits = [] then ([], None)
  else begin
  let pairs = Eval_cache.settings_entries ~infra ~tier_name ~option in
  let eval pair =
    eval_settings config ~tier_name ~option ~job_size ~splits ?cost_cap pair
  in
  let per_settings =
    match pool with
    | Some pool when Pool.jobs pool > 1 && List.length pairs > 1 ->
        (* Cache entries are domain-local: ship only the settings and
           let each worker resolve them in its own cache. *)
        Pool.map pool
          (fun (settings, _) ->
            eval
              ( settings,
                Eval_cache.entry ~infra ~tier_name ~option ~settings
                  ~spare_active:[] ))
          pairs
    | Some _ | None -> List.map eval pairs
  in
  let candidates = List.concat_map fst per_settings in
  let min_cost =
    List.fold_left
      (fun acc (_, m) ->
        match (acc, m) with
        | None, m | m, None -> m
        | Some a, Some b -> Some (Money.min a b))
      None per_settings
  in
  (candidates, min_cost)
  end

let enumerate_total ?pool config infra ~tier_name ~option ~job_size ~max_time
    ~total ?cost_cap () =
  fst
    (enumerate_and_min ?pool config infra ~tier_name ~option ~job_size
       ~max_time ~total ?cost_cap ())

(* As {!enumerate_and_min}, but reduced on the fly to what the optimal
   search consumes — the best feasible candidate, the fastest execution
   time over every evaluated candidate, and the minimum cost — instead
   of materializing one candidate list per total only to fold it away.
   The reduction visits candidates in the same order as the list path
   and keeps the earlier candidate on [compare_total] ties, so the
   selected design is identical. Used when provenance is off; the
   explain path wants the full lists. *)
let enumerate_reduced ?pool config infra ~tier_name
    ~(option : Model.Service.resource_option) ~job_size ~max_time ~total
    ?cost_cap () =
  let splits = feasible_splits config ~option ~job_size ~max_time ~total in
  if splits = [] then (None, Float.infinity, None)
  else begin
    let pairs = Eval_cache.settings_entries ~infra ~tier_name ~option in
    let eval pair =
      let best = ref None in
      let min_time = ref Float.infinity in
      let emit c =
        let t = Duration.seconds c.execution_time in
        if t < !min_time then min_time := t;
        if Duration.compare c.execution_time max_time <= 0 then
          match !best with
          | Some b when not (better c b) -> ()
          | Some _ | None -> best := Some c
      in
      let min_cost =
        eval_settings_fold config ~tier_name ~option ~job_size ~splits
          ?cost_cap ~emit pair
      in
      (!best, !min_time, min_cost)
    in
    let per_settings =
      match pool with
      | Some pool when Pool.jobs pool > 1 && List.length pairs > 1 ->
          Pool.map pool
            (fun (settings, _) ->
              eval
                ( settings,
                  Eval_cache.entry ~infra ~tier_name ~option ~settings
                    ~spare_active:[] ))
            pairs
      | Some _ | None -> List.map eval pairs
    in
    (* Merge in settings order with the same tie rule as the flat
       iteration, so parallel completion order cannot change the
       result. *)
    List.fold_left
      (fun (best, min_time, min_cost) (b, t, m) ->
        let best =
          match (best, b) with
          | None, b -> b
          | best, None -> best
          | Some incumbent, Some challenger ->
              if better challenger incumbent then Some challenger
              else Some incumbent
        in
        let min_cost =
          match (min_cost, m) with
          | None, m | m, None -> m
          | Some a, Some b -> Some (Money.min a b)
        in
        (best, Float.min min_time t, min_cost))
      (None, Float.infinity, None)
      per_settings
  end

let start_total ~(option : Model.Service.resource_option) ~job_size ~max_time =
  Seq.find
    (fun n -> feasible_n ~option ~job_size ~max_time n)
    (Model.Int_range.to_seq option.n_active)

let option_limit config (option : Model.Service.resource_option) =
  Stdlib.min config.Search_config.max_total_resources
    (Model.Int_range.max_value option.n_active
   + config.Search_config.max_spares)

(* Branch-local search of one resource option; mirrors
   {!Tier_search.search_option}. The [shared] incumbent only tightens
   the evaluation cap below the branch-local best — it skips
   availability evaluations that provably cannot win, without touching
   the branch's stopping logic. *)
let search_option ?pool ?shared config infra ~tier_name ~option ~job_size
    ~max_time () =
  Telemetry.Counter.incr Search_metrics.options_searched;
  match start_total ~option ~job_size ~max_time with
  | None -> None
  | Some start ->
      let limit = option_limit config option in
      let best = ref None in
      let previous_best_time = ref Float.infinity in
      let degradations = ref 0 in
      let stop = ref false in
      let total = ref start in
      while (not !stop) && !total <= limit do
        Telemetry.Counter.incr Search_metrics.totals_scanned;
        let cost_cap =
          match !best with
          | None -> None
          | Some b ->
              let cap = b.cost in
              Some
                (match shared with
                | Some inc ->
                    let bound = Incumbent.get inc in
                    if bound < Money.to_float cap then begin
                      Telemetry.Counter.incr
                        Search_metrics.incumbent_cap_tightened;
                      Money.of_float bound
                    end
                    else cap
                | None -> cap)
        in
        let candidates, min_time_all, min_cost_all =
          if Provenance.enabled () then
            let candidates, min_cost_all =
              enumerate_and_min ?pool config infra ~tier_name ~option
                ~job_size ~max_time ~total:!total ?cost_cap ()
            in
            let min_time_all =
              List.fold_left
                (fun acc c ->
                  Float.min acc (Duration.seconds c.execution_time))
                Float.infinity candidates
            in
            (candidates, min_time_all, min_cost_all)
          else
            let best_here, min_time_all, min_cost_all =
              enumerate_reduced ?pool config infra ~tier_name ~option
                ~job_size ~max_time ~total:!total ?cost_cap ()
            in
            ( (match best_here with Some c -> [ c ] | None -> []),
              min_time_all,
              min_cost_all )
        in
        let feasible =
          List.filter
            (fun c -> Duration.compare c.execution_time max_time <= 0)
            candidates
        in
        if Provenance.enabled () then
          List.iter
            (fun c ->
              if Duration.compare c.execution_time max_time > 0 then
                Provenance.note (fun () ->
                    provenance_record ~tier:tier_name c
                      (Over_downtime_budget
                         {
                           excess = Duration.sub c.execution_time max_time;
                         })))
            candidates;
        List.iter
          (fun c ->
            match !best with
            | Some b when not (better c b) ->
                Provenance.note (fun () ->
                    provenance_record ~tier:tier_name c
                      (Dominated { by = Provenance.describe b.design }))
            | Some _ | None ->
                Option.iter
                  (fun b ->
                    Provenance.note (fun () ->
                        provenance_record ~tier:tier_name b
                          (Dominated { by = Provenance.describe c.design })))
                  !best;
                best := Some c;
                Provenance.note (fun () ->
                    provenance_record ~tier:tier_name c Incumbent);
                Option.iter
                  (fun inc -> Incumbent.propose inc (Money.to_float c.cost))
                  shared)
          feasible;
        (match !best with
        | Some b -> (
            match min_cost_all with
            | None -> stop := true
            | Some m -> if Money.(b.cost <= m) then stop := true)
        | None ->
            let best_time_here = min_time_all in
            if best_time_here >= !previous_best_time then begin
              incr degradations;
              if !degradations >= 2 then stop := true
            end
            else degradations := 0;
            previous_best_time := best_time_here);
        incr total
      done;
      !best

let with_pool ?pool config f =
  match pool with
  | Some pool -> f pool
  | None -> Pool.run ~jobs:config.Search_config.jobs f

let merge_best results =
  List.fold_left
    (fun acc r ->
      match (acc, r) with
      | None, r | r, None -> r
      | Some a, Some b -> if better b a then Some b else Some a)
    None results

let optimal ?pool config infra ~(tier : Model.Service.tier) ~job_size
    ~max_time =
  Telemetry.with_span "search.job.optimal" @@ fun () ->
  with_pool ?pool config @@ fun pool ->
  let shared = Incumbent.create () in
  let results =
    Pool.map pool
      (fun option ->
        let body () =
          search_option ~pool ~shared config infra
            ~tier_name:tier.tier_name ~option ~job_size ~max_time ()
        in
        if Telemetry.tracing () then
          Telemetry.with_span ("search.option:" ^ option.resource) body
        else body ())
      tier.options
  in
  let best = merge_best results in
  (match best with
  | Some winner when Provenance.enabled () ->
      List.iter
        (fun result ->
          match result with
          | Some b when b != winner ->
              Provenance.note (fun () ->
                  provenance_record ~tier:tier.tier_name b
                    (Dominated { by = Provenance.describe winner.design }))
          | Some _ | None -> ())
        results
  | Some _ | None -> ());
  best

let frontier ?pool config infra ~(tier : Model.Service.tier) ~job_size
    ~max_time =
  Telemetry.with_span "search.job.frontier" @@ fun () ->
  with_pool ?pool config @@ fun pool ->
  let tasks =
    List.concat_map
      (fun (option : Model.Service.resource_option) ->
        match start_total ~option ~job_size ~max_time with
        | None -> []
        | Some start ->
            let limit = option_limit config option in
            let limit =
              (* The frontier sweep is bounded like the optimal search:
                 a window of extras beyond the first feasible count. *)
              Stdlib.min limit
                (start + config.Search_config.max_extra_resources
               + config.Search_config.max_spares)
            in
            List.init
              (Stdlib.max 0 (limit - start + 1))
              (fun i -> (option, start + i)))
      tier.options
  in
  let candidates =
    List.concat
      (Pool.map pool
         (fun ((option : Model.Service.resource_option), total) ->
           enumerate_total config infra ~tier_name:tier.tier_name ~option
             ~job_size ~max_time ~total ())
         tasks)
  in
  let feasible =
    List.filter
      (fun c -> Duration.compare c.execution_time max_time <= 0)
      candidates
  in
  let sorted = List.sort compare_total feasible in
  let rec scan best_time acc = function
    | [] -> List.rev acc
    | c :: rest ->
        let t = Duration.seconds c.execution_time in
        if t < best_time then scan t (c :: acc) rest
        else scan best_time acc rest
  in
  let front = scan Float.infinity [] sorted in
  Search_metrics.observe_frontier (List.length front);
  front

let pp_candidate ppf c =
  Format.fprintf ppf "%a | cost %a/yr | exec %.2f h"
    Model.Design.pp_tier c.design Money.pp c.cost
    (Duration.hours c.execution_time)

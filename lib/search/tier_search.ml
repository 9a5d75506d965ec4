module Duration = Aved_units.Duration
module Money = Aved_units.Money
module Model = Aved_model
module Avail = Aved_avail
module Pool = Aved_parallel.Pool
module Incumbent = Aved_parallel.Incumbent
module Telemetry = Aved_telemetry.Telemetry

(* Provenance helper: one record of an enterprise-search candidate.
   Only called from inside a [Provenance.note] thunk or behind
   [Provenance.enabled], so the disabled path stays allocation-free. *)
let provenance_record ~tier (c : Candidate.t) fate =
  {
    Provenance.tier;
    design = c.Candidate.design;
    cost = c.Candidate.cost;
    downtime = Some (Candidate.downtime c);
    execution_time = None;
    fate;
  }

let settings_product = Eval_cache.settings_product

(* The spare-mode fan-out of one (settings, split): each choice paired
   with its cache entry, with the no-spare entry serving the empty
   mode. Order matches [Resource.downward_closed_subsets]. *)
let spare_mode_entries config base_entry ~n_spare =
  if n_spare = 0 || not config.Search_config.explore_spare_modes then
    [ ([], base_entry) ]
  else Eval_cache.spare_entries base_entry

(* One mechanism-settings combination at one total resource count:
   every (active/spare split, spare operational mode) design. Returns
   the evaluated candidates (in enumeration order) together with the
   minimum cost over ALL designs of the combination — including those
   pruned by [cost_cap] or rejected by the model builder — so that the
   caller's stopping rule does not depend on how much work the cap
   happened to save (a prerequisite for schedule-independent parallel
   search). Candidates costing more than [cost_cap] are skipped without
   availability evaluation; equal cost is kept so ties can be broken
   toward lower downtime deterministically. *)
let eval_settings config _infra ~tier_name
    ~(option : Model.Service.resource_option) ~demand ~total ?cost_cap
    (settings, base_entry) =
  match Eval_cache.minimum_actives base_entry ~demand with
  | None -> ([], None)
  | Some n_min ->
      let candidates = ref [] in
      let min_cost = ref None in
      let generated = ref 0
      and evaluated = ref 0
      and pruned = ref 0
      and rejected = ref 0 in
      (* The admissible window of the combination: at least the
         minimum that meets the demand and at most max_extra_resources
         more, leaving at most max_spares of [total] as spares. *)
      let n_values =
        Model.Int_range.between option.n_active
          ~lo:(Stdlib.max n_min (total - config.Search_config.max_spares))
          ~hi:
            (Stdlib.min total
               (n_min + config.Search_config.max_extra_resources))
      in
      List.iter
        (fun n_active ->
          let n_spare = total - n_active in
          List.iter
            (fun (spare_active_components, entry) ->
              let design =
                Model.Design.tier_design ~tier_name
                  ~resource:option.resource ~n_active ~n_spare
                  ~spare_active_components ~mechanism_settings:settings ()
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
                  match
                    let model =
                      Eval_cache.model entry ~n_active ~n_spare
                        ~demand:(Some demand)
                    in
                    let downtime_fraction =
                      Eval_cache.downtime_fraction entry
                        config.Search_config.engine model
                    in
                    { Candidate.design; model; cost; downtime_fraction }
                  with
                  | candidate ->
                      incr evaluated;
                      candidates := candidate :: !candidates
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
            (spare_mode_entries config base_entry ~n_spare))
        n_values;
      Search_metrics.flush ~tier_name ~generated:!generated
        ~evaluated:!evaluated ~pruned:!pruned ~rejected:!rejected;
      (List.rev !candidates, !min_cost)

(* All designs of one option at one total, fanned out over the
   mechanism-settings combinations when a pool is given. The merge is
   by settings index, so the candidate list is identical to the
   sequential enumeration. *)
let enumerate_and_min ?pool config infra ~tier_name
    ~(option : Model.Service.resource_option) ~demand ~total ?cost_cap () =
  let pairs = Eval_cache.settings_entries ~infra ~tier_name ~option in
  let eval pair =
    eval_settings config infra ~tier_name ~option ~demand ~total ?cost_cap
      pair
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

let enumerate_total config infra ~tier_name
    ~(option : Model.Service.resource_option) ~demand ~total ?cost_cap () =
  fst
    (enumerate_and_min config infra ~tier_name ~option ~demand ~total
       ?cost_cap ())

let option_minimum ~option ~settings ~demand =
  List.filter_map
    (fun s -> Avail.Tier_model.minimum_actives ~option ~settings:s ~demand)
    settings
  |> function
  | [] -> None
  | mins -> Some (List.fold_left Stdlib.min max_int mins)

(* [better a b]: the search's total order — lower cost, then lower
   downtime, then {!Model.Design.compare_tier}. Being total (never
   "equal" for distinct designs) makes the selected optimum a function
   of the candidate *set*, not of the enumeration schedule. *)
let better (a : Candidate.t) (b : Candidate.t) =
  Candidate.compare_total a b < 0

let max_total_for config start =
  Stdlib.min config.Search_config.max_total_resources
    (start + config.Search_config.max_extra_resources
   + config.Search_config.max_spares)

(* Search one resource option. The incumbent logic is branch-local —
   growing the total count, pruning evaluation against the local best,
   stopping when even the cheapest design at the current count cannot
   beat it — so a branch's control flow never depends on what other
   branches found. The [shared] incumbent (the cost of the best
   feasible design found by ANY option so far) only tightens the
   evaluation cap once a local best exists: it skips availability
   evaluations that provably cannot produce the global optimum, and
   skipping them changes neither this branch's stopping points nor the
   merged result (see Aved_parallel.Incumbent). *)
let search_option ?pool ?shared config infra ~tier_name
    ~(option : Model.Service.resource_option) ~demand ~max_downtime () =
  Telemetry.Counter.incr Search_metrics.options_searched;
  let resource = Model.Infrastructure.resource_exn infra option.resource in
  let all_settings = settings_product infra resource in
  match option_minimum ~option ~settings:all_settings ~demand with
  | None -> None
  | Some start ->
      let limit = max_total_for config start in
      let max_downtime_fraction = Duration.years max_downtime in
      let best = ref None in
      let previous_best_downtime = ref Float.infinity in
      let degradations = ref 0 in
      let stop = ref false in
      let total = ref start in
      while (not !stop) && !total <= limit do
        Telemetry.Counter.incr Search_metrics.totals_scanned;
        let cost_cap =
          match !best with
          | None -> None
          | Some b ->
              let cap = b.Candidate.cost in
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
        let candidates, min_cost_all =
          enumerate_and_min ?pool config infra ~tier_name ~option ~demand
            ~total:!total ?cost_cap ()
        in
        let feasible =
          List.filter
            (fun c -> c.Candidate.downtime_fraction <= max_downtime_fraction)
            candidates
        in
        if Provenance.enabled () then
          List.iter
            (fun (c : Candidate.t) ->
              if c.Candidate.downtime_fraction > max_downtime_fraction then
                Provenance.note (fun () ->
                    provenance_record ~tier:tier_name c
                      (Over_downtime_budget
                         {
                           excess =
                             Duration.sub (Candidate.downtime c) max_downtime;
                         })))
            candidates;
        List.iter
          (fun c ->
            match !best with
            | Some b when not (better c b) ->
                Provenance.note (fun () ->
                    provenance_record ~tier:tier_name c
                      (Dominated { by = Provenance.describe b.Candidate.design }))
            | Some _ | None ->
                Option.iter
                  (fun b ->
                    Provenance.note (fun () ->
                        provenance_record ~tier:tier_name b
                          (Dominated
                             { by = Provenance.describe c.Candidate.design })))
                  !best;
                best := Some c;
                Provenance.note (fun () ->
                    provenance_record ~tier:tier_name c Incumbent);
                Option.iter
                  (fun inc ->
                    Incumbent.propose inc (Money.to_float c.Candidate.cost))
                  shared)
          feasible;
        (match !best with
        | Some b -> (
            (* All designs with more resources cost strictly more than
               the cheapest at this count; stop once even the cheapest
               possible design cannot beat the incumbent. *)
            match min_cost_all with
            | None -> stop := true
            | Some m -> if Money.(b.Candidate.cost <= m) then stop := true)
        | None ->
            (* No feasible design yet: give up when adding resources no
               longer improves the best achievable downtime. *)
            let best_downtime_here =
              List.fold_left
                (fun acc c -> Float.min acc c.Candidate.downtime_fraction)
                Float.infinity candidates
            in
            if best_downtime_here >= !previous_best_downtime then begin
              incr degradations;
              if !degradations >= 2 then stop := true
            end
            else degradations := 0;
            previous_best_downtime := best_downtime_here);
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

(* After the merge, record why each losing branch's local best lost —
   sequentially, so the notes do not race with the pool workers. *)
let note_merge_losers ~tier results winner =
  if Provenance.enabled () then
    List.iter
      (fun result ->
        match result with
        | Some (b : Candidate.t) when b != winner ->
            Provenance.note (fun () ->
                provenance_record ~tier b
                  (Dominated
                     { by = Provenance.describe winner.Candidate.design }))
        | Some _ | None -> ())
      results

let optimal ?pool config infra ~(tier : Model.Service.tier) ~demand
    ~max_downtime =
  Telemetry.with_span "search.tier.optimal" @@ fun () ->
  with_pool ?pool config @@ fun pool ->
  let shared = Incumbent.create () in
  let results =
    Pool.map pool
      (fun option ->
        let body () =
          search_option ~pool ~shared config infra
            ~tier_name:tier.tier_name ~option ~demand ~max_downtime ()
        in
        if Telemetry.tracing () then
          Telemetry.with_span ("search.option:" ^ option.resource) body
        else body ())
      tier.options
  in
  let best = merge_best results in
  Option.iter (note_merge_losers ~tier:tier.tier_name results) best;
  best

let frontier ?pool config infra ~(tier : Model.Service.tier) ~demand =
  Telemetry.with_span "search.tier.frontier" @@ fun () ->
  with_pool ?pool config @@ fun pool ->
  let tasks =
    List.concat_map
      (fun (option : Model.Service.resource_option) ->
        let resource =
          Model.Infrastructure.resource_exn infra option.resource
        in
        let all_settings = settings_product infra resource in
        match option_minimum ~option ~settings:all_settings ~demand with
        | None -> []
        | Some start ->
            let limit = max_total_for config start in
            List.init (limit - start + 1) (fun i -> (option, start + i)))
      tier.options
  in
  let results =
    Pool.map pool
      (fun (option, total) ->
        enumerate_total config infra ~tier_name:tier.tier_name ~option
          ~demand ~total ())
      tasks
  in
  let pareto = Candidate.pareto (List.concat results) in
  Search_metrics.observe_frontier (List.length pareto);
  pareto

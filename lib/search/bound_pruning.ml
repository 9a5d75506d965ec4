module Money = Aved_units.Money
module Model = Aved_model
module Avail = Aved_avail
module Bounds = Aved_check.Bounds
module Certificate = Aved_check.Certificate
module Interval = Aved_check.Interval

(* Certified pruning for the design searches, built on the interval
   bounds analysis of [Aved_check.Bounds]. Every prune here skips only
   work whose outcome is already decided:

   - the budget prunes fire on candidates whose downtime (or expected
     completion time) lower bound already exceeds the requirement —
     such candidates could only ever land in the infeasible filter;
   - the frontier witness prune fires on candidates that cost at least
     as much as an already-evaluated witness while their downtime lower
     bound exceeds the witness's exact downtime — the Pareto scan would
     drop them against that witness.

   Both are further gated by the callers so that they never perturb a
   stopping rule: the optimal searches prune only in iterations that
   START with an incumbent (the no-incumbent stopping rule folds the
   best downtime over ALL candidates, which pruning would change), and
   the tier frontier has no stopping rule at all. The job frontier's
   scan keys on execution time, which the analysis does not bound
   tightly enough to certify ordering, so it stays unpruned.

   Each returned thunk materializes a [Certificate.t] — built only
   inside a [Provenance.note], so the no-trail path allocates
   nothing beyond the interval lookup. *)

type prune =
  design:Model.Design.tier_design ->
  cost:Money.t ->
  model:Avail.Tier_model.t ->
  (unit -> Certificate.t) option

(* The analyzer for one option, or [None] when pruning is off, the
   option is outside the analyzable fragment, or spare modes are being
   explored (the analysis assumes inactive spares). *)
let analyzer config ~infra ~tier_name ~option =
  if
    config.Search_config.prune_bounds
    && not config.Search_config.explore_spare_modes
  then Bounds.analyzer ~infra ~tier_name ~option
  else None

let model_interval an (model : Avail.Tier_model.t) =
  Bounds.downtime_interval an ~n_active:model.n_active ~n_min:model.n_min
    ~n_spare:model.n_spare

let model_label (model : Avail.Tier_model.t) =
  Bounds.design_label ~n_active:model.n_active ~n_min:model.n_min
    ~n_spare:model.n_spare

(* Enterprise budget prune: downtime lower bound already over the
   per-tier budget, so the candidate could not pass the feasibility
   filter. *)
let downtime_budget_prune an ~resource ~max_downtime_fraction : prune =
 fun ~design:_ ~cost:_ ~model ->
  let iv = model_interval an model in
  if Interval.lo iv > max_downtime_fraction then
    Some
      (fun () ->
        Certificate.make
          (Certificate.Infeasible
             {
               tier = model.tier_name;
               resource;
               budget_fraction = max_downtime_fraction;
               best_case_fraction = Interval.lo iv;
             })
          (Certificate.Budget { fraction = max_downtime_fraction }
          :: Certificate.Downtime_bound
               { design = model_label model; fraction = iv }
          :: Bounds.class_facts an ~spares:(model.n_spare > 0)))
  else None

(* Job budget prune: even at the downtime lower bound, the failure-free
   completion time divided by the best possible availability exceeds
   the time budget. ([Loss_window.expected_job_time] divides the
   failure-free work by availability times a useful fraction <= 1, so
   ideal / (1 - downtime.lo) is a sound lower bound.) A non-positive
   performance is left for the concrete path to reject, and a
   degenerate availability bound (downtime >= 1 possible) is skipped
   rather than certified. *)
let job_time_prune an ~job_size ~max_time_hours : prune =
 fun ~design:_ ~cost:_ ~model ->
  if model.Avail.Tier_model.effective_performance <= 0. then None
  else
    let iv = model_interval an model in
    let availability_upper = 1. -. Interval.lo iv in
    if availability_upper <= 0. then None
    else
      let ideal_hours = job_size /. model.effective_performance in
      let lower_bound_hours = ideal_hours /. availability_upper in
      if lower_bound_hours > max_time_hours then
        Some
          (fun () ->
            let label = model_label model in
            Certificate.make
              (Certificate.Exceeds_time_budget
                 {
                   design = label;
                   max_hours = max_time_hours;
                   ideal_hours;
                   availability_upper;
                   lower_bound_hours;
                 })
              (Certificate.Ideal_time { design = label; hours = ideal_hours }
              :: Certificate.Downtime_bound { design = label; fraction = iv }
              :: Bounds.class_facts an ~spares:(model.n_spare > 0)))
      else None

(* Frontier witness prune for one (option, total) task of the tier
   frontier. For every active/spare split of [total], the cheapest
   candidate certain to evaluate (its settings deliver the demand at
   its active count) becomes a witness; its downtime is computed
   EXACTLY through the shared evaluation cache — the same lookup the
   enumeration will hit, so no net extra work. A candidate costing at
   least as much as some witness while its downtime lower bound
   strictly exceeds that witness's exact downtime is pruned: the
   Pareto scan would have dropped it against the witness.

   One witness per split matters. The globally cheapest candidate of a
   task is typically the spare-heaviest split under its cheapest
   settings — the worst downtime of the whole task, which dominates
   nothing. It is the active-heavy splits' witnesses whose exact
   downtime undercuts entire spare-heavy setting classes.

   A witness can itself be pruned (by a strictly better witness), but
   domination chains terminate: each step strictly decreases exact
   downtime, and the minimal-downtime witness never satisfies the
   strict inequality against its own class interval. Dominance is
   transitive along the chain (costs only decrease, downtimes only
   decrease), so every pruned candidate is dominated by a witness that
   survives into the candidate list and the merged frontier is
   identical to the unpruned one. *)
let frontier_witness config infra ~tier_name
    ~(option : Model.Service.resource_option) ~demand ~total :
    prune option =
  match analyzer config ~infra ~tier_name ~option with
  | None -> None
  | Some an -> (
      let pairs = Eval_cache.settings_entries ~infra ~tier_name ~option in
      (* Cheapest admissible (entry, cost) of one split, ties kept in
         entry order so the witness set is deterministic. *)
      let cheapest_entry ~n_active ~n_spare =
        if n_active > total || n_spare > config.Search_config.max_spares then
          None
        else
          List.fold_left
            (fun acc (_, entry) ->
              match Eval_cache.minimum_actives entry ~demand with
              | None -> acc
              | Some n_min ->
                  if
                    n_active >= n_min
                    && n_active - n_min
                       <= config.Search_config.max_extra_resources
                    && Avail.Tier_model.Skeleton.effective_performance
                         (Eval_cache.skeleton entry) ~n:n_active
                       >= demand
                  then
                    let cost =
                      Eval_cache.tier_cost entry ~n_active ~n_spare
                    in
                    match acc with
                    | Some (_, best_cost) when Money.(best_cost <= cost) ->
                        acc
                    | Some _ | None -> Some (entry, cost)
                  else acc)
            None pairs
      in
      let witnesses =
        List.filter_map
          (fun n_active ->
            let n_spare = total - n_active in
            match cheapest_entry ~n_active ~n_spare with
            | None -> None
            | Some (entry, cost) -> (
                match
                  let model =
                    Eval_cache.model entry ~n_active ~n_spare
                      ~demand:(Some demand)
                  in
                  let downtime =
                    Eval_cache.downtime_fraction entry
                      config.Search_config.engine model
                  in
                  (model, downtime)
                with
                | exception Avail.Tier_model.Rejected _ -> None
                | model, downtime -> Some (cost, downtime, model_label model)
                ))
          (Model.Int_range.between option.n_active ~lo:0 ~hi:total)
      in
      match witnesses with
      | [] -> None
      | _ :: _ ->
          Some
            (fun ~design:_ ~cost ~model ->
              let iv = model_interval an model in
              let lower = Interval.lo iv in
              (* Cite the lowest-downtime dominating witness; which
                 witness is cited never changes WHETHER a candidate is
                 pruned, only the certificate it carries. *)
              let dominating =
                List.fold_left
                  (fun acc (w_cost, w_downtime, w_label) ->
                    if Money.(w_cost <= cost) && w_downtime < lower then
                      match acc with
                      | Some (_, best_downtime, _)
                        when best_downtime <= w_downtime ->
                          acc
                      | Some _ | None -> Some (w_cost, w_downtime, w_label)
                    else acc)
                  None witnesses
              in
              match dominating with
              | None -> None
              | Some (witness_cost, witness_downtime, witness_label) ->
                  Some
                    (fun () ->
                      let label = model_label model in
                      Certificate.make
                        (Certificate.Dominated
                           {
                             design = label;
                             witness = witness_label;
                             cost = Money.to_float cost;
                             witness_cost = Money.to_float witness_cost;
                             downtime_lower_bound = lower;
                             witness_downtime;
                           })
                        (Certificate.Witness_downtime
                           {
                             design = witness_label;
                             fraction = witness_downtime;
                             cost = Money.to_float witness_cost;
                           }
                        :: Certificate.Downtime_bound
                             { design = label; fraction = iv }
                        :: Bounds.class_facts an
                             ~spares:(model.Avail.Tier_model.n_spare > 0)))))

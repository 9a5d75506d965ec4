module Duration = Aved_units.Duration
module Money = Aved_units.Money
module Model = Aved_model
module Avail = Aved_avail
module Pool = Aved_parallel.Pool
module Incumbent = Aved_parallel.Incumbent
module Telemetry = Aved_telemetry.Telemetry

type 'c kind = {
  start : Model.Service.resource_option -> int option;
  limit : Model.Service.resource_option -> start:int -> int;
  actives :
    Model.Service.resource_option ->
    total:int ->
    (Eval_cache.entry -> int list) option;
  demand : float option;
  make :
    Model.Design.tier_design -> Avail.Tier_model.t -> Money.t -> float -> 'c;
  design : 'c -> Model.Design.tier_design;
  cost : 'c -> Money.t;
  measure : 'c -> float;
  reported : 'c -> Duration.t option * Duration.t option;
  compare : 'c -> 'c -> int;
}

type keep = All | Best_within of float

type 'c batch = {
  candidates : 'c list;
  least : float;
  min_cost : Money.t option;
}

let with_pool ?pool config f =
  match pool with
  | Some pool -> f pool
  | None -> Pool.run ~jobs:config.Search_config.jobs f

(* Provenance helper: one record of a candidate. Only called from
   inside a [Provenance.note] thunk, so the disabled path stays
   allocation-free. *)
let record kind ~tier c fate =
  let downtime, execution_time = kind.reported c in
  {
    Provenance.tier;
    design = kind.design c;
    cost = kind.cost c;
    downtime;
    execution_time;
    fate;
  }

(* A design that never reached evaluation: pruned by the cost cap or
   rejected by the model builder. *)
let unevaluated ~tier design cost fate =
  {
    Provenance.tier;
    design;
    cost;
    downtime = None;
    execution_time = None;
    fate;
  }

let min_cost a b =
  match (a, b) with
  | None, m | m, None -> m
  | Some a, Some b -> Some (Money.min a b)

(* The least of [candidates] under [kind.compare], the earlier one on
   ties: a function of the candidate set whatever order the branches
   finished in, because the order is total. *)
let best_of kind candidates =
  List.fold_left
    (fun best c ->
      match best with
      | Some b when not (kind.compare c b < 0) -> best
      | Some _ | None -> Some c)
    None candidates

(* The spare-operational-mode fan-out of one (settings, split): each
   choice paired with its cache entry, the no-spare entry serving the
   empty mode. Order matches [Resource.downward_closed_subsets]. *)
let spare_modes config entry ~n_spare =
  if n_spare = 0 || not config.Search_config.explore_spare_modes then
    [ ([], entry) ]
  else Eval_cache.spare_entries entry

(* What one mechanism-settings combination contributes to a
   [batch], filled in place by [eval_settings]. *)
type 'c tally = {
  mutable kept : 'c list;  (* newest first *)
  mutable least_seen : float;
  mutable cheapest : Money.t option;
}

(* One mechanism-settings combination at one total resource count:
   every admissible active count and spare operational mode, each
   evaluated candidate tallied in enumeration order. The tally's
   [cheapest] is the minimum cost over ALL designs of the combination
   — including those pruned by [cost_cap] or rejected by the model
   builder — so the caller's stopping rule does not depend on how much
   work the cap happened to save (a prerequisite for
   schedule-independent parallel search). Designs costing more than
   [cost_cap] are skipped without evaluation; equal cost is kept so
   ties can be broken toward the better measure deterministically. *)
let eval_settings config kind ~tier_name
    ~(option : Model.Service.resource_option) ~total ~actives ~keep ?cost_cap
    (settings, base_entry) =
  let tally = { kept = []; least_seen = Float.infinity; cheapest = None } in
  let generated = ref 0
  and evaluated = ref 0
  and pruned = ref 0
  and rejected = ref 0 in
  List.iter
    (fun n_active ->
      let n_spare = total - n_active in
      List.iter
        (fun (spare_active_components, entry) ->
          let design =
            Model.Design.tier_design ~tier_name ~resource:option.resource
              ~n_active ~n_spare ~spare_active_components
              ~mechanism_settings:settings ()
          in
          let cost = Eval_cache.tier_cost entry ~n_active ~n_spare in
          incr generated;
          (tally.cheapest <-
             (match tally.cheapest with
             | None -> Some cost
             | Some m -> Some (Money.min m cost)));
          match cost_cap with
          | Some cap when not Money.(cost <= cap) ->
              incr pruned;
              Provenance.note (fun () ->
                  unevaluated ~tier:tier_name design cost
                    (Over_cost_cap { excess = Money.sub cost cap }))
          | Some _ | None -> (
              (* Only genuine model rejections are caught and counted
                 ({!Aved_avail.Tier_model.Rejected}); an
                 [Invalid_argument] here is a programming error and
                 propagates. *)
              match
                let model =
                  Eval_cache.model entry ~n_active ~n_spare
                    ~demand:kind.demand
                in
                kind.make design model cost
                  (Eval_cache.downtime_fraction entry model)
              with
              | c -> (
                  incr evaluated;
                  let m = kind.measure c in
                  if m < tally.least_seen then tally.least_seen <- m;
                  match keep with
                  | All -> tally.kept <- c :: tally.kept
                  | Best_within bound -> (
                      if m <= bound then
                        match tally.kept with
                        | b :: _ when not (kind.compare c b < 0) -> ()
                        | _ -> tally.kept <- [ c ]))
              | exception Avail.Tier_model.Rejected reason ->
                  incr rejected;
                  Provenance.note (fun () ->
                      unevaluated ~tier:tier_name design cost
                        (Rejected_by_model { reason }))))
        (spare_modes config base_entry ~n_spare))
    (actives base_entry);
  Search_metrics.flush ~tier_name ~generated:!generated ~evaluated:!evaluated
    ~pruned:!pruned ~rejected:!rejected;
  tally

(* [f] over the option's mechanism-settings combinations, fanned out
   over the pool when one with several domains is given. Cache entries
   are domain-local: a worker gets only the settings and resolves the
   entry in its own cache. The results come back in settings order. *)
let map_settings ?pool ~infra ~tier_name ~option f =
  let pairs = Eval_cache.settings_entries ~infra ~tier_name ~option in
  match pool with
  | Some pool when Pool.jobs pool > 1 && List.length pairs > 1 ->
      Pool.map pool
        (fun (settings, _) ->
          f
            ( settings,
              Eval_cache.entry ~infra ~tier_name ~option ~settings
                ~spare_active:[] ))
        pairs
  | Some _ | None -> List.map f pairs

let enumerate ?pool config infra kind ~tier_name ~option ~total ~keep
    ?cost_cap () =
  match kind.actives option ~total with
  | None -> { candidates = []; least = Float.infinity; min_cost = None }
  | Some actives ->
      let tallies =
        map_settings ?pool ~infra ~tier_name ~option
          (eval_settings config kind ~tier_name ~option ~total ~actives ~keep
             ?cost_cap)
      in
      (* Merged in settings order, so parallel completion order cannot
         change the result. *)
      {
        candidates =
          (match keep with
          | All -> List.concat_map (fun t -> List.rev t.kept) tallies
          | Best_within _ ->
              Option.to_list
                (best_of kind (List.concat_map (fun t -> t.kept) tallies)));
        least =
          List.fold_left
            (fun acc t -> if t.least_seen < acc then t.least_seen else acc)
            Float.infinity tallies;
        min_cost =
          List.fold_left (fun acc t -> min_cost acc t.cheapest) None tallies;
      }

(* Search one resource option. The incumbent logic is branch-local —
   growing the total count, pruning evaluation against the local best,
   stopping when even the cheapest design at the current count cannot
   beat it — so a branch's control flow never depends on what other
   branches found. The [shared] incumbent (the cost of the best
   feasible design found by ANY option so far) only tightens the
   evaluation cap once a local best exists: it skips evaluations that
   provably cannot produce the global optimum, and skipping them
   changes neither this branch's stopping points nor the merged result
   (see Aved_parallel.Incumbent). With provenance off, each count is
   reduced on the fly to its best feasible candidate; with a trail
   bound, every candidate is kept so its fate can be recorded. *)
let search_option ?pool ?shared config infra kind ~bound ~excess ~tier_name
    ~option () =
  Telemetry.Counter.incr Search_metrics.options_searched;
  match kind.start option with
  | None -> None
  | Some start ->
      let limit = kind.limit option ~start in
      let recording = Provenance.enabled () in
      let keep = if recording then All else Best_within bound in
      let note c fate =
        Provenance.note (fun () -> record kind ~tier:tier_name c fate)
      in
      let best = ref None in
      let previous_least = ref Float.infinity in
      let degradations = ref 0 in
      let stop = ref false in
      let total = ref start in
      while (not !stop) && !total <= limit do
        Telemetry.Counter.incr Search_metrics.totals_scanned;
        let cost_cap =
          match !best with
          | None -> None
          | Some b ->
              let cap = kind.cost b in
              Some
                (match shared with
                | Some inc ->
                    let shared_cost = Incumbent.get inc in
                    if shared_cost < Money.to_float cap then begin
                      Telemetry.Counter.incr
                        Search_metrics.incumbent_cap_tightened;
                      Money.of_float shared_cost
                    end
                    else cap
                | None -> cap)
        in
        let batch =
          enumerate ?pool config infra kind ~tier_name ~option ~total:!total
            ~keep ?cost_cap ()
        in
        let feasible =
          List.filter (fun c -> kind.measure c <= bound) batch.candidates
        in
        if recording then
          List.iter
            (fun c ->
              if not (kind.measure c <= bound) then
                note c (Over_downtime_budget { excess = excess c }))
            batch.candidates;
        List.iter
          (fun c ->
            match !best with
            | Some b when not (kind.compare c b < 0) ->
                note c
                  (Dominated { by = Provenance.describe (kind.design b) })
            | Some _ | None ->
                Option.iter
                  (fun b ->
                    note b
                      (Dominated { by = Provenance.describe (kind.design c) }))
                  !best;
                best := Some c;
                note c Incumbent;
                Option.iter
                  (fun inc ->
                    Incumbent.propose inc (Money.to_float (kind.cost c)))
                  shared)
          feasible;
        (match !best with
        | Some b -> (
            (* All designs with more resources cost strictly more than
               the cheapest at this count; stop once even the cheapest
               possible design cannot beat the incumbent. *)
            match batch.min_cost with
            | None -> stop := true
            | Some m -> if Money.(kind.cost b <= m) then stop := true)
        | None ->
            (* No feasible design yet: give up when adding resources no
               longer improves the best achievable measure. *)
            if batch.least >= !previous_least then begin
              incr degradations;
              if !degradations >= 2 then stop := true
            end
            else degradations := 0;
            previous_least := batch.least);
        incr total
      done;
      !best

let optimal ?pool config infra kind ~bound ~excess
    ~(tier : Model.Service.tier) =
  with_pool ?pool config @@ fun pool ->
  let shared = Incumbent.create () in
  let results =
    Pool.map pool
      (fun (option : Model.Service.resource_option) ->
        let body () =
          search_option ~pool ~shared config infra kind ~bound ~excess
            ~tier_name:tier.tier_name ~option ()
        in
        if Telemetry.tracing () then
          Telemetry.with_span ("search.option:" ^ option.resource) body
        else body ())
      tier.options
  in
  let best = best_of kind (List.filter_map Fun.id results) in
  (* Record why each losing branch's local best lost — sequentially,
     after the merge, so the notes do not race with the pool
     workers. *)
  (match best with
  | Some winner when Provenance.enabled () ->
      List.iter
        (function
          | Some b when b != winner ->
              Provenance.note (fun () ->
                  record kind ~tier:tier.tier_name b
                    (Dominated
                       { by = Provenance.describe (kind.design winner) }))
          | Some _ | None -> ())
        results
  | Some _ | None -> ());
  best

let sweep ?pool config infra kind ~(tier : Model.Service.tier) =
  with_pool ?pool config @@ fun pool ->
  let tasks =
    List.concat_map
      (fun option ->
        match kind.start option with
        | None -> []
        | Some start ->
            let limit = kind.limit option ~start in
            List.init
              (Stdlib.max 0 (limit - start + 1))
              (fun i -> (option, start + i)))
      tier.options
  in
  List.concat
    (Pool.map pool
       (fun (option, total) ->
         (enumerate config infra kind ~tier_name:tier.tier_name ~option ~total
            ~keep:All ())
           .candidates)
       tasks)

module Duration = Aved_units.Duration
module Money = Aved_units.Money
module Model = Aved_model
module Avail = Aved_avail
module Telemetry = Aved_telemetry.Telemetry

let max_total_for config start =
  Stdlib.min config.Search_config.max_total_resources
    (start + config.Search_config.max_extra_resources
   + config.Search_config.max_spares)

(* The enterprise kind of the option search: counts start at the
   fewest resources that meet [demand] under some mechanism settings;
   a total admits, per settings combination, at least the minimum that
   meets the demand and at most max_extra_resources more, leaving at
   most max_spares of it as spares; candidates are ranked by downtime
   fraction. *)
let kind config infra ~demand : Candidate.t Option_search.kind =
  {
    start =
      (fun ~tier_name option ->
        List.fold_left
          (fun least (_, entry) ->
            match (least, Eval_cache.minimum_actives entry ~demand) with
            | None, n | n, None -> n
            | Some a, Some b -> Some (Stdlib.min a b))
          None
          (Eval_cache.settings_entries ~infra ~tier_name ~option));
    limit = (fun _ ~start -> max_total_for config start);
    actives =
      (fun option ~total ->
        Some
          (fun entry ->
            match Eval_cache.minimum_actives entry ~demand with
            | None -> []
            | Some n_min ->
                Model.Int_range.between option.n_active
                  ~lo:
                    (Stdlib.max n_min
                       (total - config.Search_config.max_spares))
                  ~hi:
                    (Stdlib.min total
                       (n_min + config.Search_config.max_extra_resources))));
    demand = Some demand;
    measure_of = (fun _ ~n_active:_ ~n_spare:_ downtime -> downtime);
    make =
      (fun design model cost downtime_fraction ->
        { Candidate.design; model; cost; downtime_fraction });
    design = (fun c -> c.Candidate.design);
    cost = (fun c -> c.Candidate.cost);
    measure = (fun c -> c.Candidate.downtime_fraction);
    reported = (fun c -> (Some (Candidate.downtime c), None));
    compare = Candidate.compare_total;
  }

let enumerate_total config infra ~tier_name ~option ~demand ~total ?cost_cap
    () =
  (Option_search.enumerate config infra (kind config infra ~demand)
     ~tier_name ~option ~total ~keep:All ?cost_cap ())
    .candidates

let optimal ?pool config infra ~tier ~demand ~max_downtime =
  Telemetry.with_span "search.tier.optimal" @@ fun () ->
  Option_search.optimal ?pool config infra (kind config infra ~demand)
    ~bound:(Duration.years max_downtime)
    ~excess:(fun c -> Duration.sub (Candidate.downtime c) max_downtime)
    ~tier

let frontier ?pool ?cost_cap config infra ~tier ~demand =
  Telemetry.with_span "search.tier.frontier" @@ fun () ->
  let frontier =
    Option_search.frontier ?pool ?cost_cap config infra
      (kind config infra ~demand) ~tier
  in
  (* The frontier counters count full frontiers only. *)
  if Option.is_none cost_cap then
    Search_metrics.observe_frontier (List.length frontier);
  frontier

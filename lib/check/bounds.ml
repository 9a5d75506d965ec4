module Duration = Aved_units.Duration
module Model = Aved_model
module Tier_model = Aved_avail.Tier_model

(* Whole-domain downtime bounds for one (tier, resource option).

   The concrete pipeline evaluates one design at a time: fixed
   mechanism settings give fixed failure classes
   ([Tier_model.classes_of]) and [Avail.Analytic] turns them into a
   downtime fraction for one (n_active, n_min, n_spare). Here the
   mechanism settings are left free: each class's repair time becomes an
   interval hulled over every setting of its repair mechanism (failure
   rates and failover times do not depend on settings), and the analytic
   formula is replayed in outward-rounded interval arithmetic. The
   result brackets the downtime of EVERY design with those counts across
   the whole mechanism-settings grid — one interval solve standing in
   for the full settings fan-out.

   Soundness of the replay: the stationary weights of the birth-death
   chain are rho_k = c_k * x^k with exact nonnegative coefficients
   c_k = prod a_j / (j + 1) and x = lambda * mean repair; interval
   powers of a nonnegative x are exact ranges, and the final ratios
   D / (D + U) and N / (D + U) are monotone in each part, so the
   decorrelated corners [D.lo/(D.lo + U.hi), D.hi/(D.hi + U.lo)] bound
   them. Everything else is a sum or product of interval terms, each
   containing its concrete counterpart pointwise.

   Out of scope, by construction: spare-active modes other than
   all-inactive (they change the failover structure — callers must not
   consult an analyzer when exploring spare modes), and repair
   mechanisms that lack an mttr for some setting (the concrete build
   would raise there; [analyzer] returns [None]). *)

type class_interval = {
  ci_label : string;
  ci_rate : float; (* failures per second; settings-independent *)
  ci_mttr : Interval.t; (* seconds, hulled over the settings grid *)
  ci_failover : float; (* seconds; settings-independent *)
}

type analyzer = {
  an_tier : string;
  an_resource : string;
  an_scope : Model.Service.failure_scope;
  an_classes : class_interval list;
  an_memo : (int * int * int, Interval.t) Hashtbl.t;
  an_lock : Mutex.t; (* the search consults one analyzer from pool workers *)
}

let tier_name an = an.an_tier
let resource_name an = an.an_resource

(* Hull of a repair mechanism's mttr over its whole settings grid;
   [None] when any setting yields no mttr (the concrete build would
   raise "provides no mttr" there). *)
let mechanism_mttr_interval mech =
  let rec loop acc = function
    | [] -> acc
    | setting :: rest -> (
        match (acc, Model.Mechanism.mttr_of mech setting) with
        | _, None -> None
        | None, Some d -> loop (Some (Interval.point (Duration.seconds d))) rest
        | Some iv, Some d ->
            loop
              (Some (Interval.hull iv (Interval.point (Duration.seconds d))))
              rest)
  in
  loop None (Model.Mechanism.settings mech)

let repair_interval ~infra ~resource_mechanisms
    (fm : Model.Component.failure_mode) =
  match fm.repair with
  | Model.Component.Fixed_repair d -> Some (Interval.point (Duration.seconds d))
  | Model.Component.Repair_by_mechanism mech_name ->
      if
        not
          (List.exists
             (fun (m : Model.Mechanism.t) -> String.equal m.name mech_name)
             resource_mechanisms)
      then None (* no setting in scope: the concrete build would raise *)
      else
        mechanism_mttr_interval
          (Model.Infrastructure.mechanism_exn infra mech_name)

(* Mirrors [Tier_model.classes_of] with [spare_active = []] (every
   component's startup is on the failover path) and the repair time
   hulled over settings. *)
let analyzer ~infra ~tier_name ~(option : Model.Service.resource_option) =
  match Model.Infrastructure.find_resource infra option.resource with
  | None -> None
  | Some resource -> (
      let resource_mechanisms =
        Model.Infrastructure.resource_mechanisms infra resource
      in
      let failover_base =
        Duration.add resource.reconfig_time
          (Model.Resource.startup_time_of resource
             (Model.Resource.component_names resource))
      in
      let classes =
        List.concat_map
          (fun (element : Model.Resource.element) ->
            let c =
              Model.Infrastructure.component_exn infra element.component
            in
            List.map
              (fun (fm : Model.Component.failure_mode) ->
                match repair_interval ~infra ~resource_mechanisms fm with
                | None -> None
                | Some repair ->
                    let restart =
                      Model.Resource.restart_time resource element.component
                    in
                    let fixed =
                      Duration.seconds (Duration.add fm.detect_time restart)
                    in
                    Some
                      {
                        ci_label = element.component ^ "/" ^ fm.mode_name;
                        ci_rate = 1. /. Duration.seconds fm.mtbf;
                        ci_mttr = Interval.add (Interval.point fixed) repair;
                        ci_failover =
                          Duration.seconds
                            (Duration.add fm.detect_time failover_base);
                      })
              c.failure_modes)
          resource.elements
      in
      if List.exists Option.is_none classes then None
      else
        Some
          {
            an_tier = tier_name;
            an_resource = option.resource;
            an_scope = option.failure_scope;
            an_classes = List.filter_map Fun.id classes;
            an_memo = Hashtbl.create 32;
            an_lock = Mutex.create ();
          })

(* Per-event transient outage: with spares the concrete model serves the
   failover time whenever it beats repair, i.e. min(mttr, failover);
   without spares the repair itself is the outage. (The concrete rule is
   "failover considered iff mttr > failover", whose outage equals the
   min in either case.) *)
let outage_interval ~spares c =
  if spares then Interval.min_ c.ci_mttr (Interval.point c.ci_failover)
  else c.ci_mttr

let zero = Interval.point 0.
let one = Interval.point 1.

(* [num / (num + rest)] for nonnegative parts, outward-rounded at the
   monotone corners: increasing in [num], decreasing in [rest]. *)
let share_interval num rest =
  let corner n r =
    Interval.div (Interval.point n)
      (Interval.add (Interval.point n) (Interval.point r))
  in
  Interval.of_bounds
    (Interval.lo (corner (Interval.lo num) (Interval.hi rest)))
    (Interval.hi (corner (Interval.hi num) (Interval.lo rest)))

(* Interval replay of [Avail.Analytic.downtime_fraction]. *)
let compute_downtime an ~n_active ~n_min ~n_spare =
  let classes = an.an_classes in
  if classes = [] then zero
  else
    let spares = n_spare > 0 in
    let lambda =
      List.fold_left
        (fun acc c -> Interval.add acc (Interval.point c.ci_rate))
        zero classes
    in
    let weighted_mttr =
      List.fold_left
        (fun acc c ->
          Interval.add acc (Interval.mul (Interval.point c.ci_rate) c.ci_mttr))
        zero classes
    in
    if Interval.lo lambda <= 0. || Interval.lo weighted_mttr <= 0. then
      (* Part of the settings grid degenerates the chain (no failures or
         instantaneous repair); give up soundly rather than split. *)
      Interval.of_bounds 0. 1.
    else
      let repair = Interval.div weighted_mttr lambda in
      let x = Interval.mul lambda repair in
      let n_total = n_active + n_spare in
      let actives k = Stdlib.min n_active (n_total - k) in
      let rho = Array.make (n_total + 1) one in
      for k = 1 to n_total do
        rho.(k) <-
          Interval.mul
            rho.(k - 1)
            (Interval.mul
               (Interval.point
                  (float_of_int (actives (k - 1)) /. float_of_int k))
               x)
      done;
      let down = ref zero and up = ref zero in
      for k = 0 to n_total do
        if n_total - k < n_min then down := Interval.add !down rho.(k)
        else up := Interval.add !up rho.(k)
      done;
      let chain_down = share_interval !down !up in
      let weight_num = ref zero in
      for k = 0 to n_total - 1 do
        let a = actives k in
        let next_up = n_total - k - 1 >= n_min in
        let interrupts =
          match an.an_scope with
          | Model.Service.Tier_scope -> true
          | Model.Service.Resource_scope -> a = n_min
        in
        if a > 0 && next_up && interrupts then
          weight_num :=
            Interval.add !weight_num
              (Interval.mul rho.(k) (Interval.point (float_of_int a)))
      done;
      let rest = Interval.sub (Interval.add !down !up) !weight_num in
      let weight = share_interval !weight_num rest in
      let outage_rate_sum =
        List.fold_left
          (fun acc c ->
            Interval.add acc
              (Interval.mul
                 (Interval.point c.ci_rate)
                 (outage_interval ~spares c)))
          zero classes
      in
      Interval.clamp ~lo:0. ~hi:1.
        (Interval.min_ one
           (Interval.add chain_down (Interval.mul weight outage_rate_sum)))

let downtime_interval an ~n_active ~n_min ~n_spare =
  let key = (n_active, n_min, n_spare) in
  Mutex.lock an.an_lock;
  let cached = Hashtbl.find_opt an.an_memo key in
  Mutex.unlock an.an_lock;
  match cached with
  | Some iv -> iv
  | None ->
      let iv = compute_downtime an ~n_active ~n_min ~n_spare in
      Mutex.lock an.an_lock;
      if not (Hashtbl.mem an.an_memo key) then Hashtbl.add an.an_memo key iv;
      Mutex.unlock an.an_lock;
      iv

let design_label ~n_active ~n_min ~n_spare =
  Printf.sprintf "n=%d m=%d s=%d" n_active n_min n_spare

let seconds_per_hour = 3600.

let class_facts an ~spares =
  List.concat_map
    (fun c ->
      [
        Certificate.Class_rate
          {
            label = c.ci_label;
            per_hour = Interval.point (c.ci_rate *. seconds_per_hour);
          };
        Certificate.Class_outage
          { label = c.ci_label; seconds = outage_interval ~spares c };
      ])
    an.an_classes

(* Mechanism settings at the mttr corners, for the well-formedness
   corner audit: per mechanism independently, the setting minimizing
   (resp. maximizing) its mttr; mechanisms without an mttr keep their
   first setting in both corners. *)
let mttr_corner_settings ~infra ~resource =
  let corner better mech =
    let name = (mech : Model.Mechanism.t).name in
    let best =
      List.fold_left
        (fun acc setting ->
          match Model.Mechanism.mttr_of mech setting with
          | None -> acc
          | Some d -> (
              let s = Duration.seconds d in
              match acc with
              | Some (_, s') when not (better s s') -> acc
              | _ -> Some (setting, s)))
        None
        (Model.Mechanism.settings mech)
    in
    match best with
    | Some (setting, _) -> (name, setting)
    | None -> (name, Model.Mechanism.first_setting mech)
  in
  let mechs = Model.Infrastructure.resource_mechanisms infra resource in
  ( List.map (corner (fun a b -> a < b)) mechs,
    List.map (corner (fun a b -> a > b)) mechs )

(* --- Region analysis for `aved check --bounds` ------------------- *)

type verdict =
  | Infeasible of Certificate.t
  | Trivially_satisfiable of Certificate.t
  | Inconclusive

type report = {
  rp_tier : string;
  rp_resource : string;
  rp_bounds : Interval.t option; (* hull over the region; None: unanalyzable *)
  rp_region : string;
  rp_note : string option; (* why unanalyzable, when [rp_bounds = None] *)
  rp_verdict : verdict option; (* None without a budget or bounds *)
}

let unanalyzable ~tier_name ~(option : Model.Service.resource_option) note =
  {
    rp_tier = tier_name;
    rp_resource = option.resource;
    rp_bounds = None;
    rp_region = "";
    rp_note = Some note;
    rp_verdict = None;
  }

let settings_grid ~infra ~resource =
  let mechs = Model.Infrastructure.resource_mechanisms infra resource in
  List.fold_left
    (fun acc (mech : Model.Mechanism.t) ->
      List.concat_map
        (fun partial ->
          List.map
            (fun s -> partial @ [ (mech.name, s) ])
            (Model.Mechanism.settings mech))
        acc)
    [ [] ] mechs

let max_grid = 4096

(* Smallest k >= 1 with effective performance >= demand under settings,
   scanning up to [limit]; mirrors the dynamic-sizing scan of
   [Tier_model.build]. *)
let dynamic_minimum ~option ~settings ~demand ~limit =
  let rec scan k =
    if k > limit then None
    else if Tier_model.effective_performance_of ~option ~settings ~n:k >= demand
    then Some k
    else scan (k + 1)
  in
  scan 1

(* The (n, n_min, n_spare) triples the design search can evaluate for
   this option, conservatively over-approximated, plus a printable
   description. The search enumerates totals from the option minimum up
   to minimum + max_extra + max_spares, so every candidate satisfies
   n_lo <= n <= n_lo + max_extra + max_spares and 0 <= s <= max_spares;
   n_min is n itself under static sizing or tier scope, otherwise the
   dynamic minimum for the demand under some settings. A superset of the
   reachable triples keeps both verdicts sound: infeasibility lowers its
   claimed best case, trivial satisfiability raises its worst case. *)
let region_triples ~infra ~tier_name ~(option : Model.Service.resource_option)
    ~demand ~max_extra ~max_spares =
  let grid_or_small =
    match Model.Infrastructure.find_resource infra option.resource with
    | None -> Error "unknown resource"
    | Some resource ->
        let grid = settings_grid ~infra ~resource in
        if List.length grid > max_grid then
          Error "mechanism-settings grid too large to enumerate"
        else Ok grid
  in
  match grid_or_small with
  | Error e -> Error e
  | Ok grid -> (
      let static_min =
        match option.sizing with
        | Model.Service.Static -> true
        | Model.Service.Dynamic -> (
            match option.failure_scope with
            | Model.Service.Tier_scope -> true
            | Model.Service.Resource_scope -> false)
      in
      match (demand, static_min) with
      | None, false ->
          Error
            "dynamically sized with resource failure scope: needs a \
             throughput requirement (--load)"
      | _ -> (
          let n_hi_cap = Model.Int_range.max_value option.n_active in
          let admissible =
            match demand with
            | None -> Model.Int_range.to_list option.n_active
            | Some demand ->
                (* n must make the option deliverable under at least one
                   settings assignment — the search's minimum_actives
                   gate, hulled over settings. *)
                let minima =
                  List.filter_map
                    (fun settings ->
                      Tier_model.minimum_actives ~option ~settings ~demand)
                    grid
                in
                let n_lo = List.fold_left Stdlib.min max_int minima in
                if minima = [] then []
                else
                  Model.Int_range.between option.n_active ~lo:n_lo
                    ~hi:(n_lo + max_extra + max_spares)
          in
          if admissible = [] then Error "cannot deliver the demand at any size"
          else
            let minima_set =
              if static_min then []
              else
                match demand with
                | None -> assert false (* excluded above *)
                | Some demand ->
                    List.filter_map
                      (fun settings ->
                        dynamic_minimum ~option ~settings ~demand
                          ~limit:n_hi_cap)
                      grid
                    |> List.sort_uniq Stdlib.compare
            in
            let triples =
              List.concat_map
                (fun n ->
                  List.concat_map
                    (fun s ->
                      if static_min then [ (n, n, s) ]
                      else
                        List.filter_map
                          (fun m -> if m <= n then Some (n, m, s) else None)
                          minima_set)
                    (List.init (max_spares + 1) Fun.id))
                admissible
            in
            if triples = [] then
              Error "cannot deliver the demand at any size"
            else
              let n_lo = List.fold_left Stdlib.min max_int admissible in
              let n_hi = List.fold_left Stdlib.max 0 admissible in
              let description =
                Printf.sprintf
                  "%s/%s: n in [%d,%d] within range %s, spares 0..%d, n_min %s"
                  tier_name option.resource n_lo n_hi
                  (Model.Int_range.to_string option.n_active)
                  max_spares
                  (if static_min then "= n"
                   else
                     "in {"
                     ^ String.concat ","
                         (List.map string_of_int
                            (List.sort_uniq Stdlib.compare
                               (List.map (fun (_, m, _) -> m) triples)))
                     ^ "}")
              in
              Ok (triples, description)))

let analyze_option ~infra ~tier_name ~(option : Model.Service.resource_option)
    ~demand ~budget_fraction ?(max_extra = 8) ?(max_spares = 3) () =
  match analyzer ~infra ~tier_name ~option with
  | None ->
      unanalyzable ~tier_name ~option
        "outside the analyzable fragment (a repair mechanism provides no \
         mttr, or the resource is unknown)"
  | Some an -> (
      match
        region_triples ~infra ~tier_name ~option ~demand ~max_extra ~max_spares
      with
      | Error note -> unanalyzable ~tier_name ~option note
      | Ok (triples, description) ->
          let bounds =
            List.map
              (fun (n, m, s) ->
                ((n, m, s), downtime_interval an ~n_active:n ~n_min:m ~n_spare:s))
              triples
          in
          let best_design, best =
            List.fold_left
              (fun ((_, b) as acc) (d, iv) ->
                if Interval.lo iv < b then (d, Interval.lo iv) else acc)
              (fst (List.hd bounds), infinity)
              bounds
          in
          let worst_design, worst =
            List.fold_left
              (fun ((_, b) as acc) (d, iv) ->
                if Interval.hi iv > b then (d, Interval.hi iv) else acc)
              (fst (List.hd bounds), neg_infinity)
              bounds
          in
          let hull =
            List.fold_left
              (fun acc (_, iv) -> Interval.hull acc iv)
              (snd (List.hd bounds))
              bounds
          in
          let verdict =
            match budget_fraction with
            | None -> None
            | Some budget ->
                let bound_fact (n, m, s) =
                  Certificate.Downtime_bound
                    {
                      design = design_label ~n_active:n ~n_min:m ~n_spare:s;
                      fraction =
                        (let (n', m', s') = (n, m, s) in
                         downtime_interval an ~n_active:n' ~n_min:m'
                           ~n_spare:s');
                    }
                in
                let base_facts corner_design =
                  Certificate.Region { description }
                  :: Certificate.Budget { fraction = budget }
                  :: bound_fact corner_design
                  :: class_facts an
                       ~spares:(match corner_design with _, _, s -> s > 0)
                in
                if best > budget then
                  Some
                    (Infeasible
                       (Certificate.make
                          (Certificate.Infeasible
                             {
                               tier = tier_name;
                               resource = option.resource;
                               budget_fraction = budget;
                               best_case_fraction = best;
                             })
                          (base_facts best_design)))
                else if worst <= budget then
                  Some
                    (Trivially_satisfiable
                       (Certificate.make
                          (Certificate.Trivially_satisfiable
                             {
                               tier = tier_name;
                               resource = option.resource;
                               budget_fraction = budget;
                               worst_case_fraction = worst;
                             })
                          (base_facts worst_design)))
                else Some Inconclusive
          in
          {
            rp_tier = tier_name;
            rp_resource = option.resource;
            rp_bounds = Some hull;
            rp_region = description;
            rp_note = None;
            rp_verdict = verdict;
          })

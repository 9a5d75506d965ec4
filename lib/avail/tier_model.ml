module Duration = Aved_units.Duration
module Model = Aved_model
module Perf_function = Aved_perf.Perf_function

exception Rejected of string

let reject fmt = Printf.ksprintf (fun msg -> raise (Rejected msg)) fmt

type failure_class = {
  label : string;
  rate : float;
  mttr : Duration.t;
  failover_time : Duration.t;
  failover_considered : bool;
  repair_mechanism : string option;
}

type t = {
  tier_name : string;
  n_active : int;
  n_min : int;
  n_spare : int;
  failure_scope : Model.Service.failure_scope;
  classes : failure_class list;
  loss_window : Duration.t option;
  effective_performance : float;
}

let total_failure_rate t =
  List.fold_left (fun acc c -> acc +. c.rate) 0. t.classes

let resource_mtbf t =
  let rate = total_failure_rate t in
  if rate <= 0. then invalid_arg "Tier_model.resource_mtbf: no failures"
  else Duration.of_seconds (1. /. rate)

let tier_mtbf t =
  Duration.scale (1. /. float_of_int t.n_active) (resource_mtbf t)

let mean_repair_time t =
  let rate = total_failure_rate t in
  if rate <= 0. then Duration.zero
  else
    Duration.of_seconds
      (List.fold_left
         (fun acc c -> acc +. (c.rate *. Duration.seconds c.mttr))
         0. t.classes
      /. rate)

let slowdown_product ~(option : Model.Service.resource_option) ~settings ~n =
  List.fold_left
    (fun acc (mech_name, impact) ->
      match List.assoc_opt mech_name settings with
      | None ->
          invalid_arg
            (Printf.sprintf
               "Tier_model: no setting for mechanism %s affecting resource %s"
               mech_name option.Model.Service.resource)
      | Some setting -> acc *. Model.Mech_impact.eval impact ~setting ~n)
    1. option.mech_performance

let effective_performance_of ~option ~settings ~n =
  let nominal = Perf_function.eval option.Model.Service.performance ~n in
  nominal /. slowdown_product ~option ~settings ~n

let minimum_actives ~(option : Model.Service.resource_option) ~settings ~demand
    =
  Seq.find
    (fun n -> n > 0 && effective_performance_of ~option ~settings ~n >= demand)
    (Model.Int_range.to_seq option.n_active)

let effective_perf ~option ~(design : Model.Design.tier_design) ~n =
  effective_performance_of ~option ~settings:design.mechanism_settings ~n

let compute_n_min ~(option : Model.Service.resource_option) ~design
    ~demand =
  match (option.sizing, option.failure_scope) with
  | Model.Service.Static, _ | _, Model.Service.Tier_scope ->
      design.Model.Design.n_active
  | Model.Service.Dynamic, Model.Service.Resource_scope -> (
      match demand with
      | None ->
          invalid_arg
            (Printf.sprintf
               "Tier_model: tier %s needs a throughput requirement to derive m"
               design.Model.Design.tier_name)
      | Some demand ->
          let n_active = design.Model.Design.n_active in
          let rec search k =
            if k > n_active then
              reject "Tier_model: tier %s cannot deliver %g with %d resources"
                design.tier_name demand n_active
            else if effective_perf ~option ~design ~n:k >= demand then k
            else search (k + 1)
          in
          search 1)

let repair_time ~infra ~settings ~tier_name (fm : Model.Component.failure_mode)
    =
  match fm.repair with
  | Model.Component.Fixed_repair d -> d
  | Model.Component.Repair_by_mechanism mech_name -> (
      let mech = Model.Infrastructure.mechanism_exn infra mech_name in
      match List.assoc_opt mech_name settings with
      | None ->
          invalid_arg
            (Printf.sprintf
               "Tier_model: design %s lacks a setting for mechanism %s"
               tier_name mech_name)
      | Some setting -> (
          match Model.Mechanism.mttr_of mech setting with
          | Some d -> d
          | None ->
              invalid_arg
                (Printf.sprintf "Tier_model: mechanism %s provides no mttr"
                   mech_name)))

let component_loss_window ~infra ~settings ~tier_name (c : Model.Component.t) =
  match c.loss_window with
  | Model.Component.No_loss_window -> None
  | Model.Component.Fixed_loss_window d -> Some d
  | Model.Component.Loss_window_by_mechanism mech_name -> (
      let mech = Model.Infrastructure.mechanism_exn infra mech_name in
      match List.assoc_opt mech_name settings with
      | None ->
          invalid_arg
            (Printf.sprintf
               "Tier_model: design %s lacks a setting for mechanism %s"
               tier_name mech_name)
      | Some setting -> Model.Mechanism.loss_window_of mech setting)

(* The failure classes of a resource under fixed mechanism settings and
   spare-active set. Everything here is independent of the resource
   counts except [failover_considered], which flips with the presence of
   spares — hence the [has_spares] parameter, letting the skeleton cache
   both variants. *)
let classes_of ~infra ~(resource : Model.Resource.t) ~settings ~tier_name
    ~spare_active ~has_spares =
  (* Components inactive in a spare, whose startup makes up failover time. *)
  let inactive_in_spare =
    List.filter
      (fun c -> not (List.mem c spare_active))
      (Model.Resource.component_names resource)
  in
  let failover_base =
    Duration.add resource.reconfig_time
      (Model.Resource.startup_time_of resource inactive_in_spare)
  in
  List.concat_map
    (fun (element : Model.Resource.element) ->
      let c = Model.Infrastructure.component_exn infra element.component in
      List.map
        (fun (fm : Model.Component.failure_mode) ->
          let repair = repair_time ~infra ~settings ~tier_name fm in
          let restart = Model.Resource.restart_time resource element.component in
          let mttr = Duration.add fm.detect_time (Duration.add repair restart) in
          let failover_time = Duration.add fm.detect_time failover_base in
          {
            label = element.component ^ "/" ^ fm.mode_name;
            rate = 1. /. Duration.seconds fm.mtbf;
            mttr;
            failover_time;
            failover_considered =
              has_spares && Duration.compare mttr failover_time > 0;
            repair_mechanism =
              (match fm.repair with
              | Model.Component.Fixed_repair _ -> None
              | Model.Component.Repair_by_mechanism mech -> Some mech);
          })
        c.failure_modes)
    resource.elements

let loss_window_of ~infra ~resource ~settings ~tier_name =
  List.fold_left
    (fun acc c ->
      match (acc, component_loss_window ~infra ~settings ~tier_name c) with
      | None, lw | lw, None -> lw
      | Some a, Some b -> Some (Duration.max a b))
    None
    (Model.Infrastructure.resource_components infra resource)

let build ~infra ~(option : Model.Service.resource_option)
    ~(design : Model.Design.tier_design) ~demand =
  if not (String.equal option.resource design.resource) then
    invalid_arg
      (Printf.sprintf "Tier_model: option is for %s, design uses %s"
         option.resource design.resource);
  let resource = Model.Infrastructure.resource_exn infra design.resource in
  let n_active = design.n_active in
  let n_min = compute_n_min ~option ~design ~demand in
  let classes =
    classes_of ~infra ~resource ~settings:design.mechanism_settings
      ~tier_name:design.tier_name ~spare_active:design.spare_active_components
      ~has_spares:(design.n_spare > 0)
  in
  let loss_window =
    loss_window_of ~infra ~resource ~settings:design.mechanism_settings
      ~tier_name:design.tier_name
  in
  let effective_performance =
    effective_perf ~option ~design ~n:n_active
  in
  (match demand with
  | Some d when effective_performance < d ->
      reject "Tier_model: tier %s delivers %g < required %g with %d resources"
        design.tier_name effective_performance d n_active
  | Some _ | None -> ());
  {
    tier_name = design.tier_name;
    n_active;
    n_min;
    n_spare = design.n_spare;
    failure_scope = option.failure_scope;
    classes;
    loss_window;
    effective_performance;
  }

(* A tier model factored by what actually varies inside the inner search
   loop. For one (option, mechanism settings, spare-active set) the
   failure classes, loss window, per-resource costs and the effective
   performance curve are all fixed; only the resource counts (n, s) and
   the derived m change per candidate. [make] does the expensive
   derivations once; [instantiate] replays [build]'s arithmetic on the
   cached pieces — same operations in the same order, so the resulting
   model is bitwise identical to a fresh [build], including the
   [Rejected] messages. *)
module Skeleton = struct
  module Money = Aved_units.Money

  type tier = t

  (* What [instantiate]'s linear scan for the minimum m has established
     about a demand so far: either the smallest count that meets it —
     minimal over ALL counts, since the scan always starts at 1 — or
     that no count up to the recorded bound does. *)
  type dynamic_min = Found of int | Exhausted_below of int

  type t = {
    tier_name : string;
    option : Model.Service.resource_option;
    settings : (string * Model.Mechanism.setting) list;
    mutable eff : Float.Array.t;
        (* n -> effective performance, nan where not computed yet *)
    (* The last demand each derivation below saw, with its answer. A
       search keeps one demand throughout, so one slot keeps its hits,
       and memory stays bounded however many demands a daemon serves;
       both are pure, so a miss only recomputes. *)
    mutable min_actives : (float * int option) option; (* minimum actives *)
    mutable n_min_dynamic : (float * dynamic_min) option;
        (* progress of [n_min]'s m-derivation, which scans every
           count from 1 (not just the option's range). *)
    classes_spare : failure_class list;
    classes_nospare : failure_class list;
    loss_window : Duration.t option;
    active_cost : Money.t; (* annual cost of one active resource *)
    spare_cost : Money.t; (* annual cost of one spare resource *)
  }

  let make ~infra ~tier_name ~(option : Model.Service.resource_option)
      ~settings ~spare_active =
    let resource = Model.Infrastructure.resource_exn infra option.resource in
    let active_cost, spare_cost =
      Model.Design.resource_costs infra ~tier_name ~resource:option.resource
        ~mechanism_settings:settings ~spare_active_components:spare_active
    in
    {
      tier_name;
      option;
      settings;
      eff = Float.Array.create 0;
      min_actives = None;
      n_min_dynamic = None;
      classes_spare =
        classes_of ~infra ~resource ~settings ~tier_name ~spare_active
          ~has_spares:true;
      classes_nospare =
        classes_of ~infra ~resource ~settings ~tier_name ~spare_active
          ~has_spares:false;
      loss_window = loss_window_of ~infra ~resource ~settings ~tier_name;
      active_cost;
      spare_cost;
    }

  (* Counts below this are memoized in [eff], which grows to the
     largest one asked for; the search asks for counts near the
     fewest that meet the demand. *)
  let eff_limit = 4096

  let effective_performance skel ~n =
    let known = Float.Array.length skel.eff in
    let v = if n >= 0 && n < known then Float.Array.get skel.eff n else nan in
    if Float.is_nan v then begin
      let v =
        effective_performance_of ~option:skel.option ~settings:skel.settings ~n
      in
      if n >= 0 && n < eff_limit then begin
        if n >= known then begin
          let size = Stdlib.min eff_limit (Stdlib.max (n + 1) (2 * known)) in
          let grown = Float.Array.make size nan in
          Float.Array.blit skel.eff 0 grown 0 known;
          skel.eff <- grown
        end;
        Float.Array.set skel.eff n v
      end;
      v
    end
    else v

  let minimum_actives skel ~demand =
    match skel.min_actives with
    | Some (memo, answer) when Float.equal memo demand -> answer
    | Some _ | None ->
        let answer =
          Seq.find
            (fun n -> n > 0 && effective_performance skel ~n >= demand)
            (Model.Int_range.to_seq skel.option.n_active)
        in
        skel.min_actives <- Some (demand, answer);
        answer

  let active_cost skel = skel.active_cost
  let spare_cost skel = skel.spare_cost

  let tier_cost skel ~n_active ~n_spare =
    Money.add
      (Money.scale (float_of_int n_active) skel.active_cost)
      (Money.scale (float_of_int n_spare) skel.spare_cost)

  let classes skel ~spares =
    if spares then skel.classes_spare else skel.classes_nospare

  let failure_scope skel = skel.option.Model.Service.failure_scope

  (* [n_min]'s m-derivation under dynamic sizing and resource scope,
     where [demand] is the tier's throughput requirement. *)
  let dynamic_n_min skel ~n_active ~demand =
    let reject_at_bound () =
      reject "Tier_model: tier %s cannot deliver %g with %d resources"
        skel.tier_name demand n_active
    in
    let rec search k =
      if k > n_active then begin
        skel.n_min_dynamic <- Some (demand, Exhausted_below n_active);
        reject_at_bound ()
      end
      else if effective_performance skel ~n:k >= demand then begin
        skel.n_min_dynamic <- Some (demand, Found k);
        k
      end
      else search (k + 1)
    in
    (* The scan is monotone in k, so earlier answers transfer: a
       [Found] below the current bound is THE minimum, a [Found] above
       it or an exhausted prefix covering the bound means rejection,
       and a shorter exhausted prefix lets the scan resume where it
       stopped. Skipped re-evaluations are memoized pure lookups, so
       the outcome — including the rejection message, which quotes the
       current bound — is bitwise unchanged. *)
    match skel.n_min_dynamic with
    | Some (memo, progress) when Float.equal memo demand -> (
        match progress with
        | Found k when k <= n_active -> k
        | Found _ -> reject_at_bound ()
        | Exhausted_below bound ->
            if n_active <= bound then reject_at_bound ()
            else search (bound + 1))
    | Some _ | None -> search 1

  let n_min skel ~n_active ~demand =
    let n_min =
      match (skel.option.sizing, skel.option.failure_scope) with
      | Model.Service.Static, _ | _, Model.Service.Tier_scope -> n_active
      | Model.Service.Dynamic, Model.Service.Resource_scope -> (
          match demand with
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Tier_model: tier %s needs a throughput requirement to \
                    derive m"
                   skel.tier_name)
          | Some demand -> (
              (* The search's common case, answered without allocating. *)
              match skel.n_min_dynamic with
              | Some (memo, Found k)
                when Float.equal memo demand && k <= n_active ->
                  k
              | Some _ | None -> dynamic_n_min skel ~n_active ~demand))
    in
    (match demand with
    | Some d ->
        let effective_performance = effective_performance skel ~n:n_active in
        if effective_performance < d then
          reject
            "Tier_model: tier %s delivers %g < required %g with %d resources"
            skel.tier_name effective_performance d n_active
    | None -> ());
    n_min

  let instantiate skel ~n_active ~n_spare ~demand : tier =
    let n_min = n_min skel ~n_active ~demand in
    let effective_performance = effective_performance skel ~n:n_active in
    {
      tier_name = skel.tier_name;
      n_active;
      n_min;
      n_spare;
      failure_scope = skel.option.failure_scope;
      classes = (if n_spare > 0 then skel.classes_spare else skel.classes_nospare);
      loss_window = skel.loss_window;
      effective_performance;
    }
end

let pp ppf t =
  Format.fprintf ppf
    "@[<v 2>tier %s: n=%d m=%d s=%d perf=%g scope=%s" t.tier_name t.n_active
    t.n_min t.n_spare t.effective_performance
    (match t.failure_scope with
    | Model.Service.Resource_scope -> "resource"
    | Model.Service.Tier_scope -> "tier");
  List.iter
    (fun c ->
      Format.fprintf ppf "@,%s: rate=%.3e/s mttr=%a failover=%a%s" c.label
        c.rate Duration.pp c.mttr Duration.pp c.failover_time
        (if c.failover_considered then " (failover)" else ""))
    t.classes;
  (match t.loss_window with
  | Some lw -> Format.fprintf ppf "@,loss window: %a" Duration.pp lw
  | None -> ());
  Format.fprintf ppf "@]"

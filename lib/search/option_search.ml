module Duration = Aved_units.Duration
module Money = Aved_units.Money
module Model = Aved_model
module Avail = Aved_avail
module Pool = Aved_parallel.Pool
module Incumbent = Aved_parallel.Incumbent
module Telemetry = Aved_telemetry.Telemetry

type 'c kind = {
  start : tier_name:string -> Model.Service.resource_option -> int option;
  limit : Model.Service.resource_option -> start:int -> int;
  actives :
    Model.Service.resource_option ->
    total:int ->
    (Eval_cache.entry -> int list) option;
  demand : float option;
  measure_of :
    Eval_cache.entry -> n_active:int -> n_spare:int -> float -> float;
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
  min_cost : float;
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
   rejected by the model builder. Its design record, and the [fate]
   of its cost, are built inside the thunk, so only a bound trail pays
   for them. *)
let unevaluated ~tier_name ~(option : Model.Service.resource_option)
    ~settings ~spare_active entry ~n_active ~n_spare fate =
  Provenance.note (fun () ->
      let cost = Eval_cache.tier_cost entry ~n_active ~n_spare in
      {
        Provenance.tier = tier_name;
        design =
          Model.Design.tier_design ~tier_name ~resource:option.resource
            ~n_active ~n_spare ~spare_active_components:spare_active
            ~mechanism_settings:settings ();
        cost;
        downtime = None;
        execution_time = None;
        fate = fate cost;
      })

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

(* The candidate of one design, built only for designs a search
   keeps. *)
let candidate kind ~tier_name ~(option : Model.Service.resource_option)
    ~settings ~spare_active entry ~n_active ~n_spare measure =
  kind.make
    (Model.Design.tier_design ~tier_name ~resource:option.resource ~n_active
       ~n_spare ~spare_active_components:spare_active
       ~mechanism_settings:settings ())
    (Eval_cache.model entry ~n_active ~n_spare ~demand:kind.demand)
    (Eval_cache.tier_cost entry ~n_active ~n_spare)
    measure

(* One mechanism-settings combination at one total resource count:
   every admissible active count and spare operational mode, in
   enumeration order. Each design is evaluated as two floats, its cost
   and its measure, with no design record, model or candidate built;
   [evaluated] gets those that pass the cost cap and the model builder,
   with the index of their spare mode. Designs costing more than
   [cost_cap] are skipped without evaluation; equal cost is kept so
   ties can be broken toward the better measure deterministically.
   Returns the least cost over ALL designs of the combination —
   including those pruned by [cost_cap] or rejected by the model
   builder — so the caller's stopping rule does not depend on how much
   work the cap happened to save (a prerequisite for
   schedule-independent parallel search). Skips count as pruned by
   the incumbent, or as outside the window when [windowed]. *)
let eval_settings config kind ~tier_name
    ~(option : Model.Service.resource_option) ~total ~actives ?cost_cap
    ?(windowed = false) ~evaluated:on_evaluated (settings, base_entry) =
  let cap =
    match cost_cap with Some cap -> Money.to_float cap | None -> Float.infinity
  in
  let cheapest = ref Float.infinity in
  let generated = ref 0
  and evaluated = ref 0
  and pruned = ref 0
  and rejected = ref 0 in
  let design ~n_active ~n_spare ~mode ~spare_active entry =
    let skel = Eval_cache.skeleton entry in
    (* [Skeleton.tier_cost]'s operations, without boxing the result. *)
    let cost =
      (float_of_int n_active
      *. Money.to_float (Avail.Tier_model.Skeleton.active_cost skel))
      +. float_of_int n_spare
         *. Money.to_float (Avail.Tier_model.Skeleton.spare_cost skel)
    in
    incr generated;
    if cost < !cheapest then cheapest := cost;
    if cost > cap then begin
      incr pruned;
      unevaluated ~tier_name ~option ~settings ~spare_active entry ~n_active
        ~n_spare (fun cost ->
          Over_cost_cap { excess = Money.sub cost (Option.get cost_cap) })
    end
    else
      (* Only genuine model rejections are caught and counted
         ({!Aved_avail.Tier_model.Rejected}); an [Invalid_argument]
         here is a programming error and propagates. *)
      match
        kind.measure_of entry ~n_active ~n_spare
          (Eval_cache.downtime entry ~n_active ~n_spare ~demand:kind.demand)
      with
      | measure ->
          incr evaluated;
          on_evaluated ~mode ~spare_active entry ~n_active ~n_spare cost measure
      | exception Avail.Tier_model.Rejected reason ->
          incr rejected;
          unevaluated ~tier_name ~option ~settings ~spare_active entry ~n_active
            ~n_spare (fun _ -> Rejected_by_model { reason })
  in
  let rec modes ~n_active ~n_spare mode = function
    | [] -> ()
    | (spare_active, entry) :: rest ->
        design ~n_active ~n_spare ~mode ~spare_active entry;
        modes ~n_active ~n_spare (mode + 1) rest
  in
  List.iter
    (fun n_active ->
      let n_spare = total - n_active in
      modes ~n_active ~n_spare 0 (spare_modes config base_entry ~n_spare))
    (actives base_entry);
  Search_metrics.flush ~tier_name ~generated:!generated ~evaluated:!evaluated
    ~pruned:(if windowed then 0 else !pruned)
    ~windowed:(if windowed then !pruned else 0)
    ~rejected:!rejected;
  !cheapest

(* What one mechanism-settings combination contributes to a [batch]:
   every evaluated candidate, or the best one within the bound. The
   latter builds a candidate only for a design that beats the kept
   one on (cost, measure), or ties it exactly, when [kind.compare]
   decides. *)
type 'c tally = {
  mutable kept : 'c list;  (* newest first *)
  mutable least_seen : float;
  mutable cheapest : float;
}

let tally_settings config kind ~tier_name ~option ~total ~actives ~keep
    ?cost_cap ((settings, _) as pair) =
  let tally =
    { kept = []; least_seen = Float.infinity; cheapest = Float.infinity }
  in
  let build ~spare_active entry ~n_active ~n_spare m =
    candidate kind ~tier_name ~option ~settings ~spare_active entry ~n_active
      ~n_spare m
  in
  let evaluated ~mode:_ ~spare_active entry ~n_active ~n_spare cost m =
    if m < tally.least_seen then tally.least_seen <- m;
    match keep with
    | All ->
        tally.kept <-
          build ~spare_active entry ~n_active ~n_spare m :: tally.kept
    | Best_within bound -> (
        if m <= bound then
          match tally.kept with
          | [] ->
              tally.kept <- [ build ~spare_active entry ~n_active ~n_spare m ]
          | b :: _ ->
              let b_cost = Money.to_float (kind.cost b) in
              if cost < b_cost || (cost = b_cost && m < kind.measure b) then
                tally.kept <- [ build ~spare_active entry ~n_active ~n_spare m ]
              else if cost = b_cost && m = kind.measure b then
                let c = build ~spare_active entry ~n_active ~n_spare m in
                if kind.compare c b < 0 then tally.kept <- [ c ])
  in
  tally.cheapest <-
    eval_settings config kind ~tier_name ~option ~total ~actives ?cost_cap
      ~evaluated pair;
  tally

(* [f] over the option's mechanism-settings combinations, fanned out
   over the pool when one is given. Cache entries are domain-local: a
   task running on another domain than the caller's resolves the
   entry in its own cache. The results come back in settings order. *)
let map_settings ?pool ~infra ~tier_name ~option f =
  let home = Domain.self () in
  Pool.fan_out ?pool
    (fun ((settings, _) as pair) ->
      if Domain.self () = home then f pair
      else
        f
          ( settings,
            Eval_cache.entry ~infra ~tier_name ~option ~settings
              ~spare_active:[] ))
    (Eval_cache.settings_entries ~infra ~tier_name ~option)

let enumerate ?pool config infra kind ~tier_name ~option ~total ~keep
    ?cost_cap () =
  match kind.actives option ~total with
  | None ->
      { candidates = []; least = Float.infinity; min_cost = Float.infinity }
  | Some actives ->
      let tallies =
        map_settings ?pool ~infra ~tier_name ~option
          (tally_settings config kind ~tier_name ~option ~total ~actives ~keep
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
          List.fold_left
            (fun acc t -> if t.cheapest < acc then t.cheapest else acc)
            Float.infinity tallies;
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
  match kind.start ~tier_name option with
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
            if Money.to_float (kind.cost b) <= batch.min_cost then
              stop := true)
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

(* A frontier design's place in its task: mechanism-settings index,
   spare-mode index and active count, packed into one int. *)
let n_active_bits = 21
let mode_bits = 12

let pack ~settings ~mode ~n_active =
  if n_active >= 1 lsl n_active_bits || mode >= 1 lsl mode_bits then
    invalid_arg "Option_search.frontier: design index out of range"
  else (((settings lsl mode_bits) lor mode) lsl n_active_bits) lor n_active

let frontier_inserted = Telemetry.Counter.make "search.frontier.inserted"

(* Lower [a] to [v] unless it already holds less. *)
let rec lower a v =
  let current = Atomic.get a in
  if v < current && not (Atomic.compare_and_set a current v) then lower a v

let frontier ?pool ?cost_cap config infra kind ~(tier : Model.Service.tier) =
  with_pool ?pool config @@ fun pool ->
  let tier_name = tier.tier_name in
  let cap =
    match cost_cap with Some cap -> Money.to_float cap | None -> Float.infinity
  in
  let options = Array.of_list tier.options in
  let tasks =
    Array.of_list
      (List.concat
         (List.mapi
            (fun o option ->
              match kind.start ~tier_name option with
              | None -> []
              | Some start ->
                  let limit = kind.limit option ~start in
                  List.init
                    (Stdlib.max 0 (limit - start + 1))
                    (fun i -> (o, start + i)))
            tier.options))
  in
  (* over.(o): the least total of option [o] seen whose cheapest design
     costs more than the cap. An option's cheapest design never gets
     cheaper as its total grows, so no later total holds a design
     under the cap, and its task is skipped. Which totals are skipped
     can depend on scheduling, the skyline cannot: they hold no point
     under the cap. *)
  let over = Array.map (fun _ -> Atomic.make max_int) options in
  let cheapest = Float.Array.make (Array.length tasks) Float.infinity in
  (* One skyline per (option, total) task, fed in enumeration order,
     merged in task order: the skyline of the whole enumeration. *)
  let skyline task =
    let sky = Skyline.create () in
    let o, total = tasks.(task) in
    let option = options.(o) in
    (match kind.actives option ~total with
    | Some actives when total < Atomic.get over.(o) ->
        List.iteri
          (fun settings pair ->
            let least =
              eval_settings config kind ~tier_name ~option ~total ~actives
                ?cost_cap ~windowed:true
                ~evaluated:(fun ~mode ~spare_active:_ _ ~n_active ~n_spare:_
                                cost measure ->
                  Skyline.insert sky ~cost ~measure ~task
                    ~design:(pack ~settings ~mode ~n_active))
                pair
            in
            if least < Float.Array.get cheapest task then
              Float.Array.set cheapest task least)
          (Eval_cache.settings_entries ~infra ~tier_name ~option);
        let least = Float.Array.get cheapest task in
        if cap < least && least < Float.infinity then lower over.(o) total
    | Some _ | None -> ());
    sky
  in
  let sky =
    Skyline.merge
      (Pool.fan_out ~pool skyline (List.init (Array.length tasks) Fun.id))
  in
  Telemetry.Counter.add frontier_inserted (Skyline.inserted sky);
  (* Only the survivors get a design record, a model and a candidate. *)
  List.init (Skyline.length sky) (fun i ->
      let o, total = tasks.(Skyline.task sky i) in
      let option = options.(o) in
      let bits = Skyline.design sky i in
      let n_active = bits land ((1 lsl n_active_bits) - 1) in
      let mode = (bits lsr n_active_bits) land ((1 lsl mode_bits) - 1) in
      let settings, base =
        List.nth
          (Eval_cache.settings_entries ~infra ~tier_name ~option)
          (bits lsr (n_active_bits + mode_bits))
      in
      let n_spare = total - n_active in
      let spare_active, entry =
        List.nth (spare_modes config base ~n_spare) mode
      in
      candidate kind ~tier_name ~option ~settings ~spare_active entry ~n_active
        ~n_spare (Skyline.measure sky i))

module Duration = Aved_units.Duration
module Money = Aved_units.Money
module Model = Aved_model
module Pool = Aved_parallel.Pool
module Incumbent = Aved_parallel.Incumbent
module Telemetry = Aved_telemetry.Telemetry

let combos_tested = Telemetry.Counter.make "search.service.combos_tested"
let combine_visited = Telemetry.Counter.make "search.service.combine.visited"
let phase2_rounds = Telemetry.Counter.make "search.service.phase2.rounds"

type tier_outcome = {
  candidate : Candidate.t;
  tier : Model.Service.tier;
}

type report = {
  design : Model.Design.t;
  cost : Money.t;
  downtime : Duration.t option;
  execution_time : Duration.t option;
}

let series_downtime_fraction candidates =
  let up =
    List.fold_left
      (fun acc (c : Candidate.t) -> acc *. (1. -. c.downtime_fraction))
      1. candidates
  in
  1. -. up

let enterprise_report ~service_name candidates =
  let cost =
    Money.sum (List.map (fun (c : Candidate.t) -> c.Candidate.cost) candidates)
  in
  {
    design =
      Model.Design.make ~service_name
        ~tiers:(List.map (fun (c : Candidate.t) -> c.Candidate.design) candidates);
    cost;
    downtime = Some (Duration.of_years (series_downtime_fraction candidates));
    execution_time = None;
  }

(* A combination is identified by its index path through the frontier
   arrays. The total order (cost, then lexicographic path) makes the
   selected combination independent of exploration schedule: equal-cost
   combinations always resolve to the smallest path. *)
let combo_better (cost_a, path_a) (cost_b, path_b) =
  match Float.compare cost_a cost_b with
  | 0 -> List.compare Int.compare path_a path_b < 0
  | c -> c < 0

(* Exact minimum-cost selection of one frontier point per tier subject
   to the series downtime budget; the three rules that keep it from
   scanning the product are in the interface. Two facts they rest on:
   [affordable] sums the cheapest completion in the same left-to-right
   order as [leaf]'s cost, so under monotone rounding it never exceeds
   the cost of a combination below; and depth-first order visits a
   branch's paths in lexicographic order, so a branch keeps its first
   leaf of least cost, which is why equal cost is never pruned. The
   top-level fan-out is over the first tier's frontier points; the
   branch results are merged under {!combo_better}. Checks and leaves
   are counted in local ints and flushed once per branch. *)
let combine_frontiers ?pool frontiers ~budget_fraction =
  let arrays = Array.of_list (List.map Array.of_list frontiers) in
  let n = Array.length arrays in
  if n = 0 then if 0. <= budget_fraction then Some [] else None
  else if Array.exists (fun points -> Array.length points = 0) arrays then None
  else begin
    (* min_downtimes.(i): over tiers i.. , the product of
       (1 - best achievable downtime). *)
    let min_downtimes = Array.make (n + 1) 1. in
    for i = n - 1 downto 0 do
      let points = arrays.(i) in
      let best = points.(Array.length points - 1).Candidate.downtime_fraction in
      min_downtimes.(i) <- (1. -. best) *. min_downtimes.(i + 1)
    done;
    let cheapest =
      Array.map (fun points -> Money.to_float points.(0).Candidate.cost) arrays
    in
    let shared = Incumbent.create () in
    let explore_from first_idx =
      let best_cost = ref Float.infinity and best_path = ref None in
      let path = Array.make n first_idx in
      let visited = ref 0 and tested = ref 0 in
      (* Can a point of tier [idx] that brings the running cost to
         [cost] still lead to a combination no costlier than the
         incumbent? *)
      let affordable idx cost =
        incr visited;
        let completion = ref cost in
        for j = idx + 1 to n - 1 do
          completion := !completion +. cheapest.(j)
        done;
        !completion <= Float.min !best_cost (Incumbent.get shared)
      in
      (* Even with the best remaining tiers, can the budget hold? *)
      let feasible idx up_so_far (c : Candidate.t) =
        incr visited;
        1. -. (up_so_far *. (1. -. c.downtime_fraction) *. min_downtimes.(idx + 1))
        <= budget_fraction
      in
      let leaf cost =
        incr tested;
        if cost < !best_cost then begin
          best_cost := cost;
          best_path := Some (Array.to_list path);
          Incumbent.propose shared cost
        end
      in
      (* Returns the first feasible index of tier [idx], which is at
         most [bound]: across siblings at the level above, cost rises
         and downtime falls, so the running uptime only rises and the
         first feasible index of the tier below only falls. Each
         bisection is bounded by the previous sibling's answer. *)
      let rec level idx cost_so_far up_so_far ~bound =
        let points = arrays.(idx) in
        let len = Array.length points in
        let cost i = cost_so_far +. Money.to_float points.(i).Candidate.cost in
        let lo = ref 0 and hi = ref bound in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if feasible idx up_so_far points.(mid) then hi := mid
          else lo := mid + 1
        done;
        if idx = n - 1 then begin
          if !lo < len && affordable idx (cost !lo) then begin
            path.(idx) <- !lo;
            leaf (cost !lo)
          end
        end
        else begin
          let below = ref (Array.length arrays.(idx + 1)) in
          let i = ref !lo in
          while !i < len && affordable idx (cost !i) do
            let c = points.(!i) in
            path.(idx) <- !i;
            below :=
              level (idx + 1) (cost !i)
                (up_so_far *. (1. -. c.Candidate.downtime_fraction))
                ~bound:!below;
            incr i
          done
        end;
        !lo
      in
      let c = arrays.(0).(first_idx) in
      let cost = Money.to_float c.Candidate.cost in
      if affordable 0 cost && feasible 0 1. c then
        if n = 1 then leaf cost
        else
          ignore
            (level 1 cost
               (1. -. c.Candidate.downtime_fraction)
               ~bound:(Array.length arrays.(1)));
      if Telemetry.enabled () then begin
        Telemetry.Counter.add combine_visited !visited;
        Telemetry.Counter.add combos_tested !tested
      end;
      Option.map (fun path -> (!best_cost, path)) !best_path
    in
    let tasks = List.init (Array.length arrays.(0)) Fun.id in
    let results = Pool.fan_out ?pool explore_from tasks in
    List.fold_left
      (fun acc r ->
        match (acc, r) with
        | None, r | r, None -> r
        | Some a, Some b -> if combo_better b a then Some b else Some a)
      None results
    |> Option.map (fun (_, path) ->
           List.mapi (fun idx i -> arrays.(idx).(i)) path)
  end

(* Provenance of the frontier combination: for every tier, each
   frontier point cheaper than the chosen one would — with the other
   tiers' choices held fixed — push the series downtime over the
   budget. Record by how much, so the combination step is auditable
   tier by tier. Runs only when a trail is bound, after the
   combination, and never influences the selection. *)
let note_budget_swaps tiers frontiers chosen ~budget_fraction =
  let chosen = Array.of_list chosen in
  List.iteri
    (fun i frontier ->
      let tier_name =
        (List.nth tiers i).Model.Service.tier_name
      in
      let up_others = ref 1. in
      Array.iteri
        (fun j (c : Candidate.t) ->
          if j <> i then up_others := !up_others *. (1. -. c.downtime_fraction))
        chosen;
      List.iter
        (fun (c : Candidate.t) ->
          if Money.(c.cost < chosen.(i).Candidate.cost) then begin
            let total = 1. -. (!up_others *. (1. -. c.downtime_fraction)) in
            if total > budget_fraction then
              Provenance.note (fun () ->
                  {
                    Provenance.tier = tier_name;
                    design = c.design;
                    cost = c.cost;
                    downtime = Some (Candidate.downtime c);
                    execution_time = None;
                    fate =
                      Over_downtime_budget
                        {
                          excess =
                            Duration.of_years (total -. budget_fraction);
                        };
                  })
          end)
        frontier)
    frontiers

(* Every tier's frontier at [throughput], capped per tier by [caps]
   ([None]: uncapped), fanned out over the tiers. *)
let tier_frontiers ?pool config infra (service : Model.Service.t) ~throughput
    caps =
  Telemetry.with_span "search.service.frontiers" @@ fun () ->
  Pool.fan_out ?pool
    (fun (tier, cost_cap) ->
      Tier_search.frontier ?pool ?cost_cap config infra ~tier
        ~demand:throughput)
    (List.combine service.tiers caps)

(* One round of phase 2: the combination of [frontiers]. *)
let combine_round ?pool frontiers ~budget_fraction =
  Telemetry.Counter.incr phase2_rounds;
  Telemetry.with_span "search.service.combine" @@ fun () ->
  combine_frontiers ?pool frontiers ~budget_fraction

(* The window: the first cost bound C over the sum of the phase-1
   optima, and how often C doubles before the full frontiers decide. A
   count, not a bound on C, so that optima costing nothing end the
   rounds too. *)
let window_start = 1.05
let window_doublings = 1

(* The answer's cost, summed as [combine_frontiers] sums it. *)
let summed_cost candidates =
  List.fold_left
    (fun acc (c : Candidate.t) -> acc +. Money.to_float c.cost)
    0. candidates

(* Phase 2 on frontiers capped to the cost window that can hold the
   answer (see the interface): [Some] answer, or [None] when the
   window cannot decide and the full frontiers must. [optima] are the
   phase-1 optima, tier by tier. *)
let windowed_design ?pool config infra service ~throughput ~budget_fraction
    optima =
  let lo =
    Array.of_list
      (List.map (fun (c : Candidate.t) -> Money.to_float c.cost) optima)
  in
  let n = Array.length lo in
  let sum_lo = Array.fold_left ( +. ) 0. lo in
  (* Tier [i]'s cap under bound [c]: [c] less the other tiers' optima,
     plus the rounding slack of these sums and of the answer's. *)
  let cap c i =
    let others = ref 0. in
    Array.iteri (fun j lo_j -> if j <> i then others := !others +. lo_j) lo;
    Money.of_float
      (c -. !others +. (float_of_int (4 * (n + 1)) *. epsilon_float *. c))
  in
  (* A point cheaper than its tier's optimum that the combination's
     budget test could still pass: [lo] bounds no combination then. *)
  let escapes frontier lo_i =
    let rec scan = function
      | (p : Candidate.t) :: rest when Money.to_float p.cost < lo_i ->
          1. -. (1. -. p.downtime_fraction) <= budget_fraction || scan rest
      | _ -> false
    in
    scan frontier
  in
  let rec round c ~doublings =
    let frontiers =
      tier_frontiers ?pool config infra service ~throughput
        (List.init n (fun i -> Some (cap c i)))
    in
    if List.exists2 escapes frontiers (Array.to_list lo) then None
    else
      match combine_round ?pool frontiers ~budget_fraction with
      | Some chosen when summed_cost chosen <= c -> Some chosen
      | Some _ | None ->
          if doublings = 0 then None
          else round (2. *. c) ~doublings:(doublings - 1)
  in
  round (window_start *. sum_lo) ~doublings:window_doublings

let enterprise_design ?pool config infra (service : Model.Service.t)
    ~throughput ~max_annual_downtime =
  let budget_fraction = Duration.years max_annual_downtime in
  (* Phase 1: each tier in isolation against the full requirement. *)
  let isolated =
    Telemetry.with_span "search.service.isolated" @@ fun () ->
    Pool.fan_out ?pool
      (fun tier ->
        Tier_search.optimal ?pool config infra ~tier ~demand:throughput
          ~max_downtime:max_annual_downtime)
      service.tiers
  in
  if List.for_all Option.is_some isolated then begin
    let candidates = List.filter_map Fun.id isolated in
    if series_downtime_fraction candidates <= budget_fraction then
      Some (enterprise_report ~service_name:service.service_name candidates)
    else begin
      (* Phase 2: per-tier frontiers and their exact combination, in
         the cost window when no trail is bound. *)
      let windowed =
        if Provenance.enabled () then None
        else
          windowed_design ?pool config infra service ~throughput
            ~budget_fraction candidates
      in
      let chosen =
        match windowed with
        | Some _ -> windowed
        | None ->
            let frontiers =
              tier_frontiers ?pool config infra service ~throughput
                (List.map (fun _ -> None) service.tiers)
            in
            let chosen = combine_round ?pool frontiers ~budget_fraction in
            (match chosen with
            | Some chosen when Provenance.enabled () ->
                note_budget_swaps service.tiers frontiers chosen
                  ~budget_fraction
            | Some _ | None -> ());
            chosen
      in
      Option.map (enterprise_report ~service_name:service.service_name) chosen
    end
  end
  else None

let job_design ?pool config infra (service : Model.Service.t) ~job_size
    ~max_time =
  match service.tiers with
  | [ tier ] ->
      Job_search.optimal ?pool config infra ~tier ~job_size ~max_time
      |> Option.map (fun (c : Job_search.candidate) ->
             {
               design =
                 Model.Design.make ~service_name:service.service_name
                   ~tiers:[ c.design ];
               cost = c.cost;
               downtime = None;
               execution_time = Some c.execution_time;
             })
  | _ ->
      invalid_arg
        (Printf.sprintf
           "Service_search: finite job %s must have exactly one tier"
           service.service_name)

let design ?pool config infra (service : Model.Service.t) requirements =
  Option_search.with_pool ?pool config @@ fun pool ->
  match (requirements, service.job_size) with
  | Model.Requirements.Enterprise { throughput; max_annual_downtime }, None ->
      enterprise_design ~pool config infra service ~throughput
        ~max_annual_downtime
  | Model.Requirements.Finite_job { max_execution_time }, Some job_size ->
      job_design ~pool config infra service ~job_size
        ~max_time:max_execution_time
  | Model.Requirements.Enterprise _, Some _ ->
      invalid_arg
        "Service_search: enterprise requirements for a finite job service"
  | Model.Requirements.Finite_job _, None ->
      invalid_arg
        "Service_search: job-time requirement for a service without job_size"

module Duration = Aved_units.Duration
module Money = Aved_units.Money
module Model = Aved_model
module Pool = Aved_parallel.Pool
module Incumbent = Aved_parallel.Incumbent
module Telemetry = Aved_telemetry.Telemetry

let combos_tested = Telemetry.Counter.make "search.service.combos_tested"

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
let combo_better (cost_a, path_a, _) (cost_b, path_b, _) =
  match Money.compare cost_a cost_b with
  | 0 -> List.compare Int.compare path_a path_b < 0
  | c -> c < 0

(* Exact minimum-cost selection of one frontier point per tier subject
   to the series downtime budget. Frontiers are sorted by increasing
   cost (hence decreasing downtime), which gives two prunes: partial
   cost against the incumbent (local best, tightened by the [shared]
   cost of the best combination found by any branch — equal cost is
   never pruned, so tie-breaking stays deterministic), and
   infeasibility even with the lowest-downtime points of the remaining
   tiers. The top-level fan-out is over the first tier's frontier
   points; each branch explores depth-first and the branch results are
   merged under {!combo_better}. *)
let combine_frontiers ?pool frontiers ~budget_fraction =
  let arrays = Array.of_list (List.map Array.of_list frontiers) in
  let n = Array.length arrays in
  (* min_downtimes.(i): over tiers i.. , the product of
     (1 - best achievable downtime). *)
  let min_downtimes = Array.make (n + 1) 1. in
  for i = n - 1 downto 0 do
    let best =
      Array.fold_left
        (fun acc (c : Candidate.t) -> Float.min acc c.Candidate.downtime_fraction)
        Float.infinity arrays.(i)
    in
    min_downtimes.(i) <- (1. -. best) *. min_downtimes.(i + 1)
  done;
  if n = 0 then if 0. <= budget_fraction then Some [] else None
  else begin
    let shared = Incumbent.create () in
    let explore_from first_idx =
      let best = ref None in
      let rec explore idx chosen_rev path_rev cost_so_far up_so_far =
        if idx = n then begin
          Telemetry.Counter.incr combos_tested;
          if 1. -. up_so_far <= budget_fraction then begin
            let entry =
              (cost_so_far, List.rev path_rev, List.rev chosen_rev)
            in
            match !best with
            | Some b when not (combo_better entry b) -> ()
            | Some _ | None ->
                best := Some entry;
                Incumbent.propose shared (Money.to_float cost_so_far)
          end
        end
        else
          Array.iteri
            (fun i (c : Candidate.t) ->
              let cost = Money.add cost_so_far c.cost in
              let bound =
                Float.min
                  (match !best with
                  | Some (bc, _, _) -> Money.to_float bc
                  | None -> Float.infinity)
                  (Incumbent.get shared)
              in
              let up = up_so_far *. (1. -. c.downtime_fraction) in
              (* Even with the best remaining tiers, can the budget
                 hold? *)
              let attainable = up *. min_downtimes.(idx + 1) in
              if
                Money.to_float cost <= bound
                && 1. -. attainable <= budget_fraction
              then explore (idx + 1) (c :: chosen_rev) (i :: path_rev) cost up)
            arrays.(idx)
      in
      let c = arrays.(0).(first_idx) in
      let up = 1. -. c.Candidate.downtime_fraction in
      if 1. -. (up *. min_downtimes.(1)) <= budget_fraction then
        explore 1 [ c ] [ first_idx ] c.Candidate.cost up;
      !best
    in
    let tasks = List.init (Array.length arrays.(0)) Fun.id in
    let results =
      match pool with
      | Some pool when Pool.jobs pool > 1 -> Pool.map pool explore_from tasks
      | Some _ | None -> List.map explore_from tasks
    in
    List.fold_left
      (fun acc r ->
        match (acc, r) with
        | None, r | r, None -> r
        | Some a, Some b -> if combo_better b a then Some b else Some a)
      None results
    |> Option.map (fun (_, _, chosen) -> chosen)
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

let enterprise_design ?pool config infra (service : Model.Service.t)
    ~throughput ~max_annual_downtime =
  let budget_fraction = Duration.years max_annual_downtime in
  let run f l =
    match pool with
    | Some pool when Pool.jobs pool > 1 -> Pool.map pool f l
    | Some _ | None -> List.map f l
  in
  (* Phase 1: each tier in isolation against the full requirement. *)
  let isolated =
    Telemetry.with_span "search.service.isolated" @@ fun () ->
    run
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
      (* Phase 2: refine with per-tier frontiers and exact combination. *)
      let frontiers =
        Telemetry.with_span "search.service.frontiers" @@ fun () ->
        run
          (fun tier ->
            Tier_search.frontier ?pool config infra ~tier ~demand:throughput)
          service.tiers
      in
      if List.exists (fun f -> f = []) frontiers then None
      else begin
        let chosen =
          Telemetry.with_span "search.service.combine" @@ fun () ->
          combine_frontiers ?pool frontiers ~budget_fraction
        in
        (match chosen with
        | Some chosen when Provenance.enabled () ->
            note_budget_swaps service.tiers frontiers chosen ~budget_fraction
        | Some _ | None -> ());
        Option.map
          (enterprise_report ~service_name:service.service_name)
          chosen
      end
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
  let with_pool f =
    match pool with
    | Some pool -> f pool
    | None -> Pool.run ~jobs:config.Search_config.jobs f
  in
  with_pool @@ fun pool ->
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

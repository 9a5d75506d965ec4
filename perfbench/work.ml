(* The requests the ecommerce workload sends, how they are drawn from a
   seed, and how one is answered in-process through the same public
   functions the daemon's handlers call — for the answer check and the
   traced replay. *)

module Json = Aved_explain.Json
module Api = Aved_api.Api
module Protocol = Aved_server.Protocol
module Model = Aved_model
module Duration = Aved_units.Duration
module Search = Aved_search

type kind =
  | Design of { load : float; downtime : float }
  | Frontier of { load : float; tier : string }
  | Explain of { load : float; downtime : float }

type specs = { infra_file : string; service_file : string }

let verb = function
  | Design _ -> Protocol.Design
  | Frontier _ -> Protocol.Frontier
  | Explain _ -> Protocol.Explain

let verb_name k = Protocol.verb_to_string (verb k)

let params specs kind =
  let files =
    [
      ("infra_file", Json.String specs.infra_file);
      ("service_file", Json.String specs.service_file);
    ]
  in
  files
  @
  match kind with
  | Design { load; downtime } | Explain { load; downtime } ->
      [ ("load", Json.Float load); ("downtime_minutes", Json.Float downtime) ]
  | Frontier { load; tier } ->
      [ ("load", Json.Float load); ("tier", Json.String tier) ]

let line specs ~id kind =
  Protocol.request_line ~version:2 ~id:(Json.Int id) (verb kind) (params specs kind)

(* ------------------------------------------------------------------ *)
(* Draws *)

(* E-commerce service (paper Fig. 4): continuous load and downtime. *)
let draw_fresh rng =
  let load = Common.log_uniform rng 200. 4000. in
  let u = Random.State.float rng 1. in
  if u < 0.75 then Design { load; downtime = Common.log_uniform rng 5. 500. }
  else if u < 0.90 then
    Frontier
      { load; tier = (if Random.State.bool rng then "web" else "application") }
  else Explain { load; downtime = Common.log_uniform rng 5. 500. }

(* The eight fixed design points of the hot rounds. *)
let hot_points =
  [|
    Design { load = 500.; downtime = 100. };
    Design { load = 1000.; downtime = 100. };
    Design { load = 1000.; downtime = 20. };
    Design { load = 1500.; downtime = 50. };
    Design { load = 2000.; downtime = 200. };
    Design { load = 2500.; downtime = 10. };
    Design { load = 3000.; downtime = 60. };
    Design { load = 4000.; downtime = 300. };
  |]

(* One lockstep round of the ecommerce workload: two fresh requests, or
   one hot request sent on both connections. *)
let draw_round rng =
  if Random.State.float rng 1. < 0.30 then
    let k = hot_points.(Random.State.int rng (Array.length hot_points)) in
    (true, [| k; k |])
  else (false, [| draw_fresh rng; draw_fresh rng |])

(* ------------------------------------------------------------------ *)
(* In-process answers *)

let requirements = function
  | Design { load; downtime } | Explain { load; downtime } ->
      Model.Requirements.enterprise ~throughput:load
        ~max_annual_downtime:(Duration.of_minutes downtime)
  | Frontier _ -> invalid_arg "Work.requirements: frontier"

type engine = {
  config : Search.Search_config.t;
  pool : Aved_parallel.Pool.t;
  infra : Model.Infrastructure.t;
  service : Model.Service.t;
}

let span = Spans.with_span

(* The result body the daemon renders for [kind], computed through
   Engine.design / Tier_search.frontier / Engine.explain and the Api
   encoders, each call in its own span when [spans] is recording. *)
let answer spans e kind =
  let encode name to_json =
    span spans ("api." ^ name ^ ".encode") (fun () -> Json.to_string (to_json ()))
  in
  match kind with
  | Design _ ->
      let report =
        span spans "search.design" (fun () ->
            Aved.Engine.design ~config:e.config ~pool:e.pool e.infra e.service
              (requirements kind))
      in
      encode "design" (fun () ->
          Api.design_result_to_json ~version:2 (Api.design_result_of_report report))
  | Frontier { load; tier } ->
      let tier = Option.get (Model.Service.find_tier e.service tier) in
      let frontier =
        span spans "search.frontier" (fun () ->
            Search.Tier_search.frontier ~pool:e.pool e.config e.infra ~tier
              ~demand:load)
      in
      encode "frontier" (fun () ->
          Api.frontier_result_to_json ~version:2
            (Api.frontier_result_of_candidates ~tier:tier.Model.Service.tier_name
               ~demand:load frontier))
  | Explain _ ->
      let requirements = requirements kind in
      let trail = Search.Provenance.create () in
      let report =
        span spans "search.design_with_trail" (fun () ->
            Search.Provenance.with_trail trail (fun () ->
                Aved.Engine.design ~config:e.config ~pool:e.pool e.infra e.service
                  requirements))
      in
      let explanation =
        span spans "explain.build" (fun () ->
            Option.map
              (fun report ->
                Aved.Engine.explain ~top:5 ~trail ~config:e.config e.infra e.service
                  requirements report)
              report)
      in
      encode "explain" (fun () ->
          Api.explain_result_to_json ~version:2
            (Api.explain_result_of_explanation explanation))

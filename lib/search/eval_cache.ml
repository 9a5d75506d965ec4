module Model = Aved_model
module Avail = Aved_avail
module Money = Aved_units.Money
module Telemetry = Aved_telemetry.Telemetry

(* One cache entry per (tier, resource option, mechanism settings,
   spare-active set): the tier-model skeleton plus a downtime table
   keyed by the only remaining degrees of freedom, (n_active, n_min,
   n_spare) — exactly the parameter set the availability engines
   consume — packed into one int. Entries live in domain-local
   storage: no locking, and each search domain warms its own cache. *)

(* Each count takes 20 bits (n_active 22), so a key is one immediate
   int and a lookup allocates nothing. The hash folds the three fields
   into the low bits in OCaml, without the C call of [Hashtbl.hash]. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash key = (key lxor (key lsr 20) lxor (key lsr 40)) land max_int
end)

let count_limit = 1 lsl 20

let downtime_key ~n_active ~n_min ~n_spare =
  if
    n_active >= 4 * count_limit
    || n_min >= count_limit
    || n_spare >= count_limit
  then invalid_arg "Eval_cache: resource count above 2^20"
  else (((n_active lsl 20) lor n_min) lsl 20) lor n_spare

type key = {
  tier_name : string;
  option : Model.Service.resource_option;
  settings : (string * Model.Mechanism.setting) list;
  spare_active : string list;
}

type entry = {
  key : key;
  (* The infrastructure the entry was derived from: its spare-mode
     fan-out must be derived from the same one, whatever the domain's
     cache has moved on to since. *)
  infra : Model.Infrastructure.t;
  skel : Avail.Tier_model.Skeleton.t;
  (* Downtime tables for the models this entry instantiates with and
     without spares. Shared across every entry of the domain whose
     skeleton carries equal failure classes under the same failure
     scope — the complete parameter set of the deterministic engines
     beyond (n, m, s) — so a combination that differs only in
     availability-neutral settings (say, a checkpoint interval) reuses
     downtimes computed under another. *)
  downtime_spare : float Itbl.t;
  downtime_nospare : float Itbl.t;
  (* The spare-operational-mode fan-out of this combination, in
     [Resource.downward_closed_subsets] order, resolved lazily: the
     empty mode maps back to this entry itself. *)
  mutable spares : (string list * entry) list option;
}

(* The generic [Hashtbl.hash] samples only the first few leaves of a
   value, and the keys of one resource option share a long common
   prefix — the tier name, the option ASTs, the mechanism and
   parameter names — so every settings combination would land in one
   bucket and each lookup would pay a linear scan with structural
   compares. Hash by folding over EVERY settings leaf instead, so the
   discriminating values (e.g. a checkpoint interval deep inside the
   last mechanism) always reach the accumulator; equality stays full
   structural equality, which is cheap in practice because the search
   threads physically shared option and name values. *)
module Key = struct
  type t = key

  let equal (a : key) (b : key) = a = b

  let hash (k : key) =
    let h = ref (Hashtbl.hash (k.tier_name, k.option.Model.Service.resource)) in
    let mix x = h := (!h * 131) + Hashtbl.hash x in
    List.iter
      (fun (mech, setting) ->
        mix mech;
        List.iter
          (fun (param, value) ->
            mix param;
            match value with
            | Model.Mechanism.Enum_value s -> mix s
            | Model.Mechanism.Duration_value d ->
                mix (Aved_units.Duration.seconds d))
          setting)
      k.settings;
    List.iter mix k.spare_active;
    !h land max_int
end

module Tbl = Hashtbl.Make (Key)

(* The per-option settings enumeration with its entries prefetched,
   keyed cheaply by (tier_name, resource name): one small lookup per
   (option, total) enumeration instead of one structural-key lookup
   per settings combination. *)
type settings_cache = {
  option_used : Model.Service.resource_option;
  pairs : ((string * Model.Mechanism.setting) list * entry) list;
}

type state = {
  (* The cached derivations embed infrastructure lookups; a different
     infrastructure value invalidates everything. Physical identity is
     the right test: the search threads one immutable value through. *)
  mutable infra : Model.Infrastructure.t option;
  entries : entry Tbl.t;
  settings : (string * string, settings_cache) Hashtbl.t;
  (* The downtime-table pool entries draw from, keyed by what the
     deterministic engines consume beyond (n, m, s). Looked up once per
     entry creation, so the structural key is cheap in aggregate. *)
  downtimes :
    ( Model.Service.failure_scope * Avail.Tier_model.failure_class list,
      float Itbl.t )
    Hashtbl.t;
}

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        infra = None;
        entries = Tbl.create 64;
        settings = Hashtbl.create 16;
        downtimes = Hashtbl.create 16;
      })

let tm_fresh = Telemetry.Counter.make "search.eval.downtime.fresh"
let tm_reused = Telemetry.Counter.make "search.eval.downtime.reused"

let reset () =
  let state = Domain.DLS.get state_key in
  state.infra <- None;
  Tbl.reset state.entries;
  Hashtbl.reset state.settings;
  Hashtbl.reset state.downtimes

let ensure_infra state infra =
  match state.infra with
  | Some current when current == infra -> ()
  | Some _ | None ->
      Tbl.reset state.entries;
      Hashtbl.reset state.settings;
      Hashtbl.reset state.downtimes;
      state.infra <- Some infra

let downtime_table state skel ~spares =
  let key =
    ( Avail.Tier_model.Skeleton.failure_scope skel,
      Avail.Tier_model.Skeleton.classes skel ~spares )
  in
  match Hashtbl.find_opt state.downtimes key with
  | Some table -> table
  | None ->
      let table = Itbl.create 32 in
      Hashtbl.add state.downtimes key table;
      table

let entry ~infra ~tier_name ~option ~settings ~spare_active =
  let state = Domain.DLS.get state_key in
  ensure_infra state infra;
  let key = { tier_name; option; settings; spare_active } in
  match Tbl.find_opt state.entries key with
  | Some entry -> entry
  | None ->
      let skel =
        Avail.Tier_model.Skeleton.make ~infra ~tier_name ~option ~settings
          ~spare_active
      in
      let entry =
        {
          key;
          infra;
          skel;
          downtime_spare = downtime_table state skel ~spares:true;
          downtime_nospare = downtime_table state skel ~spares:false;
          spares = None;
        }
      in
      Tbl.add state.entries key entry;
      entry

let settings_product infra resource =
  let mechanisms = Model.Infrastructure.resource_mechanisms infra resource in
  let rec product = function
    | [] -> [ [] ]
    | (m : Model.Mechanism.t) :: rest ->
        let tails = product rest in
        List.concat_map
          (fun setting ->
            List.map (fun tail -> (m.name, setting) :: tail) tails)
          (Model.Mechanism.settings m)
  in
  product mechanisms

let settings_entries ~infra ~tier_name
    ~(option : Model.Service.resource_option) =
  let state = Domain.DLS.get state_key in
  ensure_infra state infra;
  let k = (tier_name, option.Model.Service.resource) in
  match Hashtbl.find_opt state.settings k with
  | Some cache when cache.option_used == option -> cache.pairs
  | Some _ | None ->
      let resource =
        Model.Infrastructure.resource_exn infra option.Model.Service.resource
      in
      let pairs =
        List.map
          (fun settings ->
            ( settings,
              entry ~infra ~tier_name ~option ~settings ~spare_active:[] ))
          (settings_product infra resource)
      in
      Hashtbl.replace state.settings k { option_used = option; pairs };
      pairs

let spare_entries base =
  match base.spares with
  | Some pairs -> pairs
  | None ->
      let infra = base.infra in
      let { tier_name; option; settings; _ } = base.key in
      let resource =
        Model.Infrastructure.resource_exn infra option.Model.Service.resource
      in
      let pairs =
        List.map
          (fun spare_active ->
            match spare_active with
            | [] -> ([], base)
            | _ ->
                ( spare_active,
                  entry ~infra ~tier_name ~option ~settings ~spare_active ))
          (Model.Resource.downward_closed_subsets resource)
      in
      base.spares <- Some pairs;
      pairs

let skeleton entry = entry.skel

let minimum_actives entry ~demand =
  Avail.Tier_model.Skeleton.minimum_actives entry.skel ~demand

let tier_cost entry ~n_active ~n_spare =
  Avail.Tier_model.Skeleton.tier_cost entry.skel ~n_active ~n_spare

let model entry ~n_active ~n_spare ~demand =
  Avail.Tier_model.Skeleton.instantiate entry.skel ~n_active ~n_spare ~demand

(* Within a table the downtime is a pure function of the triple
   (classes and scope are fixed by the table's pool key), and Engine A
   is deterministic, so the cached value is bitwise what a fresh
   evaluation would produce. The triple's n_min is the model's own
   ([instantiate] derives it the same way), so a hit needs no model. *)
let downtime entry ~n_active ~n_spare ~demand =
  let n_min = Avail.Tier_model.Skeleton.n_min entry.skel ~n_active ~demand in
  let table =
    if n_spare > 0 then entry.downtime_spare else entry.downtime_nospare
  in
  let key = downtime_key ~n_active ~n_min ~n_spare in
  match Itbl.find table key with
  | f ->
      if Telemetry.enabled () then Telemetry.Counter.incr tm_reused;
      f
  | exception Not_found ->
      let m = model entry ~n_active ~n_spare ~demand in
      let f =
        Telemetry.with_span "search.eval.downtime" (fun () ->
            Avail.Evaluate.tier_downtime_fraction Avail.Evaluate.Analytic m)
      in
      if Telemetry.enabled () then Telemetry.Counter.incr tm_fresh;
      Itbl.add table key f;
      f

module Duration = Aved_units.Duration
module Availability = Aved_reliability.Availability
module Ctmc = Aved_markov.Ctmc
module Service = Aved_model.Service
module Telemetry = Aved_telemetry.Telemetry

(* Classes that occupy the chain: repairs take positive time. Classes
   with zero MTTR repair instantaneously and only contribute transient
   outages (of zero unless their failover time is positive). *)
let chain_classes (model : Tier_model.t) =
  List.filter
    (fun (c : Tier_model.failure_class) -> not (Duration.is_zero c.mttr))
    model.classes

let instant_classes (model : Tier_model.t) =
  List.filter
    (fun (c : Tier_model.failure_class) -> Duration.is_zero c.mttr)
    model.classes

let binomial n k =
  let k = Stdlib.min k (n - k) in
  let rec loop acc i =
    if i > k then acc else loop (acc * (n - k + i) / i) (i + 1)
  in
  if k < 0 then 0 else loop 1 1

let num_states (model : Tier_model.t) =
  let n_total = model.n_active + model.n_spare in
  let j = List.length (chain_classes model) in
  binomial (n_total + j) j

(* All vectors of length j with sum <= total, lexicographic order. *)
let enumerate_states ~j ~total =
  let states = ref [] in
  let current = Array.make j 0 in
  let rec fill pos remaining =
    if pos = j then states := Array.copy current :: !states
    else
      for v = 0 to remaining do
        current.(pos) <- v;
        fill (pos + 1) (remaining - v)
      done
  in
  if j = 0 then [ [||] ]
  else begin
    fill 0 total;
    List.rev !states
  end

let transient_outage (c : Tier_model.failure_class) =
  Duration.seconds
    (if c.failover_considered then c.failover_time else c.mttr)

let interrupts (model : Tier_model.t) ~actives =
  match model.failure_scope with
  | Service.Tier_scope -> true
  | Service.Resource_scope -> actives = model.n_min

(* Shared state-space construction and stationary solve of the
   multi-mode chain, used by both {!downtime_fraction} and
   {!downtime_by_class}. *)
type solution = {
  states : int array array;
  classes : Tier_model.failure_class array;  (* chain classes, model order *)
  pi : float array;
  n_total : int;
}

let build_chain ~max_states (model : Tier_model.t) =
  let n_total = model.n_active + model.n_spare in
  let classes = Array.of_list (chain_classes model) in
  let j = Array.length classes in
  let size = num_states model in
  if size > max_states then
    invalid_arg
      (Printf.sprintf "Exact.downtime_fraction: %d states exceed limit %d"
         size max_states);
  let states = Array.of_list (enumerate_states ~j ~total:n_total) in
  let index = Hashtbl.create (Array.length states) in
  Array.iteri
    (fun i s -> Hashtbl.add index (Array.to_list s) i)
    states;
  let lookup s = Hashtbl.find index (Array.to_list s) in
  let failed s = Array.fold_left ( + ) 0 s in
  let actives_of s = Stdlib.min model.n_active (n_total - failed s) in
  let chain = Ctmc.create (Array.length states) in
  Array.iteri
    (fun src s ->
      let f = failed s in
      let a = actives_of s in
      Array.iteri
        (fun i (c : Tier_model.failure_class) ->
          (* Failure of class i by one of the active resources. *)
          if a > 0 && f < n_total then begin
            let rate = float_of_int a *. c.rate in
            let target = Array.copy s in
            target.(i) <- target.(i) + 1;
            Ctmc.add_transition chain ~src ~dst:(lookup target) ~rate
          end;
          (* Repair of one failed class-i resource. *)
          if s.(i) > 0 then begin
            let rate = float_of_int s.(i) /. Duration.seconds c.mttr in
            let target = Array.copy s in
            target.(i) <- target.(i) - 1;
            Ctmc.add_transition chain ~src ~dst:(lookup target) ~rate
          end)
        classes)
    states;
  (states, classes, chain, n_total)

let chain ?(max_states = 20000) (model : Tier_model.t) =
  let _, _, chain, _ = build_chain ~max_states model in
  chain

(* ----- skeleton-cached solving ----- *)

(* The transition STRUCTURE of the multi-mode chain depends only on
   (j, n_total): a failure transition exists iff the state has room for
   one more failed resource (n_active ≥ 1 always, so the active count
   min(n_active, n_total − f) is positive exactly when f < n_total), and
   a repair transition iff the class has a failed resource. Only the
   RATES carry the model parameters. So the state enumeration, the index
   and the transition list are cached per (j, n_total) — and with them a
   {!Ctmc.Solver} whose compiled sparse structure is updated in place
   and re-solved when the next model reuses the shape. *)
type skeleton_transition = {
  src : int;
  dst : int;
  cls : int;
  is_repair : bool;
  mult : int; (* repairs: the class's failed count in [src] *)
  failed : int; (* failures: total failed resources in [src] *)
}

type skeleton = {
  states : int array array;
  skeleton_transitions : skeleton_transition array;
  mutable solver : Ctmc.Solver.t option;
}

let tm_fresh = Telemetry.Counter.make "avail.exact.solve.fresh"
let tm_incremental = Telemetry.Counter.make "avail.exact.solve.incremental"

let skeleton_cache_key :
    ((int * int, skeleton) Hashtbl.t) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let reset_solver_cache () =
  Hashtbl.reset (Domain.DLS.get skeleton_cache_key)

let build_skeleton ~j ~n_total =
  let states = Array.of_list (enumerate_states ~j ~total:n_total) in
  let index = Hashtbl.create (Array.length states) in
  Array.iteri (fun i s -> Hashtbl.add index (Array.to_list s) i) states;
  let lookup s = Hashtbl.find index (Array.to_list s) in
  let transitions = ref [] in
  Array.iteri
    (fun src s ->
      let f = Array.fold_left ( + ) 0 s in
      for i = 0 to j - 1 do
        if f < n_total then begin
          let target = Array.copy s in
          target.(i) <- target.(i) + 1;
          transitions :=
            {
              src;
              dst = lookup target;
              cls = i;
              is_repair = false;
              mult = 0;
              failed = f;
            }
            :: !transitions
        end;
        if s.(i) > 0 then begin
          let target = Array.copy s in
          target.(i) <- target.(i) - 1;
          transitions :=
            {
              src;
              dst = lookup target;
              cls = i;
              is_repair = true;
              mult = s.(i);
              failed = f;
            }
            :: !transitions
        end
      done)
    states;
  {
    states;
    skeleton_transitions = Array.of_list (List.rev !transitions);
    solver = None;
  }

let solve ~max_states (model : Tier_model.t) =
  let n_total = model.n_active + model.n_spare in
  let classes = Array.of_list (chain_classes model) in
  let j = Array.length classes in
  let size = num_states model in
  if size > max_states then
    invalid_arg
      (Printf.sprintf "Exact.downtime_fraction: %d states exceed limit %d"
         size max_states);
  let cache = Domain.DLS.get skeleton_cache_key in
  let entry =
    match Hashtbl.find_opt cache (j, n_total) with
    | Some e -> e
    | None ->
        let e = build_skeleton ~j ~n_total in
        Hashtbl.add cache (j, n_total) e;
        e
  in
  (* Same arithmetic as [build_chain]: a failure fires from each of the
     min(n_active, n_total − f) active resources; a repair per failed
     resource of the class. *)
  let rate_of tr =
    let c = classes.(tr.cls) in
    if tr.is_repair then float_of_int tr.mult /. Duration.seconds c.mttr
    else
      float_of_int (Stdlib.min model.n_active (n_total - tr.failed)) *. c.rate
  in
  let pi =
    match entry.solver with
    | Some solver ->
        Array.iter
          (fun tr ->
            Ctmc.Solver.update_rate solver ~src:tr.src ~dst:tr.dst
              ~rate:(rate_of tr))
          entry.skeleton_transitions;
        Telemetry.Counter.incr tm_incremental;
        Ctmc.Solver.solve solver
    | None ->
        let chain = Ctmc.create (Array.length entry.states) in
        Array.iter
          (fun tr ->
            Ctmc.add_transition chain ~src:tr.src ~dst:tr.dst
              ~rate:(rate_of tr))
          entry.skeleton_transitions;
        let solver = Ctmc.Solver.create chain in
        entry.solver <- Some solver;
        Telemetry.Counter.incr tm_fresh;
        Ctmc.Solver.solve solver
  in
  { states = entry.states; classes; pi; n_total }

let downtime_fraction ?(max_states = 20000) (model : Tier_model.t) =
  let { states; classes; pi; n_total } = solve ~max_states model in
  let failed s = Array.fold_left ( + ) 0 s in
  let actives_of s = Stdlib.min model.n_active (n_total - failed s) in
  let chain_down = ref 0. in
  let transient = ref 0. in
  Array.iteri
    (fun i s ->
      let operational = n_total - failed s in
      if operational < model.n_min then chain_down := !chain_down +. pi.(i)
      else begin
        let a = actives_of s in
        if a > 0 && interrupts model ~actives:a then begin
          (* Chain classes: a failure that lands in another up state. *)
          Array.iter
            (fun (c : Tier_model.failure_class) ->
              if operational - 1 >= model.n_min then
                transient :=
                  !transient
                  +. (pi.(i) *. float_of_int a *. c.rate *. transient_outage c))
            classes;
          (* Instantly repaired classes never leave the state. *)
          List.iter
            (fun (c : Tier_model.failure_class) ->
              transient :=
                !transient
                +. (pi.(i) *. float_of_int a *. c.rate *. transient_outage c))
            (instant_classes model)
        end
      end)
    states;
  Float.min 1. (!chain_down +. !transient)

(* Attribution of the downtime to the failure classes, from the same
   stationary solve. Down-state mass is attributed to the classes whose
   failed resources occupy the state, proportionally to their failed
   counts — exact, unlike Engine A's first-order split. Transients are
   per class by construction. Rescaled like {!Analytic.downtime_by_class}
   when the raw sum exceeds the cap of 1. *)
let downtime_by_class ?(max_states = 20000) (model : Tier_model.t) =
  let { states; classes; pi; n_total } = solve ~max_states model in
  let failed s = Array.fold_left ( + ) 0 s in
  let actives_of s = Stdlib.min model.n_active (n_total - failed s) in
  let all = Array.of_list model.classes in
  let contrib = Array.make (Array.length all) 0. in
  (* Positional maps into [model.classes] (labels need not be unique). *)
  let indexed = List.mapi (fun i c -> (i, c)) model.classes in
  let chain_pos =
    List.filter_map
      (fun (i, (c : Tier_model.failure_class)) ->
        if Duration.is_zero c.mttr then None else Some i)
      indexed
    |> Array.of_list
  in
  let instant_pos =
    List.filter_map
      (fun (i, (c : Tier_model.failure_class)) ->
        if Duration.is_zero c.mttr then Some i else None)
      indexed
    |> Array.of_list
  in
  Array.iteri
    (fun i s ->
      let operational = n_total - failed s in
      if operational < model.n_min then begin
        let f = float_of_int (failed s) in
        if f > 0. then
          Array.iteri
            (fun k count ->
              if count > 0 then
                contrib.(chain_pos.(k)) <-
                  contrib.(chain_pos.(k))
                  +. (pi.(i) *. float_of_int count /. f))
            s
      end
      else begin
        let a = actives_of s in
        if a > 0 && interrupts model ~actives:a then begin
          Array.iteri
            (fun k (c : Tier_model.failure_class) ->
              if operational - 1 >= model.n_min then
                contrib.(chain_pos.(k)) <-
                  contrib.(chain_pos.(k))
                  +. (pi.(i) *. float_of_int a *. c.rate *. transient_outage c))
            classes;
          Array.iter
            (fun pos ->
              let c = all.(pos) in
              contrib.(pos) <-
                contrib.(pos)
                +. (pi.(i) *. float_of_int a *. c.rate *. transient_outage c))
            instant_pos
        end
      end)
    states;
  let raw_total = Array.fold_left ( +. ) 0. contrib in
  let scale = if raw_total > 1. then 1. /. raw_total else 1. in
  List.mapi
    (fun i (c : Tier_model.failure_class) ->
      (c.label, if raw_total > 1. then contrib.(i) *. scale else contrib.(i)))
    model.classes

let availability ?max_states model =
  Availability.of_fraction (1. -. downtime_fraction ?max_states model)

let annual_downtime ?max_states model =
  Duration.of_years (downtime_fraction ?max_states model)

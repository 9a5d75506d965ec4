module Duration = Aved_units.Duration
module Availability = Aved_reliability.Availability
module Ctmc = Aved_markov.Ctmc
module Service = Aved_model.Service

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

let check_size ~max_states model =
  let size = num_states model in
  if size > max_states then
    invalid_arg
      (Printf.sprintf "Exact.downtime_fraction: %d states exceed limit %d"
         size max_states)

let chain ?(max_states = 20000) (model : Tier_model.t) =
  check_size ~max_states model;
  let n_total = model.n_active + model.n_spare in
  let classes = Array.of_list (chain_classes model) in
  let j = Array.length classes in
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
  chain

(* ----- product-form stationary law ----- *)

(* Shared state space and stationary law of the multi-mode chain, used
   by both {!downtime_fraction} and {!downtime_by_class}. *)
type solution = {
  states : int array array;
  classes : Tier_model.failure_class array;  (* chain classes, model order *)
  pi : float array;
  n_total : int;
}

(* [scaled_products factors] is every prefix product
   Π_{k<i} factors.(k), i = 0 .. length, as a mantissa in [0.5, 1) (or
   0) and a binary exponent: products of thousands of factors neither
   overflow nor underflow, and each carries one rounding per factor. *)
let scaled_products factors =
  let n = Array.length factors in
  let mantissa = Array.make (n + 1) 1. and exponent = Array.make (n + 1) 0 in
  for k = 0 to n - 1 do
    let m, e = Float.frexp (mantissa.(k) *. factors.(k)) in
    mantissa.(k + 1) <- m;
    exponent.(k + 1) <- exponent.(k) + e
  done;
  (mantissa, exponent)

(* The multi-mode chain is a closed product-form network: one "up"
   station serving at min(n_active, N − F)·λ_c feeds one
   infinite-server repair station per class (each failed resource
   repairs on its own at 1/MTTR_c). With ρ_c = λ_c·MTTR_c and
   F = Σ f_c, its stationary law is

     π(f) ∝ Π_{k=0}^{F−1} min(n_active, N − k) · Π_c ρ_c^{f_c} / f_c!

   Detailed balance holds on every edge: the ratio π(f + e_c)/π(f) is
   min(n_active, N − F)·ρ_c/(f_c + 1), so
   π(f + e_c)·(f_c + 1)/MTTR_c = π(f)·min(n_active, N − F)·λ_c. The
   level and per-class factors are tabulated as scaled products, and a
   state's weight is rescaled by the largest exponent before it is
   summed. A zero factor (no active resource, or a class that never
   fails) gives π = 0, as the chain gives to states it cannot reach. *)
let solve ~max_states (model : Tier_model.t) =
  check_size ~max_states model;
  let n_total = model.n_active + model.n_spare in
  let classes = Array.of_list (chain_classes model) in
  let states =
    Array.of_list (enumerate_states ~j:(Array.length classes) ~total:n_total)
  in
  let level_m, level_e =
    scaled_products
      (Array.init n_total (fun k ->
           float_of_int (Stdlib.min model.n_active (n_total - k))))
  in
  let class_tables =
    Array.map
      (fun (c : Tier_model.failure_class) ->
        let rho = c.rate *. Duration.seconds c.mttr in
        scaled_products
          (Array.init n_total (fun k -> rho /. float_of_int (k + 1))))
      classes
  in
  (* At most a handful of classes have failed resources in one state
     (C(2m, m) states already hold m of them), so the product of their
     mantissas stays far above the underflow threshold. *)
  let mantissa = Array.make (Array.length states) 0. in
  let exponent = Array.make (Array.length states) 0 in
  Array.iteri
    (fun i s ->
      let f = ref 0 and m = ref 1. and e = ref 0 in
      Array.iteri
        (fun c fc ->
          if fc > 0 then begin
            let cm, ce = class_tables.(c) in
            f := !f + fc;
            m := !m *. cm.(fc);
            e := !e + ce.(fc)
          end)
        s;
      mantissa.(i) <- !m *. level_m.(!f);
      exponent.(i) <- !e + level_e.(!f))
    states;
  (* The shift is the largest exponent of a state with positive weight
     (state 0's weight is 1 = 1·2⁰), so that state's rescaled weight is
     its mantissa and the total is never 0. *)
  let shift = ref 0 in
  Array.iteri
    (fun i m -> if m > 0. then shift := Stdlib.max !shift exponent.(i))
    mantissa;
  let shift = !shift in
  let pi =
    Array.mapi (fun i m -> Float.ldexp m (exponent.(i) - shift)) mantissa
  in
  let total = Array.fold_left ( +. ) 0. pi in
  Array.iteri (fun i w -> pi.(i) <- w /. total) pi;
  { states; classes; pi; n_total }

let stationary ?(max_states = 20000) model = (solve ~max_states model).pi

(* Engine B keeps no solver state; kept so that callers which emptied
   the old per-domain cache still link. *)
let reset_solver_cache () = ()

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

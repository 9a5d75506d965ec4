(* Soundness of the abstract-interpretation layer behind
   `aved check --bounds`.

   Three layers of property tests: interval arithmetic contains the
   concrete operation, abstract expression evaluation contains concrete
   evaluation, and the whole-domain downtime bounds contain the
   analytic engine's result for every concrete design and settings
   assignment. On top of those, the region verdicts the checker reports
   (a budget infeasible or trivially satisfiable) carry certificates
   that re-verify on their own. *)

module Duration = Aved_units.Duration
module Expr = Aved_expr.Expr
module Interval = Aved_check.Interval
module Abstract_expr = Aved_check.Abstract_expr
module Bounds = Aved_check.Bounds
module Certificate = Aved_check.Certificate
module Model = Aved_model
module Mechanism = Aved_model.Mechanism
module Tier_model = Aved_avail.Tier_model
module Experiments = Aved.Experiments

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Interval arithmetic: the concrete operation stays inside *)

let gen_interval_and_point =
  let open QCheck2.Gen in
  let* a = float_range (-100.) 100. in
  let* b = float_range (-100.) 100. in
  let lo = Float.min a b and hi = Float.max a b in
  let* t = float_range 0. 1. in
  let x = lo +. (t *. (hi -. lo)) in
  return (Interval.of_bounds lo hi, Float.min hi (Float.max lo x))

let interval_ops_sound =
  let open QCheck2 in
  Test.make ~name:"interval ops contain the concrete result" ~count:2000
    (Gen.pair gen_interval_and_point gen_interval_and_point)
    (fun ((ia, a), (ib, b)) ->
      let contains op_name iv v =
        Float.is_nan v || Interval.mem v iv
        || QCheck2.Test.fail_reportf "%s: %g not in %s" op_name v
             (Interval.to_string iv)
      in
      contains "add" (Interval.add ia ib) (a +. b)
      && contains "sub" (Interval.sub ia ib) (a -. b)
      && contains "mul" (Interval.mul ia ib) (a *. b)
      && contains "div" (Interval.div ia ib) (a /. b)
      && contains "neg" (Interval.neg ia) (-.a)
      && contains "abs" (Interval.abs ia) (Float.abs a)
      && contains "min" (Interval.min_ ia ib) (Float.min a b)
      && contains "max" (Interval.max_ ia ib) (Float.max a b)
      && contains "exp" (Interval.exp ia) (Float.exp a)
      && contains "log" (Interval.log ia) (Float.log a)
      && contains "sqrt" (Interval.sqrt ia) (Float.sqrt a)
      && contains "floor" (Interval.floor ia) (Float.floor a)
      && contains "ceil" (Interval.ceil ia) (Float.ceil a)
      && contains "pow" (Interval.pow ia ib) (Float.pow a b))

(* ------------------------------------------------------------------ *)
(* Abstract expression evaluation: concrete eval stays inside *)

let var_names = [ "n"; "cpi"; "x" ]

let gen_expr =
  let open QCheck2.Gen in
  sized (fun size ->
      fix
        (fun self size ->
          let leaf =
            oneof
              [
                map (fun v -> Expr.const v) (float_range (-100.) 100.);
                map Expr.var (oneofl var_names);
              ]
          in
          if size <= 1 then leaf
          else
            let sub = self (size / 2) in
            oneof
              [
                leaf;
                map2 Expr.add sub sub;
                map2 Expr.sub sub sub;
                map2 Expr.mul sub sub;
                map2 Expr.div sub sub;
                map Expr.neg sub;
                map2 Expr.min_ sub sub;
                map2 Expr.max_ sub sub;
                map (fun e -> Expr.apply "abs" [ e ]) sub;
                map (fun e -> Expr.apply "sqrt" [ e ]) sub;
                map (fun e -> Expr.apply "floor" [ e ]) sub;
                map2
                  (fun a b -> Expr.if_ Expr.Le a b ~then_:a ~else_:b)
                  sub sub;
              ])
        (min size 8))

(* One box and one concrete point inside it, per variable. *)
let gen_env =
  let open QCheck2.Gen in
  let gen_binding name =
    let* a = float_range (-50.) 50. in
    let* b = float_range (-50.) 50. in
    let lo = Float.min a b and hi = Float.max a b in
    let* t = float_range 0. 1. in
    let x = Float.min hi (Float.max lo (lo +. (t *. (hi -. lo)))) in
    return (name, (lo, hi), x)
  in
  flatten_l (List.map gen_binding var_names)

let abstract_eval_sound =
  let open QCheck2 in
  Test.make ~name:"concrete eval lies in the abstract interval"
    ~count:2000
    (Gen.pair gen_expr gen_env)
    (fun (e, bindings) ->
      let env name =
        List.find_map
          (fun (v, (lo, hi), _) ->
            if String.equal v name then Some (Interval.of_bounds lo hi)
            else None)
          bindings
      in
      let lookup name =
        List.find_map
          (fun (v, _, x) -> if String.equal v name then Some x else None)
          bindings
      in
      let iv = Abstract_expr.eval_range ~env e in
      match Expr.eval e lookup with
      | v ->
          Float.is_nan v || Interval.mem v iv
          || QCheck2.Test.fail_reportf "%s = %g not in %s" (Expr.to_string e)
               v (Interval.to_string iv)
      | exception Division_by_zero -> true)

let monotonicity_sound =
  let open QCheck2 in
  Test.make
    ~name:"a monotonicity verdict is honored by concrete samples"
    ~count:1000
    (Gen.pair gen_expr gen_env)
    (fun (e, bindings) ->
      (* n ranges over a box; the other variables are pinned to their
         sampled concrete value, a member of any box we could have
         given them. *)
      let n_lo = 1. and n_hi = 40. in
      let env name =
        if String.equal name "n" then Some (Interval.of_bounds n_lo n_hi)
        else
          List.find_map
            (fun (v, _, x) ->
              if String.equal v name then Some (Interval.point x) else None)
            bindings
      in
      let eval_at n =
        Expr.eval e (fun name ->
            if String.equal name "n" then Some n
            else
              List.find_map
                (fun (v, _, x) ->
                  if String.equal v name then Some x else None)
                bindings)
      in
      match Abstract_expr.monotonicity ~var:"n" ~env e with
      | Abstract_expr.Unknown -> true
      | verdict ->
          let samples = List.init 21 (fun i -> 1. +. (float_of_int i *. 1.95)) in
          let ok v1 v2 =
            Float.is_nan v1 || Float.is_nan v2
            ||
            match verdict with
            | Abstract_expr.Constant -> v1 = v2
            | Abstract_expr.Nondecreasing -> v1 <= v2
            | Abstract_expr.Nonincreasing -> v1 >= v2
            | Abstract_expr.Unknown -> true
          in
          let rec pairs = function
            | n1 :: (n2 :: _ as rest) ->
                (ok (eval_at n1) (eval_at n2)
                || QCheck2.Test.fail_reportf
                     "%s claimed %s but f(%g)=%g, f(%g)=%g"
                     (Expr.to_string e)
                     (match verdict with
                     | Abstract_expr.Constant -> "constant"
                     | Abstract_expr.Nondecreasing -> "nondecreasing"
                     | Abstract_expr.Nonincreasing -> "nonincreasing"
                     | Abstract_expr.Unknown -> "unknown")
                     n1 (eval_at n1) n2 (eval_at n2))
                && pairs rest
            | [ _ ] | [] -> true
          in
          pairs samples)

(* ------------------------------------------------------------------ *)
(* Whole-domain bounds contain the analytic engine *)

(* Random concrete designs over the paper's infrastructure: any
   mechanism settings, any resource count in a window, any spare
   count. The analyzer must bracket the analytic downtime of every
   one of them. *)
let gen_design_case =
  let open QCheck2.Gen in
  let* tier_pick = oneofl [ `App; `Sci ] in
  let* option_index = int_range 0 5 in
  let* n = int_range 1 8 in
  let* spares = int_range 0 2 in
  let* demand_scale = float_range 0.1 1.0 in
  let* setting_picks = list_repeat 4 (int_range 0 1000) in
  return (tier_pick, option_index, n, spares, demand_scale, setting_picks)

let bounds_contain_analytic =
  let open QCheck2 in
  let app_infra = Experiments.infrastructure () in
  let bronze_infra = Experiments.infrastructure_bronze () in
  let app_tier = Experiments.application_tier () in
  let sci_tier = Experiments.computation_tier () in
  Test.make ~name:"downtime bounds contain the analytic downtime"
    ~count:300 gen_design_case
    (fun (tier_pick, option_index, n, spares, demand_scale, setting_picks) ->
      let infra, tier =
        match tier_pick with
        | `App -> (app_infra, app_tier)
        | `Sci -> (bronze_infra, sci_tier)
      in
      let options = tier.Model.Service.options in
      let option = List.nth options (option_index mod List.length options) in
      match Model.Infrastructure.find_resource infra option.resource with
      | None -> true
      | Some resource -> (
          let mechs =
            Model.Infrastructure.resource_mechanisms infra resource
          in
          let settings =
            List.mapi
              (fun i (m : Mechanism.t) ->
                let all = Mechanism.settings m in
                let pick =
                  List.nth setting_picks (i mod List.length setting_picks)
                in
                (m.name, List.nth all (pick mod List.length all)))
              mechs
          in
          match Bounds.analyzer ~infra ~tier_name:tier.tier_name ~option with
          | None -> true
          | Some an -> (
              let design =
                Model.Design.tier_design ~tier_name:tier.tier_name
                  ~resource:option.resource ~n_active:n ~n_spare:spares
                  ~mechanism_settings:settings ()
              in
              let demand =
                if
                  Model.Service.is_finite_job
                    (match tier_pick with
                    | `App -> Experiments.ecommerce ()
                    | `Sci -> Experiments.scientific ())
                then None
                else
                  Some
                    (demand_scale
                    *. Tier_model.effective_performance_of ~option ~settings
                         ~n)
              in
              match Tier_model.build ~infra ~option ~design ~demand with
              | exception Tier_model.Rejected _ -> true
              | exception Invalid_argument _ -> true
              | model ->
                  let concrete =
                    Aved_avail.Analytic.downtime_fraction model
                  in
                  let iv =
                    Bounds.downtime_interval an ~n_active:model.n_active
                      ~n_min:model.n_min ~n_spare:model.n_spare
                  in
                  Interval.mem concrete iv
                  || QCheck2.Test.fail_reportf
                       "%s/%s n=%d n_min=%d s=%d: %.12g not in %s"
                       tier.tier_name option.resource model.n_active
                       model.n_min model.n_spare concrete
                       (Interval.to_string iv))))

(* ------------------------------------------------------------------ *)
(* Certificates: produced verdicts re-verify *)

let test_region_certificates () =
  let infra = Experiments.infrastructure () in
  let service = Experiments.ecommerce () in
  let database =
    match Model.Service.find_tier service "database" with
    | Some t -> t
    | None -> Alcotest.fail "no database tier"
  in
  let option = List.hd database.options in
  let analyze budget_minutes =
    Bounds.analyze_option ~infra ~tier_name:database.tier_name ~option
      ~demand:(Some 1000.)
      ~budget_fraction:
        (Some (Duration.years (Duration.of_minutes budget_minutes)))
      ()
  in
  (match (analyze 10.).rp_verdict with
  | Some (Bounds.Infeasible c) ->
      Alcotest.(check bool) "infeasible certificate verifies" true
        (Certificate.verify c);
      Alcotest.(check bool) "summary mentions the budget" true
        (String.length (Certificate.summary c) > 0);
      Alcotest.(check bool) "serializes" true
        (String.length (Certificate.to_json c) > 2)
  | _ -> Alcotest.fail "10 min/yr should be provably unattainable");
  match (analyze 1_000_000.).rp_verdict with
  | Some (Bounds.Trivially_satisfiable c) ->
      Alcotest.(check bool) "trivial certificate verifies" true
        (Certificate.verify c)
  | _ -> Alcotest.fail "a 1M min/yr budget should be trivially satisfiable"

(* The shrunk counterexample [if min(sqrt(-100), -100) <= c then ...]:
   sqrt of a negative is NaN, and NaN passes through min, so the
   abstract min must keep the NaN-admitting [top] rather than bound it
   to [-inf, -100] and decide the branch. *)
let test_nan_passes_through () =
  let nan_ = Interval.sqrt (Interval.point (-100.)) in
  Alcotest.(check bool) "sqrt of a negative admits NaN" true
    (Interval.mem Float.nan nan_);
  List.iter
    (fun (name, iv) ->
      Alcotest.(check bool) (name ^ " admits NaN") true
        (Interval.mem Float.nan iv))
    [
      ("min", Interval.min_ nan_ (Interval.point (-100.)));
      ("max", Interval.max_ (Interval.point 3.) nan_);
      ("abs", Interval.abs nan_);
      ("exp", Interval.exp nan_);
      ("pow", Interval.pow (Interval.point 2.) nan_);
    ]

let () =
  Alcotest.run "absint"
    [
      ( "soundness",
        [
          qtest interval_ops_sound;
          qtest abstract_eval_sound;
          qtest monotonicity_sound;
          qtest bounds_contain_analytic;
          Alcotest.test_case "NaN passes through min, max, abs, exp, pow"
            `Quick test_nan_passes_through;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "region verdicts verify" `Quick
            test_region_certificates;
        ] );
    ]

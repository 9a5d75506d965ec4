module Expr = Aved_expr.Expr

type reporter = Diagnostic.severity -> code:string -> string -> unit

let comparison_to_string = function
  | Expr.Le -> "<="
  | Expr.Lt -> "<"
  | Expr.Ge -> ">="
  | Expr.Gt -> ">"
  | Expr.Eq -> "=="
  | Expr.Ne -> "!="

let eval_opt expr bindings =
  match Expr.eval_alist expr bindings with
  | v -> Some v
  | exception Expr.Unbound_variable _ -> None
  | exception Division_by_zero -> None

let relative_gap a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) /. scale

(* A piecewise expression is suspicious when its two branches disagree
   at the split point itself: [if n <= 30 then f else g] with
   [f(30) <> g(30)] produces a throughput jump a real system would not
   exhibit. Only comparisons pinning a single variable against a
   constant are probed; [bindings] supplies representative values for
   the remaining variables. *)
let check_split_continuity ~bindings ~(report : reporter) lhs rhs then_ else_
    =
  let pin =
    match (lhs, rhs) with
    | Expr.Var v, other | other, Expr.Var v -> (
        match Expr.const_value other with
        | Some k -> Some (v, k)
        | None -> None)
    | _ -> None
  in
  match pin with
  | None -> ()
  | Some (v, k) -> (
      let at_split = (v, k) :: List.remove_assoc v bindings in
      match (eval_opt then_ at_split, eval_opt else_ at_split) with
      | Some a, Some b when relative_gap a b > 1e-6 ->
          report Diagnostic.Warning ~code:"discontinuity"
            (Printf.sprintf
               "branches disagree at the split point %s = %g: %g vs %g" v k a
               b)
      | _ -> ())

let rec lint ~bindings ~(report : reporter) (expr : Expr.t) =
  let recurse e = lint ~bindings ~report e in
  match expr with
  | Expr.Const _ | Expr.Var _ -> ()
  | Expr.Add (a, b) | Expr.Sub (a, b) | Expr.Mul (a, b) ->
      recurse a;
      recurse b
  | Expr.Div (a, b) ->
      (match Expr.const_value b with
      | Some 0. ->
          report Diagnostic.Error ~code:"div-by-zero"
            "division by a constant zero"
      | Some _ | None -> ());
      recurse a;
      recurse b
  | Expr.Neg a -> recurse a
  | Expr.Call (_, args) -> List.iter recurse args
  | Expr.If (cmp, lhs, rhs, then_, else_) ->
      (match (Expr.const_value lhs, Expr.const_value rhs) with
      | Some a, Some b ->
          let holds = Expr.compare_holds cmp a b in
          report Diagnostic.Warning ~code:"unreachable-branch"
            (Printf.sprintf
               "condition %g %s %g is always %b; the %s branch is unreachable"
               a (comparison_to_string cmp) b holds
               (if holds then "else" else "then"))
      | _ -> check_split_continuity ~bindings ~report lhs rhs then_ else_);
      recurse lhs;
      recurse rhs;
      recurse then_;
      recurse else_

let report_drop ~(report : reporter) probe ns =
  let evaluated =
    List.filter_map
      (fun n ->
        match probe n with
        | v -> Some (n, v)
        | exception _ -> None)
      ns
  in
  let rec first_drop = function
    | (n1, v1) :: ((n2, v2) :: _ as rest) ->
        if v2 < v1 -. (1e-9 *. Float.max 1. (Float.abs v1)) then
          Some (n1, v1, n2, v2)
        else first_drop rest
    | [ _ ] | [] -> None
  in
  match first_drop evaluated with
  | Some (n1, v1, n2, v2) ->
      report Diagnostic.Warning ~code:"non-monotone"
        (Printf.sprintf
           "performance decreases with more resources: f(%d) = %g but \
            f(%d) = %g"
           n1 v1 n2 v2)
  | None -> ()

(* An expression is first attacked with the difference-quotient
   analysis: a nonnegative quotient interval over the whole [n] box
   proves monotonicity for every admissible count, not just the probed
   ones. Probing [n_values] remains as the fallback for the unproven
   cases — it also supplies the concrete witness pair the diagnostic
   quotes.
   Tables need no sampling cap at all: piecewise-linear functions are
   monotone iff they are monotone at their breakpoints, so probing the
   breakpoints inside the range (plus its endpoints) is exact. *)
let check_monotone_performance ~n_values ~(report : reporter)
    (perf : Aved_perf.Perf_function.t) =
  let ns = List.sort_uniq Int.compare n_values in
  match (Aved_perf.Perf_function.classify perf, ns) with
  | `Const _, _ | _, ([] | [ _ ]) -> ()
  | `Expression expr, ns ->
      let probe n = Aved_perf.Perf_function.eval perf ~n in
      let lo = List.hd ns and hi = List.nth ns (List.length ns - 1) in
      let proven_monotone =
        (* [eval] pins n = 0 to zero output regardless of the
           expression, so the interval argument only covers n >= 1. *)
        lo >= 1
        &&
        let env = function
          | "n" ->
              Some (Interval.of_bounds (float_of_int lo) (float_of_int hi))
          | _ -> None
        in
        match Abstract_expr.monotonicity ~var:"n" ~env expr with
        | Abstract_expr.Constant | Abstract_expr.Nondecreasing -> true
        | Abstract_expr.Nonincreasing | Abstract_expr.Unknown -> false
        | exception _ -> false
      in
      if not proven_monotone then report_drop ~report probe ns
  | `Table points, ns ->
      let probe n = Aved_perf.Perf_function.eval perf ~n in
      let lo = List.hd ns and hi = List.nth ns (List.length ns - 1) in
      let breakpoints =
        List.filter_map
          (fun (n, _) -> if n > lo && n < hi then Some n else None)
          points
      in
      report_drop ~report probe
        (List.sort_uniq Int.compare (lo :: hi :: breakpoints))

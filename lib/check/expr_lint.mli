(** Expression lints: constant-foldable pitfalls the evaluator only
    hits at runtime, plus semantic probes over declared ranges. *)

type reporter = Diagnostic.severity -> code:string -> string -> unit

val lint :
  bindings:(string * float) list ->
  report:reporter ->
  Aved_expr.Expr.t ->
  unit
(** Walks the expression reporting:
    - ["div-by-zero"] (Error): division by a constant zero;
    - ["unreachable-branch"] (Warning): an [if] whose condition folds
      to a constant, leaving one branch dead;
    - ["discontinuity"] (Warning): a piecewise split
      [if v <= K then f else g] with [f <> g] at [v = K]. [bindings]
      supplies representative values for the expression's other free
      variables (e.g. duration parameters at their range midpoints). *)

val check_monotone_performance :
  n_values:int list ->
  report:reporter ->
  Aved_perf.Perf_function.t ->
  unit
(** Reports ["non-monotone"] (Warning) when throughput decreases as
    resources are added. [n_values] are the counts to probe; their
    least and greatest bound the declared range, so a caller samples a
    wide range rather than listing it ([Int_range.spread]).
    Expressions are first run through the difference-quotient analysis
    of {!Abstract_expr.monotonicity}, which proves monotonicity over
    the whole range between those bounds; only unproven expressions
    fall back to probing every [n_values] member, which also supplies
    the concrete witness pair in the message. Tables are checked
    exactly at their breakpoints. Constant functions are exempt. *)

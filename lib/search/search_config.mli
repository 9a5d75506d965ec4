(** Knobs for the design-space search. *)

type t = {
  engine : Aved_avail.Evaluate.engine;
      (** Availability engine used inside the loop. *)
  max_extra_resources : int;
      (** How far beyond the performance-derived minimum to explore the
          total resource count of a tier (extras + spares combined). *)
  max_spares : int;  (** Cap on the number of spare resources. *)
  max_total_resources : int;  (** Absolute cap on a tier's resources. *)
  explore_spare_modes : bool;
      (** When false, spares are all-inactive (the paper's application
          tier example); when true, every downward-closed set of
          spare-active components is explored. *)
  prune_bounds : bool;
      (** When true, the searches consult the interval bounds analysis
          ({!Aved_check.Bounds}) to skip availability evaluation of
          candidates that provably cannot win — provably over the
          downtime (or time) budget, or provably dominated by a cheaper
          already-evaluated witness. Each skip is recorded with a
          checkable certificate
          ({!Provenance.fate.Pruned_by_bound}). The found optimum and
          frontier are identical to the unpruned search; only the work
          saved differs. Ignored while [explore_spare_modes] is set
          (the bounds analysis assumes inactive spares). *)
  jobs : int;
      (** Domains the search may use ([>= 1]). The parallel path is
          bit-identical to [jobs = 1]: candidates are merged under a
          total order (cost, then downtime or execution time, then
          {!Aved_model.Design.compare_tier}) and the shared incumbent
          only prunes work that provably cannot win. *)
}

val default : t
(** Analytic engine, up to 8 extra resources, 3 spares, 2000 total,
    all-inactive spares, 1 job. *)

val with_engine : Aved_avail.Evaluate.engine -> t -> t
val with_prune_bounds : bool -> t -> t

val with_jobs : int -> t -> t
(** Raises [Invalid_argument] when [jobs < 1]. *)

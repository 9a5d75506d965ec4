(** Knobs for the design-space search. *)

type t = {
  max_extra_resources : int;
      (** How far beyond the performance-derived minimum to explore the
          total resource count of a tier (extras + spares combined). *)
  max_spares : int;  (** Cap on the number of spare resources. *)
  max_total_resources : int;  (** Absolute cap on a tier's resources. *)
  explore_spare_modes : bool;
      (** When false, spares are all-inactive (the paper's application
          tier example); when true, every downward-closed set of
          spare-active components is explored. *)
  jobs : int;
      (** Domains the search may use ([>= 1]). The parallel path is
          bit-identical to [jobs = 1]: candidates are merged under a
          total order (cost, then downtime or execution time, then
          {!Aved_model.Design.compare_tier}) and the shared incumbent
          only prunes work that provably cannot win. *)
}

val default : t
(** Up to 8 extra resources, 3 spares, 2000 total, all-inactive
    spares, 1 job. *)

val with_engine : Aved_avail.Evaluate.engine -> t -> t
(** Returns the configuration unchanged: the search evaluates every
    design with Engine A, through {!Eval_cache}. Kept only because the
    committed serving benchmark ([perfbench/serving.ml]) still calls
    it; delete once the benchmark stops calling it. *)

val with_jobs : int -> t -> t
(** Raises [Invalid_argument] when [jobs < 1]. *)

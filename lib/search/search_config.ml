type t = {
  engine : Aved_avail.Evaluate.engine;
  max_extra_resources : int;
  max_spares : int;
  max_total_resources : int;
  explore_spare_modes : bool;
  prune_bounds : bool;
  jobs : int;
}

let default =
  {
    engine = Aved_avail.Evaluate.Analytic;
    max_extra_resources = 8;
    max_spares = 3;
    max_total_resources = 2000;
    explore_spare_modes = false;
    prune_bounds = false;
    jobs = 1;
  }

let with_engine engine t = { t with engine }
let with_prune_bounds prune_bounds t = { t with prune_bounds }

let with_jobs jobs t =
  if jobs < 1 then invalid_arg "Search_config.with_jobs: jobs must be >= 1";
  { t with jobs }

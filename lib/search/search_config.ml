type t = {
  max_extra_resources : int;
  max_spares : int;
  max_total_resources : int;
  explore_spare_modes : bool;
  jobs : int;
}

let default =
  {
    max_extra_resources = 8;
    max_spares = 3;
    max_total_resources = 2000;
    explore_spare_modes = false;
    jobs = 1;
  }

let with_engine (_ : Aved_avail.Evaluate.engine) t = t

let with_jobs jobs t =
  if jobs < 1 then invalid_arg "Search_config.with_jobs: jobs must be >= 1";
  { t with jobs }

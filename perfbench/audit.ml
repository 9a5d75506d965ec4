(* The audit workload: in-process, single thread. Each op cross-checks
   one e-commerce application-tier model from a frontier design:
   Engine B (exact multi-mode CTMC), Engine C (Monte Carlo) and the
   whole-domain Bounds bracket, all against Engine A. *)

module Avail = Aved_avail
module Telemetry = Aved_telemetry.Telemetry
module Ctmc = Aved_markov.Ctmc
module Bounds = Aved_check.Bounds
module Interval = Aved_check.Interval

(* Chains above this many states leave dense GTH (Ctmc.select_backend). *)
let dense_limit = 256

(* The largest chain the workload solves: 330 states (seven resources,
   four failure classes) lands on power iteration and takes about a
   second; the 495-state and larger chains take several seconds each
   and would leave too few ops in a run. *)
let max_states = 330

(* The state-count mix of one schedule cycle: fifteen chains of at most
   [dense_limit] states (the GTH path) and one 330-state chain (the
   power-iteration path). A fixed mix gives every seed the same work;
   the seed picks the models within each state count. Op time grows
   with the state count, so the counts are chosen to put the median
   inside the 126-state group and p90 inside the 210-state group, away
   from the steps between groups. *)
let mix = [| 126; 70; 210; 126; 35; 210; 126; 70; 210; 126; 35; 126; 70; 210; 126; 330 |]
let cycle = Array.length mix

(* Loads of the frontier searches: n + s = 7 application servers sits
   on the frontier in this range, so every load yields both kinds. The
   range is cut into [loads_per_run] equal log slices and one load drawn
   in each. With 24 slices the pool of each state count has nearly the
   same make-up of active/spare splits for every seed (with 6, the share
   of any split moved by a factor of two between seeds, and the median
   op time with it). *)
let load_range = (300., 1400.)
let loads_per_run = 24

(* |B - A| / A allowed between Engine B and Engine A. *)
let tolerance = 1e-4

let mc_config =
  {
    Avail.Monte_carlo.replications = 16;
    horizon = Aved_units.Duration.of_years 30.;
    seed = 42;
  }

type model = {
  load : float;
  tier_model : Avail.Tier_model.t;
  states : int;
  analyzer : Bounds.analyzer;
}

(* Models by state count, each list in frontier order. *)
type pools = (int * model array) list

(* Domains of the set-up's frontier searches, as [aved validate --jobs 2]
   searches before its cross-check. This is where the benchmark reaches
   the parallel layer: the ecommerce daemon runs one search domain,
   because on more its explain answers are not reproducible. *)
let search_jobs = 2

let build_pools ~pool ~seed =
  let infra = Aved.Experiments.infrastructure () in
  let service = Aved.Experiments.ecommerce () in
  let tier = Option.get (Aved_model.Service.find_tier service "application") in
  let rng = Common.stream ~seed ~purpose:Common.purpose_measured in
  let analyzers = Hashtbl.create 8 in
  let analyzer resource =
    match Hashtbl.find_opt analyzers resource with
    | Some a -> a
    | None ->
        let option =
          List.find
            (fun (o : Aved_model.Service.resource_option) -> o.resource = resource)
            tier.options
        in
        let a =
          Option.get (Bounds.analyzer ~infra ~tier_name:"application" ~option)
        in
        Hashtbl.replace analyzers resource a;
        a
  in
  let models =
    List.init loads_per_run (fun i ->
        let lo = log (fst load_range) and hi = log (snd load_range) in
        let u = (float_of_int i +. Random.State.float rng 1.) /. float_of_int loads_per_run in
        exp (lo +. (u *. (hi -. lo))))
    |> List.concat_map (fun load ->
           Aved_search.Tier_search.frontier ~pool Aved_search.Search_config.default
             infra ~tier ~demand:load
           |> List.map (fun (c : Aved_search.Candidate.t) ->
                  {
                    load;
                    tier_model = c.model;
                    states = Avail.Exact.num_states c.model;
                    analyzer = analyzer c.design.resource;
                  }))
  in
  List.map
    (fun states ->
      match List.filter (fun m -> m.states = states) models with
      | [] -> failwith (Printf.sprintf "audit: no %d-state chain on the frontiers" states)
      | ms when states <= dense_limit ->
          let split m =
            (m.tier_model.n_active, m.tier_model.n_min, m.tier_model.n_spare)
          in
          (states, Array.of_list (List.stable_sort (fun a b -> compare (split a) (split b)) ms))
      | first :: _ as ms ->
          (* Large chains come from the lowest load only. Their solve
             times differ threefold between models (0.5, 0.9 or 1.5 s),
             and a run solves only about twenty, so drawing from every
             load made a run's total hinge on which it drew. *)
          (states, Array.of_list (List.filter (fun m -> m.load = first.load) ms)))
    (List.sort_uniq compare (Array.to_list mix))

(* Cycles per timed-phase segment: a whole number of passes over the
   large-chain pool, at least four cycles, so every segment holds the
   same work. *)
let segment_cycles pools =
  let large = Array.length (List.assoc max_states pools) in
  large * ((4 + large - 1) / large)

(* The op schedule of one stream: the cycle's state counts in order.
   Chains of at most [dense_limit] states are drawn within their count
   by a golden-ratio sequence from a seeded offset over the pool, which
   is sorted by active/spare split: every stretch of draws covers the
   splits evenly. Monte Carlo time grows with the active count, and
   with independent draws a segment's p90 hinged on how many
   six-active models it drew. Larger chains are taken in turn. *)
let schedule pools rng =
  let i = ref 0 and next_large = ref 0 in
  let draws = List.map (fun (states, _) -> (states, (Random.State.float rng 1., ref 0))) pools in
  fun () ->
    let states = mix.(!i mod cycle) in
    incr i;
    let pool = List.assoc states pools in
    if states <= dense_limit then begin
      let offset, k = List.assoc states draws in
      let u = Float.rem (offset +. (float_of_int !k *. Common.golden)) 1. in
      incr k;
      pool.(truncate (u *. float_of_int (Array.length pool)))
    end
    else begin
      let m = pool.(!next_large mod Array.length pool) in
      incr next_large;
      m
    end

type check = { rel_err : float; ok : bool }

(* One cross-check: the measured op. *)
let cross_check spans m =
  let span name f = Spans.with_span spans name f in
  let tm = m.tier_model in
  let a = span "avail.analytic" (fun () -> Avail.Analytic.downtime_fraction tm) in
  let b =
    span
      (if m.states <= dense_limit then "avail.exact.small" else "avail.exact.large")
      (fun () -> Avail.Exact.downtime_fraction ~max_states tm)
  in
  let c =
    span "avail.monte_carlo" (fun () ->
        Avail.Monte_carlo.downtime_fraction ~config:mc_config tm)
  in
  let bracket =
    span "check.bounds" (fun () ->
        Bounds.downtime_interval m.analyzer ~n_active:tm.n_active ~n_min:tm.n_min
          ~n_spare:tm.n_spare)
  in
  let rel_err = Float.abs (b -. a) /. a in
  let ok =
    Interval.lo bracket <= b
    && b <= Interval.hi bracket
    && rel_err <= tolerance
    && Float.is_finite c && c >= 0.
  in
  if not ok then
    Printf.printf
      "audit mismatch: load %.1f n=%d s=%d states=%d A=%.17g B=%.17g C=%.17g \
       bracket [%.17g, %.17g]\n"
      m.load tm.n_active tm.n_spare m.states a b c (Interval.lo bracket)
      (Interval.hi bracket);
  { rel_err; ok }

(* The markov probe of the traced run, not part of any op: builds a
   model's chain and solves it with Ctmc.stationary, the selected
   backend with its own fallback, as Engine B's fresh solves do. Engine
   B's own solve runs inside [Exact.downtime_fraction] with no span or
   backend counter of its own, so this probe is what times the markov
   backends and ticks markov.{gth,banded,power}.solves. *)
let probe spans m =
  let chain =
    Spans.with_span spans "avail.exact.chain" (fun () ->
        Avail.Exact.chain ~max_states m.tier_model)
  in
  let backend =
    match Ctmc.select_backend chain with
    | Ctmc.Gth -> "gth"
    | Banded -> "banded"
    | Power -> "power"
    | Lu -> "lu"
  in
  ignore
    (Spans.with_span spans ("markov.solve." ^ backend) (fun () -> Ctmc.stationary chain))

(* The warm-up stops short of a cycle's 330-state chain: one of those
   takes 0.5 to 1.5 s, and would alone decide the set-up time. *)
let warmup_ops = cycle - 1

(* One set-up: frontier searches on a fresh pool, bounds analyzers and a
   warm-up slice from the warm-up stream, with the exact engine's
   skeleton cache emptied first so every set-up does the same work. *)
let setup ~seed =
  let t0 = Common.now () in
  Avail.Exact.reset_solver_cache ();
  let pools =
    Aved_parallel.Pool.run ~jobs:search_jobs (fun pool -> build_pools ~pool ~seed)
  in
  let next = schedule pools (Common.stream ~seed ~purpose:Common.purpose_warmup) in
  for _ = 1 to warmup_ops do
    if not (cross_check (Spans.create ()) (next ())).ok then
      failwith "audit: warm-up cross-check failed"
  done;
  (pools, Common.now () -. t0)

let setups = 7

let counters =
  [
    ("markov.gth.solves", "markov.gth.solves");
    ("markov.banded.solves", "markov.banded.solves");
    ("markov.power.solves", "markov.power.solves");
    ("markov.solver.fallback", "markov.solver.fallback");
    ("avail.exact.fresh", "avail.exact.solve.fresh");
    ("avail.exact.incremental", "avail.exact.solve.incremental");
  ]

let run ~seed ~seconds ~trace ~dir =
  let registry = Telemetry.create ~span_capacity:1024 () in
  Telemetry.install registry;
  let t = Common.table () in
  let rec set_up k times =
    let pools, elapsed = setup ~seed in
    if k = setups then (pools, elapsed :: times) else set_up (k + 1) (elapsed :: times)
  in
  let pools, setup_times = set_up 1 [] in
  Common.put t "setup_s" (Common.median setup_times);
  Printf.printf "set-ups: %s s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") setup_times));
  (* The pool's work over all set-ups, per frontier search. *)
  let count name = float_of_int (Telemetry.Counter.read_by_name registry name) in
  let searches = float_of_int (setups * loads_per_run) in
  let queued = count "parallel.tasks.queued" and inline = count "parallel.tasks.inline" in
  Common.put t "parallel.tasks_per_op" ((queued +. inline) /. searches);
  Common.put t "parallel.inline_ratio" (Common.ratio inline (queued +. inline));
  Common.put t "parallel.incumbent.cas_retries_per_op"
    (count "parallel.incumbent.cas_retries" /. searches);
  let read () =
    List.map (fun (_, c) -> Telemetry.Counter.read_by_name registry c) counters
  in
  let ticks0 = Common.cpu_ticks () in
  let segs =
    Common.segments ~size:(segment_cycles pools * cycle) ~cpu:(fun () ->
        Common.cpu_seconds "self")
  in
  let next = schedule pools (Common.stream ~seed ~purpose:Common.purpose_measured) in
  let quiet = Spans.create () in
  let lat = ref [] and n = ref 0 and failed = ref 0 and max_err = ref 0. in
  let small = ref 0 and large = ref 0 in
  let t0 = Common.now () in
  let deadline = t0 +. seconds in
  while Common.now () < deadline do
    let m = next () in
    let s = Common.now () in
    let r = cross_check quiet m in
    let latency_ms = 1e3 *. (Common.now () -. s) in
    lat := latency_ms :: !lat;
    Common.record segs ~latency_ms ~computed:true;
    Common.tick segs;
    incr n;
    if m.states <= dense_limit then incr small else incr large;
    if not r.ok then incr failed;
    max_err := Float.max !max_err r.rel_err
  done;
  let segments = Common.finish segs in
  let elapsed = Common.now () -. t0 in
  let large_pool = List.assoc max_states pools in
  let steal = Common.steal_share ticks0 (Common.cpu_ticks ()) in
  Common.put_segments t segments;
  Common.put t "client.p99_ms" (Common.quantile !lat 0.99);
  Common.put t "peak_rss_mb" (Common.peak_rss_mib "self");
  Common.put t "avail.exact.max_rel_err" !max_err;
  Printf.printf
    "audit: %d ops in %.1f s, %d segments (host steal %.1f%%): %d chains of \
     <= %d states (dense GTH), %d larger (power iteration, %d models at load \
     %.1f taken in turn); mix per cycle of %d: %s states; %d failed \
     cross-checks; max |B-A|/A %.3g\n"
    !n elapsed (List.length segments) (100. *. steal) !small dense_limit !large
    (Array.length large_pool) large_pool.(0).load cycle
    (String.concat "/" (Array.to_list (Array.map string_of_int mix)))
    !failed !max_err;
  if trace then begin
    (* Replay the first cycle of the measured stream, each pass from an
       emptied skeleton cache: an unmeasured priming pass, then the ops
       untraced, traced, traced and untraced again, so that drift over
       the passes cancels in the overhead, and last a separate pass of
       markov probes over the same models. *)
    let each f =
      Avail.Exact.reset_solver_cache ();
      let next = schedule pools (Common.stream ~seed ~purpose:Common.purpose_measured) in
      let s = Common.now () in
      for _ = 1 to cycle do
        f (next ())
      done;
      Common.now () -. s
    in
    let pass spans =
      each (fun m ->
          Spans.with_op spans "bench.op.audit" (fun () -> ignore (cross_check spans m)))
    in
    let counted f =
      let before = read () in
      let r = f () in
      (r, List.map2 (fun b a -> a - b) before (read ()))
    in
    ignore (pass (Spans.create ()));
    let spans = Spans.create ~enabled:true () in
    let u1, engine_counts = counted (fun () -> pass (Spans.create ())) in
    let t1 = pass spans in
    let t2 = pass spans in
    let u2 = pass (Spans.create ()) in
    let probes = Spans.create ~enabled:true () in
    let _, probe_counts =
      counted (fun () ->
          each (fun m -> Spans.with_op probes "bench.probe" (fun () -> probe probes m)))
    in
    (* The counts cover one untraced pass and the probes: a fixed cycle,
       so they repeat exactly for a seed. The avail.exact and
       markov.solver counts are Engine B's own; the markov backend
       counts are the probes'. *)
    List.iter2
      (fun (name, _) (e, p) -> Common.put t name (float_of_int (e + p)))
      counters
      (List.combine engine_counts probe_counts);
    let ms spans name = 1e3 *. Common.mean (Spans.durations spans name) in
    Common.put t "avail.exact.small_ms" (ms spans "avail.exact.small");
    Common.put t "avail.exact.large_ms" (ms spans "avail.exact.large");
    Common.put t "markov.solve.gth_ms" (ms probes "markov.solve.gth");
    Common.put t "markov.solve.banded_ms" (ms probes "markov.solve.banded");
    Common.put t "markov.solve.power_ms" (ms probes "markov.solve.power");
    Common.put t "avail.monte_carlo_ms" (ms spans "avail.monte_carlo");
    Common.put t "check.bounds_us" (1e3 *. ms spans "check.bounds");
    Spans.report spans t ~ops:(2 * cycle) ~untraced_s:(u1 +. u2) ~traced_s:(t1 +. t2);
    Printf.printf "timed phase p50 %.3f ms\n" (Common.get t "p50_ms");
    Spans.write_chrome spans (Filename.concat dir "spans.json")
  end;
  { Common.attempted = !n; failed = !failed; table = t }

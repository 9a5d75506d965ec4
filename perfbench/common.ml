(* Shared helpers: clocks, seeded draws, order statistics, /proc
   readouts and the metric table every workload fills. *)

let now = Unix.gettimeofday

(* Seeded streams. The measured stream and the warm-up stream of one
   seed are disjoint: they come from different generator states. *)
let stream ~seed ~purpose = Random.State.make [| seed; purpose; 0x5eed |]
let purpose_measured = 1
let purpose_warmup = 2
let purpose_sample = 3

let uniform rng lo hi = lo +. Random.State.float rng (hi -. lo)

let log_uniform rng lo hi = exp (uniform rng (log lo) (log hi))

(* The fractional parts of offset + k * golden, k = 0, 1, ..., cover
   [0, 1) evenly in every stretch of the sequence. *)
let golden = (sqrt 5. -. 1.) /. 2.

(* Order statistics of a sample list, by Aved_stats.Stats; an empty
   sample reads 0. *)
let quantile xs q =
  match xs with [] -> 0. | _ -> Aved_stats.Stats.quantile (Array.of_list xs) q

let median xs = quantile xs 0.5

let mean = function [] -> 0. | xs -> Aved_stats.Stats.mean (Array.of_list xs)

let ratio num den = if den = 0. then 0. else num /. den

(* CPU seconds (user + system) and peak resident set of a process, read
   from /proc. [pid] "self" reads this process. *)
let cpu_seconds pid =
  let ic = open_in (Printf.sprintf "/proc/%s/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  (* Fields after the parenthesised command name, which may hold spaces. *)
  let rest =
    let i = String.rindex line ')' in
    String.sub line (i + 2) (String.length line - i - 2)
  in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* utime and stime are fields 14 and 15 of stat, 12 and 13 here, in
     clock ticks of 1/100 s (USER_HZ on Linux). *)
  let ticks = float_of_string fields.(11) +. float_of_string fields.(12) in
  ticks /. 100.

let peak_rss_mib pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc status"
  in
  scan ()

(* Machine-wide CPU ticks from /proc/stat: (steal, total). Steal is
   time the hypervisor gave this machine's CPUs to someone else; a run
   that saw much of it measured a slower machine. *)
let cpu_ticks () =
  let ic = open_in "/proc/stat" in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  let fields =
    String.split_on_char ' ' line
    |> List.filter (fun f -> f <> "" && f <> "cpu")
    |> List.map float_of_string
  in
  let steal = match List.nth_opt fields 7 with Some v -> v | None -> 0. in
  (steal, List.fold_left ( +. ) 0. fields)

let steal_share (s0, t0) (s1, t1) = ratio (s1 -. s0) (t1 -. t0)

(* ------------------------------------------------------------------ *)
(* Segments *)

(* The timed phase is cut into segments of a fixed number of ops, and
   the end-to-end rates, latencies and CPU cost are read from their
   per-segment values ({!put_segments}). A few seconds of host
   interference then spoil a few segments instead of the run. A trailing
   partial segment is left out (its ops still count as attempted); a
   run too short for one whole segment is taken as a single segment. *)
type segment = {
  seg_ops : int;
  seg_computed : int;
  seg_seconds : float;
  seg_cpu : float;
  seg_lat : float list;  (** Op latencies in ms. *)
}

type segments = {
  size : int;
  cpu : unit -> float;
  mutable t0 : float;
  mutable cpu0 : float;
  mutable current : segment;
  mutable closed : segment list;
}

let empty_segment = { seg_ops = 0; seg_computed = 0; seg_seconds = 0.; seg_cpu = 0.; seg_lat = [] }

let segments ~size ~cpu =
  { size; cpu; t0 = now (); cpu0 = cpu (); current = empty_segment; closed = [] }

let record s ~latency_ms ~computed =
  let c = s.current in
  s.current <-
    {
      c with
      seg_ops = c.seg_ops + 1;
      seg_computed = (c.seg_computed + if computed then 1 else 0);
      seg_lat = latency_ms :: c.seg_lat;
    }

let stamp s =
  let t = now () and cpu = s.cpu () in
  let seg = { s.current with seg_seconds = t -. s.t0; seg_cpu = cpu -. s.cpu0 } in
  s.t0 <- t;
  s.cpu0 <- cpu;
  s.current <- empty_segment;
  seg

(* Call between ops: closes the segment once it holds [size] ops. *)
let tick s = if s.current.seg_ops >= s.size then s.closed <- stamp s :: s.closed

let finish s =
  let partial = stamp s in
  match s.closed with [] -> [ partial ] | closed -> List.rev closed

(* ------------------------------------------------------------------ *)
(* Metrics *)

type metric = { name : string; unit_ : string; value : float }

(* Accumulates one run's metrics in insertion order. *)
type table = { mutable rows : metric list }

let table () = { rows = [] }

let get t name =
  match List.find_opt (fun m -> m.name = name) t.rows with
  | Some m -> m.value
  | None -> 0.

(* The metric names the benchmark reports, in BENCHMARK.json order. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_rps", "1/s");
    ("computed_rps", "1/s");
    ("p50_ms", "ms");
    ("p90_ms", "ms");
    ("cpu_ms_per_op", "ms");
    ("peak_rss_mb", "MiB");
  ]

(* The layers a replayed op's spans fall in. Markov time shows inside
   avail: Engine B solves within [Exact.downtime_fraction]. *)
let layer_names = [ "server"; "spec"; "check"; "search"; "explain"; "api"; "avail" ]

let per_layer =
  [
    ("server.parse_us", "us");
    ("server.encode_us", "us");
    ("server.write_us", "us");
    ("server.queue_ms", "ms");
    ("server.handle_ms", "ms");
    ("server.coalesced_frac", "ratio");
    ("server.spec_cache.hit_ratio", "ratio");
    ("server.verb.design.p50_ms", "ms");
    ("server.verb.frontier.p50_ms", "ms");
    ("server.verb.explain.p50_ms", "ms");
    ("server.verb.explain.p90_ms", "ms");
    ("client.p99_ms", "ms");
    ("search.generated_per_op", "count");
    ("search.evaluated_per_op", "count");
    ("search.evaluated_ratio", "ratio");
    ("search.pruned_by_incumbent_per_op", "count");
    ("search.eval_reuse_ratio", "ratio");
    ("search.candidates_per_s", "1/s");
    ("search.combos_tested_per_op", "count");
    ("parallel.tasks_per_op", "count");
    ("parallel.inline_ratio", "ratio");
    ("parallel.incumbent.cas_retries_per_op", "count");
    ("avail.memo.hit_ratio", "ratio");
    ("avail.memo.calls_per_op", "count");
    ("markov.birth_death.solves_per_op", "count");
    ("explain.records_per_op", "count");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections_per_op", "count");
    ("markov.gth.solves", "count");
    ("markov.banded.solves", "count");
    ("markov.power.solves", "count");
    ("markov.solver.fallback", "count");
    ("avail.exact.fresh", "count");
    ("avail.exact.incremental", "count");
    ("spec.load_ms", "ms");
    ("check.spec_check_ms", "ms");
    ("api.design.encode_us", "us");
    ("api.frontier.encode_us", "us");
    ("api.explain.encode_us", "us");
    ("explain.build_ms", "ms");
    ("search.design_ms", "ms");
    ("search.frontier_ms", "ms");
    ("avail.exact.small_ms", "ms");
    ("avail.exact.large_ms", "ms");
    ("markov.solve.gth_ms", "ms");
    ("markov.solve.banded_ms", "ms");
    ("markov.solve.power_ms", "ms");
    ("avail.monte_carlo_ms", "ms");
    ("check.bounds_us", "us");
    ("avail.exact.max_rel_err", "ratio");
    ("trace.overhead_frac", "ratio");
  ]
  @ List.map (fun l -> ("self." ^ l ^ ".ms_per_op", "ms")) layer_names

let unit_of name =
  match List.assoc_opt name (end_to_end @ per_layer) with
  | Some u -> u
  | None -> invalid_arg ("unknown metric " ^ name)

let put t name value =
  let value = if Float.is_finite value then value else 0. in
  t.rows <-
    { name; unit_ = unit_of name; value }
    :: List.filter (fun m -> m.name <> name) t.rows

let number value = Printf.sprintf "%.17g" value

(* The end-to-end rates, latencies and CPU cost of a run, each the
   median of its per-segment values. The host's speed moves both ways
   over a run (a quiet spell makes a few segments fast as well as a busy
   one makes them slow), and the median follows neither. Segments are
   sized to put at least six ops beyond their p90. *)
let put_segments t segs =
  Printf.printf "segments (ops/s computed/s p50_ms p90_ms cpu_ms/op):%s\n"
    (String.concat ""
       (List.map
          (fun g ->
            Printf.sprintf " %.5g,%.5g,%.5g,%.5g,%.5g"
              (float_of_int g.seg_ops /. g.seg_seconds)
              (float_of_int g.seg_computed /. g.seg_seconds)
              (median g.seg_lat) (quantile g.seg_lat 0.9)
              (1e3 *. g.seg_cpu /. float_of_int g.seg_ops))
          segs));
  let med f = median (List.map f segs) in
  let per_s n g = float_of_int n /. g.seg_seconds in
  put t "throughput_rps" (med (fun g -> per_s g.seg_ops g));
  put t "computed_rps" (med (fun g -> per_s g.seg_computed g));
  put t "p50_ms" (med (fun g -> median g.seg_lat));
  put t "p90_ms" (med (fun g -> quantile g.seg_lat 0.9));
  put t "cpu_ms_per_op" (med (fun g -> 1e3 *. g.seg_cpu /. float_of_int g.seg_ops))

(* Human-readable listing: every metric by name, with its unit. *)
let print_table title names t =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, unit_) ->
      Printf.printf "  %-40s %16.6g %s\n" name (get t name) unit_)
    names

(* What one run of a workload hands back. *)
type outcome = { attempted : int; failed : int; table : table }

(* The result line: the last line of standard output. *)
let result_line ~correct ~attempted ~failed names t =
  let metric (name, unit_) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
      (number (get t name)) unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric names))

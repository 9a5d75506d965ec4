module Telemetry = Aved_telemetry.Telemetry
module Json = Aved_explain.Json
module Api = Aved_api.Api
module Model = Aved_model
module Duration = Aved_units.Duration
module Pool = Aved_parallel.Pool
module Trace_id = Aved_obs.Trace_id
module Lifecycle = Aved_obs.Lifecycle
module Slo = Aved_obs.Slo
module Prometheus = Aved_obs.Prometheus
module Request_log = Aved_obs.Request_log
module Trace_store = Aved_obs.Trace_store
module Exemplars = Aved_obs.Exemplars
module Process_stats = Aved_obs.Process_stats

(* ------------------------------------------------------------------ *)
(* Metrics *)

let request_counters =
  List.map
    (fun v ->
      (v, Telemetry.Counter.make ("server.requests." ^ Protocol.verb_to_string v)))
    Protocol.all_verbs

let responses_ok = Telemetry.Counter.make "server.responses.ok"
let responses_error = Telemetry.Counter.make "server.responses.error"
let shed_counter = Telemetry.Counter.make "server.requests.shed"

let deadline_counter =
  Telemetry.Counter.make "server.requests.deadline_exceeded"

let connections_opened = Telemetry.Counter.make "server.connections.opened"
let connections_closed = Telemetry.Counter.make "server.connections.closed"

(* Accepted then refused because [--max-conns] live connections
   already existed: answered with one overloaded envelope and closed. *)
let connections_rejected = Telemetry.Counter.make "server.connections.rejected"

(* Closed because the client stopped reading: its response backlog made
   no progress for the send timeout (or exceeded the pending bound). *)
let connections_stalled =
  Telemetry.Counter.make "server.connections.send_timeout"

(* Requests answered from another request's in-flight computation
   (attached as waiters), and broadcasts delivered by leaders. *)
let coalesced_counter = Telemetry.Counter.make "server.coalesced.requests"

let coalesced_broadcasts_counter =
  Telemetry.Counter.make "server.coalesced.broadcasts"

let queue_depth_gauge = Telemetry.Gauge.make "server.queue.depth"
let request_seconds = Telemetry.Histogram.make "server.request.seconds"
let queue_wait_seconds = Telemetry.Histogram.make "server.queue.wait.seconds"

(* Observability gauges: connection counts and the queue's high-water
   mark are set where they change; queue depth, pool occupancy, GC,
   runtime and SLO gauges are sampled at scrape time ([metrics],
   [stats], SIGUSR1) — see [set_runtime_gauges]. *)
let connections_live_gauge = Telemetry.Gauge.make "server.connections.live"
let queue_high_water_gauge = Telemetry.Gauge.make "server.queue.high_water"
let queue_capacity_gauge = Telemetry.Gauge.make "server.queue.capacity"
let pool_busy_gauge = Telemetry.Gauge.make "server.pool.busy"
let inflight_gauge = Telemetry.Gauge.make "server.coalesced.inflight"
let spec_cache_entries_gauge = Telemetry.Gauge.make "server.spec_cache.entries"
let uptime_gauge = Telemetry.Gauge.make "server.uptime.seconds"
let pool_domains_gauge = Telemetry.Gauge.make "server.pool.domains"
let gc_heap_words_gauge = Telemetry.Gauge.make "server.gc.heap_words"
let gc_major_words_gauge = Telemetry.Gauge.make "server.gc.major_words"
let gc_minor_words_gauge = Telemetry.Gauge.make "server.gc.minor_words"

let gc_major_collections_gauge =
  Telemetry.Gauge.make "server.gc.major_collections"

let gc_minor_collections_gauge =
  Telemetry.Gauge.make "server.gc.minor_collections"

let gc_compactions_gauge = Telemetry.Gauge.make "server.gc.compactions"
let slo_target_gauge = Telemetry.Gauge.make "server.slo.target"
let slo_window_gauge = Telemetry.Gauge.make "server.slo.window.seconds"
let slo_total_gauge = Telemetry.Gauge.make "server.slo.window.requests"
let slo_bad_gauge = Telemetry.Gauge.make "server.slo.window.bad"
let slo_success_rate_gauge = Telemetry.Gauge.make "server.slo.success_rate"
let slo_burn_rate_gauge = Telemetry.Gauge.make "server.slo.burn_rate"

let slo_budget_remaining_gauge =
  Telemetry.Gauge.make "server.slo.error_budget_remaining"

let slo_met_gauge = Telemetry.Gauge.make "server.slo.met"
let traces_sampled_counter = Telemetry.Counter.make "server.traces.sampled"

(* Per-trace collector overflow, summed across requests at finish. *)
let trace_spans_dropped_counter =
  Telemetry.Counter.make "server.trace.spans.dropped"

(* Host pressure: sampled at scrape time like the GC gauges. Dotted
   names render as process_cpu_seconds_total / process_open_fds /
   process_threads_live in the Prometheus exposition. *)
let process_cpu_gauge = Telemetry.Gauge.make "process.cpu.seconds.total"
let process_fds_gauge = Telemetry.Gauge.make "process.open.fds"
let process_threads_gauge = Telemetry.Gauge.make "process.threads.live"

(* Counters whose dispatch-to-finish deltas a sampled trace records as
   its resource attribution: where the request's search and solver
   work actually went. Process-wide, so concurrent requests bleed into
   each other's deltas — an attribution hint, not an exact ledger. *)
let attributed_counters =
  [
    "search.candidates.generated";
    "search.candidates.evaluated";
    "search.eval.downtime.fresh";
    "search.eval.downtime.reused";
    "avail.engine.analytic.calls";
    "avail.engine.exact.calls";
    "markov.birth_death.solves";
    "markov.gth.solves";
    "parallel.tasks.queued";
    "parallel.tasks.executed";
  ]

(* ------------------------------------------------------------------ *)
(* Configuration *)

type transport = Unix_socket of string | Tcp of { host : string; port : int }

type config = {
  transport : transport;
  jobs : int;
  queue_capacity : int;
  max_conns : int;
  coalesce : bool;
  default_deadline_ms : float option;
  send_timeout_s : float;
  log_path : string option;
  slo : Slo.config;
  trace_sample : float;
  trace_ring : int;
}

(* [Unix.select] caps fds at FD_SETSIZE (1024 on Linux); the default
   connection limit leaves headroom for the listener, the wakeup pipe,
   spec files and the log. *)
let max_conns_ceiling = 1000

let default_config transport =
  {
    transport;
    jobs = Domain.recommended_domain_count ();
    queue_capacity = 128;
    max_conns = 900;
    coalesce = true;
    default_deadline_ms = None;
    send_timeout_s = 10.;
    log_path = None;
    slo = Slo.default_config;
    trace_sample = 0.;
    trace_ring = 256;
  }

(* Stop reading a connection whose response backlog is above this:
   readiness-level backpressure instead of unbounded buffering. *)
let read_pause_bytes = 256 * 1024

(* A backlog above this means the client will never catch up: drop it. *)
let out_kill_bytes = 8 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Connections *)

(* One event-loop thread owns every fd: it accepts, reads, parses and
   closes. Search domains never accept, read or close a socket — they
   enqueue response bytes under [out_mutex] and wake the loop, which flushes
   when the fd is writable. [conn_open] (under [out_mutex]) is the
   enqueue guard; only the event loop clears it and closes the fd, so
   the fd is never used after close (no fd-reuse races). Fields other
   than the out-queue group are event-loop-private, except
   [outstanding] (atomic: admitted-but-unanswered requests, used to
   delay close-on-EOF until pipelined responses flush). *)
type conn = {
  fd : Unix.file_descr;
  conn_id : int;  (** Monotone accept sequence; keys the request log. *)
  framing : Framing.t;
  outstanding : int Atomic.t;
  out_mutex : Mutex.t;
  out_q : string Queue.t;
  mutable out_off : int;  (** Bytes of the head chunk already written. *)
  mutable out_bytes : int;
  mutable out_dead : bool;  (** Client hung up / backlog overflow. *)
  mutable stall_since : float;  (** Last write progress, when pending. *)
  mutable conn_open : bool;
  mutable r_eof : bool;
  mutable want_close : bool;  (** Close once the backlog flushes. *)
}

type waiter = {
  w_conn : conn;
  w_version : int;
  w_id : Json.t;
  w_lifecycle : Lifecycle.t;
}

(* What a leader's computation resolves to; broadcast verbatim to every
   waiter — errors too, so waiters share the leader's fate. *)
type verdict = (Json.t, Protocol.error_code * string) result

type job = {
  conn : conn;
  request : Protocol.request;
  enqueued_at : float;
  lifecycle : Lifecycle.t;
  key : string option;  (** In-flight registry key this job leads. *)
}

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  port : int option;
  loop : Event_loop.t;
  inflight : (waiter, verdict) Inflight.t;
  pool : Pool.t;  (** Search domains; its lane is the admission queue. *)
  search_config : Aved_search.Search_config.t;
  specs : Spec_cache.t;
  registry : Telemetry.t;
  slo : Slo.t;
  traces : Trace_store.t;
  exemplars : Exemplars.t;
  log : Request_log.t option;
  started_at : float;
  stopping : bool Atomic.t;
  snapshot_requested : bool Atomic.t; (* set by SIGUSR1 *)
  next_conn_id : int Atomic.t;
  queue_high_water : int Atomic.t;
  connections_live : int Atomic.t;
  conns : (Unix.file_descr, conn) Hashtbl.t;  (* event-loop thread only *)
}

(* Write as much of the backlog as the socket accepts right now.
   Caller holds [out_mutex] and has checked [conn_open && not out_dead]
   (the fd cannot be closed underneath us: {!close_conn} clears
   [conn_open] under the same mutex before closing). EAGAIN just parks
   the rest for the next writable event; a hard write error marks the
   connection dead (the sweep closes it). *)
let flush_locked conn =
  let progress = ref true in
  while !progress && not (Queue.is_empty conn.out_q) do
    let head = Queue.peek conn.out_q in
    let len = String.length head in
    match Unix.write_substring conn.fd head conn.out_off (len - conn.out_off)
    with
    | 0 -> progress := false
    | n ->
        conn.out_off <- conn.out_off + n;
        conn.out_bytes <- conn.out_bytes - n;
        conn.stall_since <- Telemetry.now_seconds ();
        if conn.out_off = len then begin
          ignore (Queue.pop conn.out_q);
          conn.out_off <- 0
        end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        progress := false
    | exception (Unix.Unix_error _ | Sys_error _) ->
        conn.out_dead <- true;
        Queue.clear conn.out_q;
        conn.out_bytes <- 0;
        conn.out_off <- 0
  done

(* Enqueue a response line and try to write it out inline — the fast
   path. With an empty backlog and a draining peer the write usually
   completes here, on the search domain that answered, and the event loop
   never hears about the response at all; only a partial write (slow
   reader) or a newly-dead connection needs the loop woken, for write
   interest or the sweep. Never blocks: the fd is non-blocking and the
   inline flush stops at EAGAIN. Called from search domains and from
   the event loop itself. *)
let send_line t conn line =
  Mutex.lock conn.out_mutex;
  let accepted = conn.conn_open && not conn.out_dead in
  if accepted then begin
    let data = line ^ "\n" in
    if conn.out_bytes = 0 then conn.stall_since <- Telemetry.now_seconds ();
    Queue.push data conn.out_q;
    conn.out_bytes <- conn.out_bytes + String.length data;
    if conn.out_bytes > out_kill_bytes then begin
      conn.out_dead <- true;
      Queue.clear conn.out_q;
      conn.out_bytes <- 0;
      conn.out_off <- 0
    end
    else flush_locked conn
  end;
  let need_loop = accepted && (conn.out_dead || conn.out_bytes > 0) in
  Mutex.unlock conn.out_mutex;
  if need_loop then Event_loop.wakeup t.loop

(* The slow path: flush when select reports the fd writable. *)
let flush_conn conn =
  Mutex.lock conn.out_mutex;
  if conn.conn_open && not conn.out_dead then flush_locked conn;
  Mutex.unlock conn.out_mutex

(* Event-loop thread only. *)
let close_conn t conn =
  Mutex.lock conn.out_mutex;
  let was_open = conn.conn_open in
  conn.conn_open <- false;
  Queue.clear conn.out_q;
  conn.out_bytes <- 0;
  conn.out_off <- 0;
  Mutex.unlock conn.out_mutex;
  if was_open then begin
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    Hashtbl.remove t.conns conn.fd;
    Telemetry.Counter.incr connections_closed;
    Atomic.decr t.connections_live;
    Telemetry.Gauge.set connections_live_gauge
      (float_of_int (Atomic.get t.connections_live))
  end

(* ------------------------------------------------------------------ *)
(* Parameter decoding *)

exception Bad_params of string

let bad_params fmt = Printf.ksprintf (fun m -> raise (Bad_params m)) fmt
let find_param params name = List.assoc_opt name params

let string_param params name =
  match find_param params name with
  | Some (Json.String s) -> Some s
  | Some _ -> bad_params "param %S must be a string" name
  | None -> None

let required_string params name =
  match string_param params name with
  | Some s -> s
  | None -> bad_params "missing required param %S" name

let number_param params name =
  match find_param params name with
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | Some _ -> bad_params "param %S must be a number" name
  | None -> None

let int_param params name ~default =
  match find_param params name with
  | Some (Json.Int i) -> i
  | Some _ -> bad_params "param %S must be an integer" name
  | None -> default

let bool_param params name ~default =
  match find_param params name with
  | Some (Json.Bool b) -> b
  | Some _ -> bad_params "param %S must be a boolean" name
  | None -> default

let requirements_of_params params =
  let load = number_param params "load" in
  let downtime = number_param params "downtime_minutes" in
  let job_hours = number_param params "job_hours" in
  match (load, downtime, job_hours) with
  | Some load, Some minutes, None ->
      Model.Requirements.enterprise ~throughput:load
        ~max_annual_downtime:(Duration.of_minutes minutes)
  | None, None, Some hours ->
      Model.Requirements.finite_job
        ~max_execution_time:(Duration.of_hours hours)
  | _ ->
      raise
        (Bad_params
           "specify either \"load\" and \"downtime_minutes\", or \
            \"job_hours\" alone")

let load_checked t ~no_check ~infra_file ~service_file =
  let loaded = Spec_cache.load t.specs ~infra_file ~service_file in
  if (not no_check) && loaded.Spec_cache.check_errors <> [] then
    failwith
      (Printf.sprintf
         "static check failed with %d error(s); set \"no_check\":true to \
          override"
         (List.length loaded.Spec_cache.check_errors));
  (loaded.Spec_cache.infra, loaded.Spec_cache.service)

let resolve_tier service = function
  | Some name -> (
      match Model.Service.find_tier service name with
      | Some tier -> tier
      | None -> failwith (Printf.sprintf "no tier %S" name))
  | None -> List.hd service.Model.Service.tiers

(* ------------------------------------------------------------------ *)
(* Request lifecycle: SLO accounting and the structured log *)

(* The SLO covers the work verbs; monitoring traffic (health, stats,
   metrics) and lines that never parsed to a verb are excluded, so
   dashboard polling and port scanners cannot move the measured
   availability in either direction. *)
let slo_eligible_verb = function
  | "design" | "frontier" | "explain" | "check" -> true
  | _ -> false

(* Outcomes the SLO counts as served: a prompt, well-formed answer —
   including a user error, which is a correct answer to a bad request.
   Shed, deadline-exceeded, shutting-down and internal outcomes spend
   error budget, as does a served answer above the latency budget. *)
let outcome_served = function
  | "ok" | "user-error" | "bad-request" -> true
  | _ -> false

(* Outcome strings in log records and SLO accounting stay on the v1
   spelling regardless of the request's wire dialect: they are an
   internal vocabulary, and PR 7's log consumers pin them. *)
let outcome_of_code code = Protocol.error_code_to_string ~version:1 code

(* Close one request's lifecycle: record it against the SLO, observe
   the per-verb/per-stage histograms, and append the structured log
   record. Called exactly once per request line, on every path —
   answered, coalesced, shed, refused, malformed. For sampled requests
   this is also where the finished span tree enters the trace ring and
   the latency exemplars are recorded. *)
let finish_lifecycle t lifecycle ~outcome =
  if slo_eligible_verb (Lifecycle.verb lifecycle) then
    Slo.record t.slo
      ~now:(Telemetry.now_seconds ())
      ~ok:(outcome_served outcome)
      ~latency_s:(Lifecycle.elapsed_s lifecycle);
  let record =
    Lifecycle.finish lifecycle ~outcome
      ~slow_threshold_s:t.config.slo.Slo.latency_budget_s
  in
  (match Lifecycle.trace lifecycle with
  | None -> ()
  | Some trace ->
      let now = Telemetry.now_seconds () in
      let trace_id = Lifecycle.trace_id lifecycle in
      let verb = Lifecycle.verb lifecycle in
      let total_s = Lifecycle.elapsed_s lifecycle in
      let dropped = Telemetry.Trace.dropped trace in
      if dropped > 0 then
        Telemetry.Counter.add trace_spans_dropped_counter dropped;
      let counters =
        match Telemetry.Trace.baseline trace with
        | [] -> [] (* never dispatched: shed, malformed, refused *)
        | baseline ->
            List.filter_map
              (fun (name, before) ->
                let delta =
                  Telemetry.Counter.read_by_name t.registry name - before
                in
                if delta <> 0 then Some (name, delta) else None)
              baseline
      in
      Trace_store.add t.traces
        {
          Trace_store.trace_id;
          verb;
          conn_id = Lifecycle.conn_id lifecycle;
          outcome;
          started_s = Lifecycle.started_s lifecycle;
          total_s;
          spans = Telemetry.Trace.spans trace;
          spans_dropped = dropped;
          counters;
        };
      Exemplars.observe t.exemplars
        ~metric:(Printf.sprintf "server.verb.%s.seconds" verb)
        ~trace_id ~value:total_s ~now;
      Exemplars.observe t.exemplars ~metric:"server.request.seconds"
        ~trace_id ~value:total_s ~now);
  Option.iter (fun log -> Request_log.write log record) t.log

(* ------------------------------------------------------------------ *)
(* Verb handlers — each renders through the same Api encoder the CLI's
   --json flag uses, at the request's negotiated schema version, which
   is what makes responses byte-identical per dialect. *)

let handle_design t ~version params =
  let infra_file = required_string params "infra_file" in
  let service_file = required_string params "service_file" in
  let no_check = bool_param params "no_check" ~default:false in
  let requirements = requirements_of_params params in
  let infra, service = load_checked t ~no_check ~infra_file ~service_file in
  let report =
    Aved.Engine.design ~config:t.search_config ~pool:t.pool infra service
      requirements
  in
  Api.design_result_to_json ~version (Api.design_result_of_report report)

let handle_frontier t ~version params =
  let infra_file = required_string params "infra_file" in
  let service_file = required_string params "service_file" in
  let no_check = bool_param params "no_check" ~default:false in
  let load =
    match number_param params "load" with
    | Some l -> l
    | None -> bad_params "missing required param %S" "load"
  in
  let infra, service = load_checked t ~no_check ~infra_file ~service_file in
  let tier = resolve_tier service (string_param params "tier") in
  let frontier =
    Aved_search.Tier_search.frontier ~pool:t.pool t.search_config infra ~tier
      ~demand:load
  in
  Api.frontier_result_to_json ~version
    (Api.frontier_result_of_candidates ~tier:tier.Model.Service.tier_name
       ~demand:load frontier)

let handle_explain t ~version params =
  let infra_file = required_string params "infra_file" in
  let service_file = required_string params "service_file" in
  let no_check = bool_param params "no_check" ~default:false in
  let top = int_param params "top" ~default:5 in
  let requirements = requirements_of_params params in
  let infra, service = load_checked t ~no_check ~infra_file ~service_file in
  let trail = Aved_search.Provenance.create () in
  let explanation =
    Aved_search.Provenance.with_trail trail (fun () ->
        Aved.Engine.design ~config:t.search_config ~pool:t.pool infra service
          requirements)
    |> Option.map (fun report ->
           Aved.Engine.explain ~top ~trail ~config:t.search_config infra
             service requirements report)
  in
  Api.explain_result_to_json ~version
    (Api.explain_result_of_explanation explanation)

let handle_check ~version params =
  let files =
    match find_param params "files" with
    | Some (Json.List items) ->
        List.map
          (function
            | Json.String s -> s
            | _ -> bad_params "param %S must be a list of path strings" "files")
          items
    | Some _ -> bad_params "param %S must be a list of path strings" "files"
    | None -> bad_params "missing required param %S" "files"
  in
  if files = [] then bad_params "param %S must be non-empty" "files";
  Api.check_result_to_json ~version
    (Api.check_result_of_diagnostics (Aved_check.Check.check_files files))

let handle_health ~version () =
  Api.versioned ~version [ ("status", Json.String "ok") ]

let handle_trace t ~version params =
  let id = required_string params "trace_id" in
  match Trace_store.find t.traces id with
  | Some completed ->
      Api.versioned ~version [ ("trace", Trace_store.to_json completed) ]
  | None ->
      failwith
        (Printf.sprintf
           "no completed trace %S: not sampled (see serve --trace-sample), \
            not finished yet, or evicted from the ring"
           id)

let histogram_json (s : Telemetry.Histogram.summary) =
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("mean", Json.Float (Telemetry.Histogram.mean s));
      ("p50", Json.Float (Telemetry.Histogram.quantile_est s 0.5));
      ("p95", Json.Float (Telemetry.Histogram.quantile_est s 0.95));
      ("p99", Json.Float (Telemetry.Histogram.quantile_est s 0.99));
    ]

(* GC, runtime, occupancy and SLO gauges are sampled here — at scrape
   time — rather than on the request path, so their cost is paid by
   whoever asks ([metrics], [stats], SIGUSR1), never by a request. *)
let set_runtime_gauges t =
  let gc = Gc.quick_stat () in
  Telemetry.Gauge.set gc_heap_words_gauge (float_of_int gc.Gc.heap_words);
  Telemetry.Gauge.set gc_major_words_gauge gc.Gc.major_words;
  Telemetry.Gauge.set gc_minor_words_gauge gc.Gc.minor_words;
  Telemetry.Gauge.set gc_major_collections_gauge
    (float_of_int gc.Gc.major_collections);
  Telemetry.Gauge.set gc_minor_collections_gauge
    (float_of_int gc.Gc.minor_collections);
  Telemetry.Gauge.set gc_compactions_gauge (float_of_int gc.Gc.compactions);
  Telemetry.Gauge.set process_cpu_gauge (Process_stats.cpu_seconds ());
  Option.iter
    (fun n -> Telemetry.Gauge.set process_fds_gauge (float_of_int n))
    (Process_stats.open_fds ());
  Option.iter
    (fun n -> Telemetry.Gauge.set process_threads_gauge (float_of_int n))
    (Process_stats.live_threads ());
  Telemetry.Gauge.set uptime_gauge (Telemetry.now_seconds () -. t.started_at);
  Telemetry.Gauge.set pool_domains_gauge (float_of_int t.config.jobs);
  Telemetry.Gauge.set pool_busy_gauge (float_of_int (Pool.lane_busy t.pool));
  Telemetry.Gauge.set queue_depth_gauge
    (float_of_int (Pool.lane_depth t.pool));
  Telemetry.Gauge.set queue_capacity_gauge
    (float_of_int t.config.queue_capacity);
  Telemetry.Gauge.set queue_high_water_gauge
    (float_of_int (Atomic.get t.queue_high_water));
  Telemetry.Gauge.set inflight_gauge (float_of_int (Inflight.length t.inflight));
  Telemetry.Gauge.set spec_cache_entries_gauge
    (float_of_int (Spec_cache.length t.specs));
  Telemetry.Gauge.set connections_live_gauge
    (float_of_int (Atomic.get t.connections_live));
  let snap = Slo.snapshot t.slo ~now:(Telemetry.now_seconds ()) in
  Telemetry.Gauge.set slo_target_gauge snap.Slo.target;
  Telemetry.Gauge.set slo_window_gauge snap.Slo.window_seconds;
  Telemetry.Gauge.set slo_total_gauge (float_of_int snap.Slo.total);
  Telemetry.Gauge.set slo_bad_gauge (float_of_int snap.Slo.bad);
  Telemetry.Gauge.set slo_success_rate_gauge snap.Slo.success_rate;
  Telemetry.Gauge.set slo_burn_rate_gauge snap.Slo.burn_rate;
  Telemetry.Gauge.set slo_budget_remaining_gauge snap.Slo.budget_remaining;
  Telemetry.Gauge.set slo_met_gauge (if snap.Slo.met then 1. else 0.);
  snap

let slo_json (s : Slo.snapshot) =
  Json.Obj
    [
      ("target", Json.Float s.Slo.target);
      ("window_seconds", Json.Float s.Slo.window_seconds);
      ("requests", Json.Int s.Slo.total);
      ("good", Json.Int s.Slo.good);
      ("bad", Json.Int s.Slo.bad);
      ("success_rate", Json.Float s.Slo.success_rate);
      ("error_budget", Json.Float s.Slo.error_budget);
      ("burn_rate", Json.Float s.Slo.burn_rate);
      ("budget_remaining", Json.Float s.Slo.budget_remaining);
      ("met", Json.Bool s.Slo.met);
    ]

let handle_metrics t ~version =
  ignore (set_runtime_gauges t);
  let body =
    Prometheus.render ~exemplars:t.exemplars
      ~extra_counters:
        [ ("server.trace.ring.evictions", Trace_store.evictions t.traces) ]
      t.registry
  in
  Api.metrics_result_to_json ~version
    { Api.metrics_content_type = Prometheus.content_type; body }

let handle_stats t ~version =
  let snap = set_runtime_gauges t in
  Api.versioned ~version
    [
      ( "uptime_seconds",
        Json.Float (Telemetry.now_seconds () -. t.started_at) );
      ( "queue",
        Json.Obj
          [
            ("depth", Json.Int (Pool.lane_depth t.pool));
            ("capacity", Json.Int t.config.queue_capacity);
            ("high_water", Json.Int (Atomic.get t.queue_high_water));
            ( "shed",
              Json.Int (Telemetry.Counter.read t.registry shed_counter) );
            ( "deadline_exceeded",
              Json.Int (Telemetry.Counter.read t.registry deadline_counter) );
          ] );
      ( "connections",
        Json.Obj
          [
            ("live", Json.Int (Atomic.get t.connections_live));
            ( "opened",
              Json.Int (Telemetry.Counter.read t.registry connections_opened)
            );
            ( "closed",
              Json.Int (Telemetry.Counter.read t.registry connections_closed)
            );
            ( "rejected",
              Json.Int (Telemetry.Counter.read t.registry connections_rejected)
            );
          ] );
      ( "coalescing",
        Json.Obj
          [
            ("enabled", Json.Bool t.config.coalesce);
            ("inflight", Json.Int (Inflight.length t.inflight));
            ( "coalesced",
              Json.Int (Telemetry.Counter.read t.registry coalesced_counter) );
            ( "broadcasts",
              Json.Int
                (Telemetry.Counter.read t.registry coalesced_broadcasts_counter)
            );
          ] );
      ("slo", slo_json snap);
      ( "spec_cache",
        Json.Obj
          [
            ("entries", Json.Int (Spec_cache.length t.specs));
            ( "hits",
              Json.Int (Telemetry.Counter.read t.registry Spec_cache.hits) );
            ( "misses",
              Json.Int (Telemetry.Counter.read t.registry Spec_cache.misses) );
          ] );
      ( "counters",
        Json.Obj
          (List.map
             (fun (name, v) -> (name, Json.Int v))
             (Telemetry.counters t.registry)) );
      ( "gauges",
        Json.Obj
          (List.map
             (fun (name, v) -> (name, Json.Float v))
             (Telemetry.gauges t.registry)) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (name, s) -> (name, histogram_json s))
             (Telemetry.histograms t.registry)) );
    ]

(* ------------------------------------------------------------------ *)
(* Dispatch *)

(* Answer one attached waiter from the leader's verdict: personalized
   envelope (its own id, negotiated version, trace id) around the
   shared result, [coalesced:true] on v2 success. Runs on the leader's
   search domain; stage spans for waiters skip "queue" — they
   never occupied a queue slot. *)
let broadcast_waiter t ~body w (verdict : verdict) =
  let lc = w.w_lifecycle in
  let trace_id = Lifecycle.trace_id lc in
  Lifecycle.stamp lc "handle";
  let line, outcome =
    match verdict with
    | Ok _ ->
        Telemetry.Counter.incr responses_ok;
        ( Protocol.ok_response_rendered ~version:w.w_version ~trace_id
            ~coalesced:true ~id:w.w_id (Lazy.force body),
          "ok" )
    | Error (code, message) ->
        Telemetry.Counter.incr responses_error;
        ( Protocol.error_response ~version:w.w_version ~trace_id ~id:w.w_id
            code message,
          outcome_of_code code )
  in
  Lifecycle.stamp lc "encode";
  send_line t w.w_conn line;
  Lifecycle.stamp lc "write";
  Atomic.decr w.w_conn.outstanding;
  finish_lifecycle t lc ~outcome

(* Every minor collection also stops the event loop's domain, a context
   switch each way where they share a CPU, so each search domain sizes
   its own minor heap at 1 Mi words: a quarter of the collections. *)
let search_domain_gc =
  Domain.DLS.new_key (fun () ->
      Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20 })

let handle_request t (job : job) =
  Domain.DLS.get search_domain_gc;
  let request = job.request in
  let lc = job.lifecycle in
  Lifecycle.stamp lc "queue";
  Telemetry.Counter.incr (List.assoc request.Protocol.verb request_counters);
  let waited = Telemetry.now_seconds () -. job.enqueued_at in
  Telemetry.Histogram.observe queue_wait_seconds waited;
  let deadline_ms =
    match request.Protocol.deadline_ms with
    | Some ms -> Some ms
    | None -> t.config.default_deadline_ms
  in
  let verdict : verdict =
    match deadline_ms with
    | Some ms when waited *. 1000. > ms ->
        Telemetry.Counter.incr deadline_counter;
        Error
          ( Protocol.Deadline_exceeded,
            Printf.sprintf
              "request waited %.0f ms in queue, over its %.0f ms deadline"
              (waited *. 1000.) ms )
    | Some _ | None -> (
        let verb_name = Protocol.verb_to_string request.Protocol.verb in
        (* Sampled requests: snapshot the attributed counters and
           install the trace context (parented under the handle-stage
           span) for the handler — every [with_span] below this point,
           including on pool worker domains, lands in the tree. *)
        let trace_ctx = Lifecycle.handle_context lc in
        (match Lifecycle.trace lc with
        | Some trace ->
            Telemetry.Trace.set_baseline trace
              (List.map
                 (fun name ->
                   (name, Telemetry.Counter.read_by_name t.registry name))
                 attributed_counters)
        | None -> ());
        let version = request.Protocol.version in
        match
          Telemetry.Trace.with_context trace_ctx @@ fun () ->
          Telemetry.with_span ("serve." ^ verb_name) @@ fun () ->
          Telemetry.Histogram.time request_seconds @@ fun () ->
          match request.Protocol.verb with
          | Protocol.Design -> handle_design t ~version request.Protocol.params
          | Protocol.Frontier ->
              handle_frontier t ~version request.Protocol.params
          | Protocol.Explain ->
              handle_explain t ~version request.Protocol.params
          | Protocol.Check -> handle_check ~version request.Protocol.params
          | Protocol.Health -> handle_health ~version ()
          | Protocol.Stats -> handle_stats t ~version
          | Protocol.Metrics -> handle_metrics t ~version
          | Protocol.Trace -> handle_trace t ~version request.Protocol.params
        with
        | result -> Ok result
        | exception Bad_params message -> Error (Protocol.Bad_request, message)
        | exception Failure message -> Error (Protocol.User_error, message)
        | exception Sys_error message -> Error (Protocol.User_error, message)
        | exception exn -> (
            match Aved_spec.Spec.error_to_string exn with
            | Some message -> Error (Protocol.User_error, message)
            | None -> Error (Protocol.Internal, Printexc.to_string exn)))
  in
  let trace_id = Lifecycle.trace_id lc in
  Lifecycle.stamp lc "handle";
  (* Serialize a successful result once; the leader's envelope and
     every waiter's broadcast splice the same rendered body (safe
     because waiters share the leader's negotiated version — it is
     part of the coalescing key). *)
  let body =
    match verdict with
    | Ok result -> lazy (Json.to_string result)
    | Error _ -> lazy ""
  in
  let line, outcome =
    match verdict with
    | Ok _ ->
        Telemetry.Counter.incr responses_ok;
        ( Protocol.ok_response_rendered ~version:request.Protocol.version
            ~trace_id ~coalesced:false ~id:request.Protocol.id
            (Lazy.force body),
          "ok" )
    | Error (code, message) ->
        Telemetry.Counter.incr responses_error;
        ( Protocol.error_response ~version:request.Protocol.version ~trace_id
            ~id:request.Protocol.id code message,
          outcome_of_code code )
  in
  Lifecycle.stamp lc "encode";
  send_line t job.conn line;
  Lifecycle.stamp lc "write";
  Atomic.decr job.conn.outstanding;
  finish_lifecycle t lc ~outcome;
  (* Only now resolve the in-flight entry: every waiter that attached
     while the computation ran gets the shared verdict — errors and
     deadline losses included (shared fate). *)
  match job.key with
  | None -> ()
  | Some key ->
      let waiters =
        Inflight.complete t.inflight ~key ~result:verdict
          ~broadcast:(broadcast_waiter t ~body)
      in
      if waiters > 0 then
        Telemetry.Counter.add coalesced_broadcasts_counter waiters

(* ------------------------------------------------------------------ *)
(* Admission (event-loop thread) *)

(* Raise the high-water mark with a CAS loop: kept CAS although only
   the event loop pushes now, so the invariant survives any future
   second admission path. *)
let raise_high_water t depth =
  let rec bump () =
    let seen = Atomic.get t.queue_high_water in
    if depth > seen then
      if not (Atomic.compare_and_set t.queue_high_water seen depth) then
        bump ()
  in
  bump ();
  Telemetry.Gauge.set queue_high_water_gauge
    (float_of_int (Atomic.get t.queue_high_water))

(* Answer an error from the event loop itself (parse failures, shed,
   draining): the request never reaches a search domain. *)
let refuse t conn lifecycle ~version ~id code message =
  Telemetry.Counter.incr responses_error;
  send_line t conn
    (Protocol.error_response ~version
       ~trace_id:(Lifecycle.trace_id lifecycle)
       ~id code message);
  Lifecycle.stamp lifecycle "write";
  finish_lifecycle t lifecycle ~outcome:(outcome_of_code code)

(* Hand a request to the search domains, or answer the refusal when
   the lane is full or closed; true when it was queued. [outstanding]
   counts the request before any domain can answer it, so the sweep
   never sees the count dip below zero. *)
let enqueue t conn lifecycle (request : Protocol.request) key =
  let job =
    {
      conn;
      request;
      enqueued_at = Telemetry.now_seconds ();
      lifecycle;
      key;
    }
  in
  Atomic.incr conn.outstanding;
  let refuse = refuse t conn lifecycle ~version:request.Protocol.version in
  match Pool.submit t.pool (fun () -> handle_request t job) with
  | `Queued ->
      raise_high_water t (Pool.lane_depth t.pool);
      true
  | `Closed ->
      Atomic.decr conn.outstanding;
      refuse ~id:request.Protocol.id Protocol.Shutting_down
        "server is draining; retry elsewhere";
      false
  | `Full ->
      Atomic.decr conn.outstanding;
      Telemetry.Counter.incr shed_counter;
      refuse ~id:request.Protocol.id Protocol.Overloaded
        (Printf.sprintf "admission queue is full (capacity %d); retry later"
           t.config.queue_capacity);
      false

(* Admission decides coalescing: a work request whose content hash
   matches an in-flight computation attaches as a waiter — consuming
   no queue slot and no search domain — and is answered by the leader's
   broadcast. All claims happen here, on the single event-loop thread,
   so a Leader claim and its queue push cannot interleave with another
   claim for the same key. *)
let admit t conn lifecycle (request : Protocol.request) =
  Lifecycle.stamp lifecycle "admit";
  let key = if t.config.coalesce then Protocol.coalesce_key request else None in
  match key with
  | None -> ignore (enqueue t conn lifecycle request None)
  | Some key -> (
      let waiter =
        {
          w_conn = conn;
          w_version = request.Protocol.version;
          w_id = request.Protocol.id;
          w_lifecycle = lifecycle;
        }
      in
      match Inflight.claim t.inflight ~key ~waiter with
      | `Attached ->
          Telemetry.Counter.incr coalesced_counter;
          Atomic.incr conn.outstanding
      | `Leader ->
          if not (enqueue t conn lifecycle request (Some key)) then
            (* Remove the claim so the key does not wedge; any waiter
               that could have attached in between would be broadcast
               the same refusal (none can, on this single thread). *)
            ignore
              (Inflight.complete t.inflight ~key
                 ~result:
                   (Error (Protocol.Overloaded, "admission queue is full"))
                 ~broadcast:(broadcast_waiter t ~body:(lazy ""))))

(* The head-sampling decision is taken here, once per request line:
   sampled requests get a span collector that rides the lifecycle to
   the search domain and into the engines. Deciding from the trace id
   keeps it deterministic and free of shared state. *)
let start_lifecycle t ~verb ~conn_id ~req_id ~now =
  let trace_id = Trace_id.fresh () in
  let trace =
    if Trace_id.sampled trace_id ~rate:t.config.trace_sample then begin
      Telemetry.Counter.incr traces_sampled_counter;
      Some (Telemetry.Trace.create ~trace_id ())
    end
    else None
  in
  Lifecycle.start ?trace ~trace_id ~verb ~conn_id ~req_id ~now ()

(* One complete request line from the framing layer. The catch-all
   keeps a malicious or pathological line (one that trips an unexpected
   exception in parsing/admission) from killing the event loop: answer
   Internal and carry on. *)
let handle_line t conn ~t_read line =
  if String.trim line <> "" then
    match
      match Protocol.request_of_line line with
      | Ok request ->
          let lifecycle =
            start_lifecycle t
              ~verb:(Protocol.verb_to_string request.Protocol.verb)
              ~conn_id:conn.conn_id ~req_id:request.Protocol.id ~now:t_read
          in
          Lifecycle.stamp lifecycle "parse";
          admit t conn lifecycle request
      | Error (version, message) ->
          (* Never parsed to a verb, so it still gets a trace id and a
             log record, but under the reserved verb "invalid" which
             the SLO ignores. *)
          let lifecycle =
            start_lifecycle t ~verb:"invalid" ~conn_id:conn.conn_id
              ~req_id:Json.Null ~now:t_read
          in
          Lifecycle.stamp lifecycle "parse";
          refuse t conn lifecycle ~version ~id:Json.Null Protocol.Bad_request
            message
    with
    | () -> ()
    | exception exn ->
        Telemetry.Counter.incr responses_error;
        send_line t conn
          (Protocol.error_response ~id:Json.Null Protocol.Internal
             (Printf.sprintf "unexpected error reading request: %s"
                (Printexc.to_string exn)))

(* ------------------------------------------------------------------ *)
(* The event loop *)

let register_conn t fd =
  Unix.set_nonblock fd;
  let conn =
    {
      fd;
      conn_id = Atomic.fetch_and_add t.next_conn_id 1;
      framing = Framing.create ();
      outstanding = Atomic.make 0;
      out_mutex = Mutex.create ();
      out_q = Queue.create ();
      out_off = 0;
      out_bytes = 0;
      out_dead = false;
      stall_since = 0.;
      conn_open = true;
      r_eof = false;
      want_close = false;
    }
  in
  Hashtbl.replace t.conns fd conn;
  Telemetry.Counter.incr connections_opened;
  Atomic.incr t.connections_live;
  Telemetry.Gauge.set connections_live_gauge
    (float_of_int (Atomic.get t.connections_live));
  conn

let rec accept_burst t =
  if not (Atomic.get t.stopping) then
    match Unix.accept ~cloexec:true t.listen_fd with
    | exception
        Unix.Unix_error
          ((EINTR | ECONNABORTED | EAGAIN | EWOULDBLOCK), _, _) ->
        ()
    | fd, _addr ->
        let conn = register_conn t fd in
        if Atomic.get t.connections_live > t.config.max_conns then begin
          Telemetry.Counter.incr connections_rejected;
          conn.want_close <- true;
          Telemetry.Counter.incr responses_error;
          send_line t conn
            (Protocol.error_response ~id:Json.Null Protocol.Overloaded
               (Printf.sprintf
                  "connection limit reached (max-conns %d); retry later"
                  t.config.max_conns))
        end;
        accept_burst t

let handle_readable t buf conn =
  match Unix.read conn.fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception (Unix.Unix_error _ | Sys_error _) ->
      conn.r_eof <- true;
      conn.out_dead <- true
  | 0 -> conn.r_eof <- true
  | n -> (
      let t_read = Telemetry.now_seconds () in
      match Framing.feed conn.framing buf ~len:n with
      | Ok lines -> List.iter (handle_line t conn ~t_read) lines
      | Error message ->
          (* The stream cannot be re-synchronized: answer once, then
             close after the error flushes. *)
          Telemetry.Counter.incr responses_error;
          send_line t conn
            (Protocol.error_response ~id:Json.Null Protocol.Bad_request message);
          conn.want_close <- true)

(* One pass over every connection: build the interest sets for the next
   wait and collect the ones to close (dead, stalled past the send
   timeout, or fully answered after EOF/want_close). *)
let sweep_conns t ~now ~reads ~writes ~closes =
  Hashtbl.iter
    (fun fd conn ->
      Mutex.lock conn.out_mutex;
      let pending = conn.out_bytes in
      let dead = conn.out_dead in
      let stalled =
        pending > 0 && now -. conn.stall_since > t.config.send_timeout_s
      in
      Mutex.unlock conn.out_mutex;
      if dead then closes := conn :: !closes
      else if stalled then begin
        Telemetry.Counter.incr connections_stalled;
        closes := conn :: !closes
      end
      else if
        (conn.r_eof || conn.want_close)
        && pending = 0
        && Atomic.get conn.outstanding = 0
      then closes := conn :: !closes
      else begin
        if pending > 0 then writes := fd :: !writes;
        if
          (not conn.r_eof) && (not conn.want_close)
          && pending < read_pause_bytes
        then reads := fd :: !reads
      end)
    t.conns

(* SIGUSR1 snapshot: the full stats document (counters, gauges, SLO,
   GC) as one "snapshot" record in the structured log, or on stderr
   when no log is configured. *)
let dump_snapshot t =
  let stats = handle_stats t ~version:Api.schema_version in
  match t.log with
  | Some log -> Request_log.event log ~kind:"snapshot" [ ("stats", stats) ]
  | None ->
      Printf.eprintf "aved serve snapshot: %s\n%!" (Json.to_string stats)

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

(* A leftover socket path may belong to a still-running daemon: probe
   it with a connect before unlinking, and refuse to steal a live
   endpoint. A stale path (nothing accepting) is removed; failure to
   remove it is a clean user error, not an uncaught Unix_error. *)
let claim_socket_path path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    Unix.close probe;
    if live then
      failwith
        (Printf.sprintf "socket %S is in use by a running server" path);
    try Unix.unlink path
    with Unix.Unix_error (err, _, _) ->
      failwith
        (Printf.sprintf "cannot remove stale socket %S: %s" path
           (Unix.error_message err))
  end

let bind_listener = function
  | Unix_socket path ->
      claim_socket_path path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind fd (Unix.ADDR_UNIX path);
         Unix.listen fd 64
       with exn ->
         Unix.close fd;
         raise exn);
      (fd, None)
  | Tcp { host; port } ->
      let inet =
        match Unix.inet_addr_of_string host with
        | addr -> addr
        | exception Failure _ -> (
            try (Unix.gethostbyname host).Unix.h_addr_list.(0)
            with Not_found ->
              failwith (Printf.sprintf "cannot resolve host %S" host))
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.setsockopt fd Unix.SO_REUSEADDR true;
         Unix.bind fd (Unix.ADDR_INET (inet, port));
         Unix.listen fd 64
       with exn ->
         Unix.close fd;
         raise exn);
      let port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> Some p
        | Unix.ADDR_UNIX _ -> None
      in
      (fd, port)

let create config =
  if config.max_conns < 1 || config.max_conns > max_conns_ceiling then
    invalid_arg
      (Printf.sprintf "Server.create: max_conns must be within [1, %d]"
         max_conns_ceiling);
  (match Slo.validate_config config.slo with
  | Ok _ -> ()
  | Error msg -> failwith (Printf.sprintf "invalid SLO config: %s" msg));
  if
    Float.is_nan config.trace_sample
    || config.trace_sample < 0.
    || config.trace_sample > 1.
  then failwith "trace_sample must be within [0, 1]";
  if config.trace_ring < 1 then failwith "trace_ring must be >= 1";
  (* SIGPIPE would kill the process on a write to a client that hung
     up; we detect that per-connection from the write error instead. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let registry = Telemetry.create () in
  Telemetry.install registry;
  let search_config =
    Aved_search.Search_config.with_jobs config.jobs
      Aved_search.Search_config.default
  in
  let log =
    match config.log_path with
    | None -> None
    | Some path -> (
        match Request_log.open_path path with
        | log -> Some log
        | exception Sys_error msg ->
            failwith (Printf.sprintf "cannot open request log: %s" msg))
  in
  let listen_fd, port =
    try bind_listener config.transport
    with exn ->
      Option.iter Request_log.close log;
      raise exn
  in
  Unix.set_nonblock listen_fd;
  let t =
    {
      config;
      listen_fd;
      port;
      loop = Event_loop.create ();
      inflight = Inflight.create ();
      pool =
        Pool.create_serving ~jobs:config.jobs
          ~lane_capacity:config.queue_capacity;
      search_config;
      specs = Spec_cache.create ();
      registry;
      slo = Slo.create config.slo;
      traces = Trace_store.create ~capacity:config.trace_ring;
      exemplars = Exemplars.create ();
      log;
      started_at = Telemetry.now_seconds ();
      stopping = Atomic.make false;
      snapshot_requested = Atomic.make false;
      next_conn_id = Atomic.make 0;
      queue_high_water = Atomic.make 0;
      connections_live = Atomic.make 0;
      conns = Hashtbl.create 64;
    }
  in
  Option.iter
    (fun log ->
      Request_log.event log ~kind:"start"
        [
          ("pid", Json.Int (Unix.getpid ()));
          ("slo_target", Json.Float config.slo.Slo.target);
          ( "slo_latency_budget_ms",
            Json.Float (config.slo.Slo.latency_budget_s *. 1000.) );
          ("slo_window_s", Json.Float config.slo.Slo.window_s);
        ])
    t.log;
  t

let stop t =
  Atomic.set t.stopping true;
  Event_loop.wakeup t.loop

let install_signal_handlers t =
  let handler = Sys.Signal_handle (fun _ -> stop t) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler;
  (* SIGUSR1 requests a full metrics/GC snapshot. The handler only sets
     a flag; the event loop performs the dump, since writing the log
     from a signal handler would not be async-signal-safe. *)
  try
    Sys.set_signal Sys.sigusr1
      (Sys.Signal_handle (fun _ -> Atomic.set t.snapshot_requested true))
  with Invalid_argument _ | Sys_error _ -> ()

let bound_port t = t.port

let run t =
  let buf = Bytes.create 65536 in
  let drain_deadline = ref None in
  let finished = ref false in
  while not !finished do
    if Atomic.compare_and_set t.snapshot_requested true false then
      dump_snapshot t;
    (* Entering drain: stop accepting, refuse new admissions, but keep
       the loop alive — pending responses still flush, new lines are
       answered with shutting-down, and late twins can still attach to
       computations already in flight. *)
    (if Atomic.get t.stopping && !drain_deadline = None then begin
       (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
       (match t.config.transport with
       | Unix_socket path -> (
           try Unix.unlink path with Unix.Unix_error _ -> ())
       | Tcp _ -> ());
       Pool.close_lane t.pool;
       drain_deadline :=
         Some (Telemetry.now_seconds () +. t.config.send_timeout_s +. 1.0)
     end);
    let now = Telemetry.now_seconds () in
    let reads = ref [] and writes = ref [] and closes = ref [] in
    sweep_conns t ~now ~reads ~writes ~closes;
    List.iter (close_conn t) !closes;
    let draining = !drain_deadline <> None in
    let read_set = if draining then !reads else t.listen_fd :: !reads in
    (* Nothing wakes the loop when the lane settles: poll while draining. *)
    let readable, writable =
      Event_loop.wait t.loop ~read:read_set ~write:!writes
        ~timeout:(if draining then 0.01 else 0.25)
    in
    List.iter
      (fun fd ->
        match Hashtbl.find_opt t.conns fd with
        | Some conn -> flush_conn conn
        | None -> ())
      writable;
    List.iter
      (fun fd ->
        if fd = t.listen_fd && not draining then accept_burst t
        else
          match Hashtbl.find_opt t.conns fd with
          | Some conn -> handle_readable t buf conn
          | None -> ())
      readable;
    (* Drain exit: the lane is closed and empty and no request is
       running (so every admitted request was answered and every waiter
       broadcast) and every backlog byte flushed — or the grace period
       lapsed (a stalled client cannot hold shutdown hostage). *)
    match !drain_deadline with
    | None -> ()
    | Some deadline ->
        let pending =
          Hashtbl.fold (fun _ c acc -> acc + c.out_bytes) t.conns 0
        in
        if (Pool.lane_settled t.pool && pending = 0) || now > deadline then
          finished := true
  done;
  let remaining = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  List.iter (close_conn t) remaining;
  Event_loop.close t.loop;
  Pool.shutdown t.pool;
  Option.iter
    (fun log ->
      Request_log.event log ~kind:"stop"
        [
          ( "uptime_s",
            Json.Float (Telemetry.now_seconds () -. t.started_at) );
        ];
      Request_log.close log)
    t.log;
  Telemetry.uninstall ()

(** The [aved serve] daemon: a long-running design service answering
    {!Protocol} requests over a Unix-domain or TCP socket from warm
    state.

    {2 Architecture}

    One {e event loop} (the thread calling {!run}) owns every socket:
    it accepts non-blocking connections, reads ready fds into
    per-connection {!Framing} buffers, parses complete lines, and
    admits requests to the request lane of a {!Aved_parallel.Pool} of
    [jobs] search domains. Responses are enqueued into per-connection
    write buffers and flushed when the fd is writable, so an idle
    connection costs a buffer and a readiness entry instead of a
    thread. Admission never blocks: when the lane is full the request
    is shed with an explicit [overloaded] error response, so a burst
    degrades into visible backpressure rather than unbounded
    buffering. Each search domain takes a request, answers it, and
    between requests helps the other domains' searches with their
    {!Aved_parallel.Pool.map} slots. No search runs on the event
    loop's domain, and each search domain runs one thread.

    {2 Coalescing}

    Work requests (design/frontier/explain/check) carry a content-hash
    identity ({!Protocol.coalesce_key}). When a request's key matches
    a computation already in flight, it {e attaches} as a waiter
    ({!Inflight}) instead of being queued: the leader's search domain
    broadcasts the shared verdict — success or error — to every
    waiter, each wrapped in its own envelope (own [id], own trace id,
    [coalesced:true] on v2). A thundering herd of N identical requests
    runs one search. Disable with [coalesce = false].

    {2 Backpressure}

    A client that stops reading accumulates a response backlog: past
    256 KiB the loop stops reading its socket (so it cannot submit
    further work), and a backlog making no write progress for
    [send_timeout_s] (or exceeding 8 MiB) drops the connection —
    a slow reader cannot wedge a search domain or the loop.

    Warm state shared by every request: the domain pool (each domain
    keeps its own {!Aved_search.Eval_cache}, used by that domain's one
    thread alone), a content-hash cache of parsed specification pairs
    ({!Spec_cache}), and a telemetry registry whose counters and
    histograms the [stats] verb reports.

    {2 Deadlines}

    A request may carry ["deadline_ms"], a queueing budget: a request
    still queued when its budget lapses is answered with a deadline
    error instead of being executed. The deadline bounds time-in-queue,
    not execution — an admitted request runs to completion. Waiters
    share their leader's fate, deadline losses included.

    {2 Shutdown}

    {!stop} (or SIGTERM/SIGINT after {!install_signal_handlers})
    initiates a graceful drain: the listener closes, new requests are
    answered with [shutting-down] (late twins may still attach to
    in-flight computations), every request already admitted is
    executed, answered and broadcast, pending response bytes flush,
    then connections close and {!run} returns. A stalled client cannot
    hold shutdown hostage: the grace period is bounded by
    [send_timeout_s] plus one second.

    {2 Parity}

    Results are byte-identical to the one-shot CLI: handlers render
    through the same {!Aved_api.Api} encoders the [--json] flags use
    at the request's negotiated schema version, and the evaluation
    cache returns bitwise the value Engine A computes. *)

type transport = Unix_socket of string | Tcp of { host : string; port : int }

type config = {
  transport : transport;
  jobs : int;
      (** Search domains, beside the event loop's: each takes admitted
          requests and helps the others' searches. *)
  queue_capacity : int;  (** Admission queue (request lane) bound. *)
  max_conns : int;
      (** Concurrent connection bound (within [1, 1000] — the event
          loop multiplexes with [Unix.select], whose FD_SETSIZE is
          1024). Connections over the limit are answered with one
          [overloaded] envelope and closed
          ([server.connections.rejected]). *)
  coalesce : bool;
      (** Attach identical in-flight work requests to one computation
          ([server.coalesced.*]); disable to force every request
          through its own search. *)
  default_deadline_ms : float option;
      (** Queueing budget applied when a request names none. *)
  send_timeout_s : float;
      (** Write-stall bound: a connection whose response backlog makes
          no progress for this long is dropped
          ([server.connections.send_timeout]), instead of buffering
          without bound for a client that stopped reading. *)
  log_path : string option;
      (** Structured request log ([aved serve --log FILE]): one JSON
          object per request with trace id, per-stage timings and
          outcome, plus start/stop/snapshot events. [None] disables
          logging entirely. *)
  slo : Aved_obs.Slo.config;
      (** The daemon's own availability objective — target success
          rate, per-request latency budget, and rolling window —
          tracked continuously and exposed via [stats] and [metrics]
          (see {!Aved_obs.Slo}). *)
  trace_sample : float;
      (** Head-sampling rate in [0, 1]: the fraction of requests that
          get a full span tree (search, engine and solver spans with
          per-span CPU/allocation attribution), fetchable by trace id
          via the [trace] verb and [aved trace]. 0 disables tracing
          entirely — the cost is one atomic load per potential span. *)
  trace_ring : int;
      (** How many completed sampled traces the daemon retains for the
          [trace] verb; older ones are evicted
          ([server.trace.ring.evictions]). Each trace keeps at most
          {!Aved_telemetry.Telemetry.Trace.default_capacity} spans;
          overflow is dropped subtree-first and counted
          ([server.trace.spans.dropped]). *)
}

val default_config : transport -> config
(** [jobs = Domain.recommended_domain_count ()], a 128-request queue,
    900 connections, coalescing on, no default deadline, a 10 s send
    timeout, no request log,
    {!Aved_obs.Slo.default_config} (99.9% of work requests within 50 ms
    over a 5-minute window), tracing off ([trace_sample = 0.]) with a
    256-trace ring and 2048 spans per trace. *)

type t

val create : config -> t
(** Binds and listens on the transport, spawns the search domains
    and installs the server's telemetry registry. Raises
    [Unix.Unix_error] when the address cannot be bound,
    [Invalid_argument] on non-positive sizes or an out-of-range
    [max_conns], and [Failure] when a Unix-socket path is already
    served by a live daemon (an existing path is probed with a connect
    before being unlinked), when the SLO config is invalid, or when
    the request log cannot be opened. *)

val run : t -> unit
(** The event loop. Returns after {!stop}, once every admitted request
    has been answered and every search domain joined. Call from the thread
    that owns the server's lifetime (the CLI's main thread, or a
    dedicated thread when embedding, as the bench does). *)

val stop : t -> unit
(** Initiate graceful drain. Thread-safe, idempotent, and safe to call
    from a signal handler (it sets a flag and taps the loop's wakeup
    pipe; {!run} notices within its 250 ms poll timeout even if the
    tap is lost). *)

val install_signal_handlers : t -> unit
(** Route SIGTERM and SIGINT to {!stop}, and SIGUSR1 to a full
    metrics/GC snapshot: the event loop notices the flag within its
    250 ms timeout and appends a ["snapshot"] record (the complete
    [stats] document) to the request log, or prints it to stderr when
    no log is configured. *)

val bound_port : t -> int option
(** The actually-bound TCP port — useful with [Tcp { port = 0 }] (the
    kernel picks); [None] for Unix-domain transports. *)

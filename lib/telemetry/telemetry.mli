(** Low-overhead metrics and span tracing for the search and
    availability engines.

    Metric handles ({!Counter.make}, {!Gauge.make}, {!Histogram.make})
    are interned process-wide by name and are normally created at
    module-initialization time. A registry ({!t}) holds the metric
    *values*; at most one registry is installed ({!install}) at a time,
    and every recording operation is a no-op costing a single branch
    when none is.

    Counter and histogram cells are sharded by domain id: an increment
    touches only the shard of the calling domain, so hot-path updates
    from the parallel search pool never contend on a shared cache line.
    Reads ({!Counter.read}, {!Histogram.read}) aggregate across shards.
    Recording never changes program results — telemetry observes the
    engines, it does not steer them. *)

type t
(** A metric registry: sharded counter/histogram cells and gauge
    cells. Spans are not kept here; they land in a {!Trace} collector. *)

val create : ?span_capacity:int -> unit -> t
(** A fresh, empty registry. [span_capacity] is ignored: the registry
    holds no spans. It remains only for callers that still pass it. *)

val install : t -> unit
(** Make [t] the ambient registry recorded into by every metric
    operation, replacing any previous one. *)

val uninstall : unit -> unit
(** Remove the ambient registry; all metric operations become no-ops. *)

val enabled : unit -> bool
(** Whether a registry is installed. Use to skip work (name formatting,
    bulk flushes) that only matters when recording. *)

val with_registry : t -> (unit -> 'a) -> 'a
(** [with_registry t f] installs [t], runs [f] and uninstalls again
    (even on exception). *)

val now_seconds : unit -> float
(** Wall-clock seconds (the time source used for spans and timers). *)

module Counter : sig
  type h
  (** Handle to a named monotonic counter. *)

  val make : string -> h
  (** Intern a counter by name; idempotent per name. *)

  val name : h -> string
  val incr : h -> unit
  val add : h -> int -> unit

  val read : t -> h -> int
  (** Aggregate value across all shards. *)

  val read_by_name : t -> string -> int
  (** [read] by name; 0 when the name was never interned. *)

  val per_shard : t -> h -> (int * int) list
  (** [(shard, value)] for every shard with a nonzero value — the
      per-domain breakdown of a sharded counter. *)
end

module Gauge : sig
  type h

  val make : string -> h
  val set : h -> float -> unit

  val read : t -> h -> float option
  (** Last value set, or [None] when never set. *)
end

module Histogram : sig
  type h
  (** Handle to a log-bucketed histogram (base-2 buckets spanning
      roughly [2^-30, 2^33] — nanoseconds to decades when observing
      seconds). *)

  type summary = {
    count : int;
    sum : float;
    min : float;
    max : float;
    buckets : (float * int) list;
        (** [(upper_bound, count)] for every nonempty bucket, in
            increasing bound order. *)
  }

  val make : string -> h
  val observe : h -> float -> unit

  val time : h -> (unit -> 'a) -> 'a
  (** Run the thunk and observe its wall-clock duration in seconds.
      When no registry is installed the thunk runs untimed. *)

  val read : t -> h -> summary
  val mean : summary -> float

  val quantile : summary -> float -> float
  (** Upper bound of the bucket where the cumulative count crosses the
      quantile; [nan] on an empty summary. *)

  val quantile_est : summary -> float -> float
  (** Interpolated quantile estimate: linear within the crossing log
      bucket and clamped to the observed [[min, max]] range, so the
      error is bounded by one bucket's width (a factor of two) rather
      than always rounding up to the bucket bound. [nan] on an empty
      summary. This is what latency dashboards ([aved top], the
      [metrics] verb) report as p50/p95/p99. *)

  val bound_of_value : float -> float
  (** Upper bound of the bucket {!observe} files [v] into — the [le]
      label a Prometheus exemplar for an observation must attach to. *)
end

(** The per-thread request context: typed values a request binds for
    the code below it — its trace context ({!Trace}), its provenance
    trail ([Aved_search.Provenance]) — without threading them through
    every signature.

    Bindings are per-{e thread}, not per-domain: a domain can run
    several systhreads (domain 0 runs the daemon's reactor beside
    whatever threads an embedding program starts), and domain-local
    storage would let one thread see another's bindings. Pool worker domains
    adopt them for the duration of each task:
    {!Aved_parallel.Pool.map} {!Context.capture}s the caller's bindings
    once per batch and runs every task under {!Context.with_captured}.
    Reads never lock: with nothing bound on any thread, {!Context.get}
    is one atomic load. *)
module Context : sig
  type 'a key
  (** Names one typed slot of the context. *)

  val key : unit -> 'a key
  (** A fresh key, distinct from every other; normally made once at
      module initialization. *)

  val get : 'a key -> 'a option
  (** The calling thread's value for the key, if bound. *)

  val with_value : 'a key -> 'a option -> (unit -> 'b) -> 'b
  (** Bind (or, on [None], unbind) the key for the calling thread while
      the thunk runs; the thread's other bindings are untouched. Always
      restores the previous bindings, also on exception. *)

  type captured
  (** A snapshot of one thread's bindings, all keys at once. *)

  val capture : unit -> captured
  (** The calling thread's current bindings. *)

  val with_captured : captured -> (unit -> 'a) -> 'a
  (** Run the thunk with exactly the captured bindings, {e replacing}
      (not merging into) the calling thread's own; always restores. *)
end

(** Per-request trace collectors: parent/child span trees with resource
    attribution, threaded through the engines by a {e trace context}
    bound in the request {!Context}.

    A collector ({!Trace.t}) belongs to one sampled daemon request, or
    to one CLI command run with [--stats] or [--trace FILE]. A
    {!Trace.context} names a collector plus the span id new child spans
    attach under; it is one key of the per-thread {!Context}, so it
    follows the request onto pool worker domains. {!with_span}
    consults it: inside one, it allocates a child span, re-binds the
    context with itself as parent, and on exit records wall duration
    plus resource deltas —
    process CPU seconds ([Sys.time]) and the executing domain's
    minor/major allocated words ([Gc.counters]).

    With nothing bound anywhere the cost is one atomic load per
    potential span — sampling off means tracing is free. *)
module Trace : sig
  type span = {
    id : int;  (** Unique within the trace, > 0. *)
    parent : int;  (** Parent span id; 0 for the root. *)
    name : string;
    start_s : float;
    dur_s : float;
    tid : int;  (** Domain that ran the span. *)
    cpu_s : float;
        (** Process CPU seconds elapsed during the span (includes
            other domains' work — an attribution hint, not a cycle
            count). *)
    minor_words : float;  (** Executing domain's minor allocations. *)
    major_words : float;  (** Executing domain's major allocations. *)
  }

  type t
  (** A bounded span collector for one sampled request. *)

  type context
  (** A collector plus the span id to parent new spans under. *)

  val default_capacity : int
  (** 2048 — the default per-trace span bound. *)

  val create : ?capacity:int -> trace_id:string -> unit -> t
  (** [capacity] (default 2048) bounds retained spans. Span slots are
      claimed at entry, so under the bound dropped spans are always
      complete subtrees: a retained span's parent is always retained. *)

  val trace_id : t -> string

  val alloc_span_id : t -> int
  (** Reserve a span id (for synthetic spans recorded later via
      {!record} while children attach under it in the meantime). *)

  val record :
    t ->
    id:int ->
    parent:int ->
    name:string ->
    start_s:float ->
    dur_s:float ->
    tid:int ->
    unit
  (** Append a pre-measured span unconditionally (not counted against
      [capacity]); used for the per-request lifecycle stage spans. *)

  val context : t -> parent:int -> context

  val current : unit -> context option
  (** The calling thread's bound trace context, if any. *)

  val with_context : context option -> (unit -> 'a) -> 'a
  (** Bind (or clear, on [None]) the trace context for the calling
      thread while the thunk runs ({!Context.with_value}); always
      restores. *)

  val spans : t -> span list
  (** Completed spans sorted by start time (then id). Call after the
      request finishes; still-open spans are skipped. *)

  val dropped : t -> int
  (** Spans not retained because the collector hit [capacity]. *)

  val set_baseline : t -> (string * int) list -> unit
  (** Attach a counter snapshot taken at dispatch time; {!baseline}
      reads it back at finish to compute request-scoped deltas. *)

  val baseline : t -> (string * int) list
end

val with_span : string -> (unit -> 'a) -> 'a
(** Run the thunk as a child span of the calling thread's bound
    {!Trace.context}, recorded also when the thunk raises. With no
    context bound it is a plain call. *)

val tracing : unit -> bool
(** Whether the calling thread has a bound {!Trace.context}, i.e.
    whether {!with_span} records. Use to skip building span names
    that nothing would record. *)

val counters : t -> (string * int) list
(** All interned counters with nonzero aggregate value, sorted by
    name. *)

val gauges : t -> (string * float) list

val histograms : t -> (string * Histogram.summary) list
(** All interned histograms with at least one observation. *)

val pp_summary : Format.formatter -> t -> unit
(** Human-readable summary table: counters, gauges and histograms
    (count/mean/min/max/p50/p99). *)

val pp_span_totals : Format.formatter -> Trace.span list -> unit
(** Calls and cumulative wall time per span name, sorted by name. *)

val write_chrome_spans : Trace.span list -> out_channel -> unit
(** Emit the spans as Chrome [trace_event] JSON (one complete
    ["ph":"X"] event per span, times relative to the first span),
    loadable by [chrome://tracing] and [ui.perfetto.dev]. Both
    [--trace FILE] and [aved trace --chrome] write through it. *)

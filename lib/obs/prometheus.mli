(** Prometheus text-format exposition (version 0.0.4) of a telemetry
    registry.

    Renders every counter, gauge and histogram a
    {!Aved_telemetry.Telemetry.t} holds — plus caller-supplied extras
    for values that live outside the registry (SLO snapshots, GC
    statistics, trace-ring evictions) — as the plain-text format Prometheus
    and its ecosystem scrape. Metric names are sanitized
    ({!sanitize_name}): the repo's dotted names ([server.queue.depth])
    become underscore names ([server_queue_depth]).

    Histograms render with cumulative [le]-labelled buckets (the
    registry's log-bucket upper bounds), a [+Inf] bucket, [_sum] and
    [_count] series, exactly as Prometheus expects of a native
    histogram-typed family. *)

val content_type : string
(** ["text/plain; version=0.0.4"] — what an HTTP exposition would
    declare; the [metrics] wire verb carries it alongside the body. *)

val sanitize_name : string -> string
(** Map a metric name into the Prometheus grammar
    [[a-zA-Z_:][a-zA-Z0-9_:]*]: every other character becomes ['_'],
    and a leading digit is prefixed with ['_']. *)

val render :
  ?exemplars:Exemplars.t ->
  ?extra_counters:(string * int) list ->
  ?extra_gauges:(string * float) list ->
  Aved_telemetry.Telemetry.t ->
  string
(** The full exposition: one [# TYPE] header per family followed by
    its sample lines, families sorted by name, terminated by a final
    newline. Extras are rendered with the same sanitization; an extra
    whose sanitized name collides with a registry metric is suffixed
    with [_extra] rather than duplicated.

    With [exemplars], histogram [_bucket] lines whose bucket holds a
    recorded exemplar gain an OpenMetrics-syntax trailer
    [... # {trace_id="<id>"} <value> <ts>] linking the bucket to a
    sampled request's trace. The base format stays 0.0.4 — consumers
    that cannot ingest exemplars strip from [" # "]. *)

(** One request's lifecycle: a trace id plus per-stage timestamps from
    the moment its line was read off the socket to the moment its
    response write returned.

    The serve daemon's stage model is a strict partition of the
    request's wall time — each {!stamp} marks the {e end} of a stage,
    so stage durations sum exactly to the end-to-end latency (the
    timestamps share one clock read per boundary):

    {v
    read ──parse──▸ ──admit──▸ ──queue──▸ ──handle──▸ ──encode──▸ ──write──▸
    v}

    - [parse]: JSON decode of the request line (reader thread)
    - [admit]: admission-queue push or shed decision (reader thread)
    - [queue]: time waiting in the bounded admission queue
    - [handle]: the verb handler — spec load, search, evaluation
    - [encode]: response serialization to the wire envelope
    - [write]: the socket write back to the client

    A request that never reaches a stage (shed at admission, malformed
    line) simply stops stamping; {!finish} records whatever stages
    exist. [finish] feeds per-verb, per-stage latency histograms
    ([server.stage.<verb>.<stage>.seconds]) plus a per-verb end-to-end
    histogram ([server.verb.<verb>.seconds]) into the ambient
    telemetry registry, and returns the structured log record the
    [--log] event log stores. *)

type t

val start :
  ?trace:Aved_telemetry.Telemetry.Trace.t ->
  trace_id:string ->
  verb:string ->
  conn_id:int ->
  req_id:Aved_explain.Json.t ->
  now:float ->
  unit ->
  t
(** Begin a lifecycle at [now] (the read timestamp). [verb] is the
    wire verb name, or a synthetic name like ["invalid"] for lines
    that never parsed. [req_id] is the client's id field, echoed into
    the log. [trace] is the span collector of a head-sampled request;
    when present, {!finish} synthesizes the root and per-stage spans
    into it and {!handle_context} hands the verb handler a context to
    parent its spans under. *)

val stamp : t -> string -> unit
(** Mark the end of the named stage at the current wall clock. Stages
    must be stamped in lifecycle order by whichever thread holds the
    request; a lifecycle is owned by one thread at a time (the event
    loop, then a search domain), never shared. *)

val trace_id : t -> string
val verb : t -> string

val trace : t -> Aved_telemetry.Telemetry.Trace.t option
(** The sampled request's span collector, if one was attached. *)

val started_s : t -> float
(** The [now] passed to {!start}. *)

val conn_id : t -> int

val handle_context : t -> Aved_telemetry.Telemetry.Trace.context option
(** A trace context parented under the (future) handle-stage span;
    [None] for unsampled requests. Allocates the handle span's id on
    first call — the span itself is recorded by {!finish}, once its
    duration is known, while handler spans parent under it live. *)

val elapsed_s : t -> float
(** Seconds since [start]'s [now] (last stamp if finished). *)

val finish :
  t -> outcome:string -> slow_threshold_s:float -> Aved_explain.Json.t
(** Close the lifecycle: observe stage and end-to-end histograms in
    the ambient telemetry registry (no-ops when none is installed) and
    return the JSON log record: trace id, connection, verb, outcome,
    [slow] flag (end-to-end above [slow_threshold_s]), total
    milliseconds, and per-stage [{stage, end_s, ms}] entries whose
    [end_s] timestamps are monotone. Call exactly once. *)

(** The daemon's structured event log: one JSON object per line.

    Opened once at daemon start ([aved serve --log FILE]) and written
    by the event loop and the search domains alike, so writes are serialized
    by a mutex and each record is flushed whole — a line is never
    interleaved with another and survives a crash of the next request.
    Every record carries at least ["ts"] (wall-clock seconds) and
    ["event"]; request records add the trace id, verb, per-stage
    timings and outcome (see {!Lifecycle}). *)

type t

val open_path : string -> t
(** Open (append, create 0o644) the log file. Raises [Sys_error] when
    the path cannot be opened. *)

val write : t -> Aved_explain.Json.t -> unit
(** Write one pre-built record (e.g. a {!Lifecycle.finish} result) as
    one line and flush. Thread-safe; a closed log drops the record
    silently (shutdown races are not worth an exception on the answer
    path). *)

val event : t -> ?ts:float -> kind:string -> (string * Aved_explain.Json.t) list -> unit
(** Write [{"ts":<ts>, "event":<kind>, ...fields}] via {!write}. [ts]
    defaults to the current wall clock. *)

val close : t -> unit
(** Flush and close. Idempotent. *)

(** Content-hash cache of parsed and checked specification pairs.

    The serve daemon takes specification {e file paths} in requests,
    exactly like the one-shot CLI, so a request always reflects what is
    on disk. To answer from warm state it re-reads the bytes, hashes
    them, and reuses the parsed infrastructure/service pair and the
    static-check verdict when the content is unchanged — the expensive
    part (parsing, cross-validation, the checker's model construction)
    runs once per distinct content, not once per request.

    Lookups that fail to parse or cross-validate raise exactly what
    {!Aved_spec.Spec.load} raises (and are not cached), so the daemon
    reports the same one-line message the CLI prints. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the number of cached pairs (default 64); the
    table is reset wholesale when full — spec sets are tiny and churn
    is rare, so simplicity beats LRU here. *)

type loaded = {
  infra : Aved_model.Infrastructure.t;
  service : Aved_model.Service.t;
  check_errors : Aved_check.Diagnostic.t list;
      (** Error-severity diagnostics of [aved check] over the pair;
          empty when the specs pass the static gate. *)
}

val load : t -> infra_file:string -> service_file:string -> loaded
(** Raises {!Aved_spec.Spec.Error} or [Failure] on malformed
    specifications and [Sys_error] when a file cannot be read. *)

val length : t -> int

val hits : Aved_telemetry.Telemetry.Counter.h
val misses : Aved_telemetry.Telemetry.Counter.h
(** Lookups answered from the cache, and lookups that parsed and
    checked, counted in the installed telemetry registry. *)

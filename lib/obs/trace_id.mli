(** Process-unique request trace identifiers.

    Every connection and request the serve daemon touches is tagged
    with a trace id that threads through the structured request log,
    so one request's lifecycle can be followed from the event loop to
    the search domain that answers it. Ids are 16 lowercase hex
    digits: a per-process random base (seeded from the pid and the
    clock at module initialization) mixed with an atomic sequence
    number, so they are
    unique within a process, overwhelmingly unique across daemon
    restarts, and cheap enough for the accept path. *)

val fresh : unit -> string
(** A new 16-hex-digit id. Thread- and domain-safe. *)

val sampled : string -> rate:float -> bool
(** Head-sampling decision for a trace id: deterministic in [id], true
    for roughly a [rate] fraction of ids. [rate >= 1.] always samples,
    [rate <= 0.] (and NaN) never does. *)

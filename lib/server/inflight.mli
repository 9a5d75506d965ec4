(** In-flight computation registry: the heart of request coalescing.

    The first request for a given content-hash key becomes the
    {e leader} and runs the computation; concurrent requests with the
    same key {e attach} as waiters and consume the leader's result
    when it completes. A thundering herd of [N] identical requests
    costs one search plus [N] envelope renders.

    The registry is generic in the waiter payload ['w] (the server
    stores enough per-request state to render a personalized envelope:
    connection, id, negotiated version, lifecycle handle) and the
    result ['r] (success or error — errors broadcast too, so waiters
    share the leader's fate rather than dangling).

    Thread-safety: [claim] and [complete] may race freely across
    threads. The server's discipline is stronger — all claims happen
    on the event-loop thread at admission time, completes on
    search domains — but the registry does not rely on it. *)

type ('w, 'r) t

val create : unit -> ('w, 'r) t

val claim : ('w, 'r) t -> key:string -> waiter:'w -> [ `Leader | `Attached ]
(** [`Leader]: no computation for [key] was in flight — the caller
    must run it and eventually call {!complete}. [`Attached]: the
    waiter was queued behind the in-flight leader and must NOT be
    dispatched; it will be answered by the leader's broadcast. *)

val complete :
  ('w, 'r) t -> key:string -> result:'r -> broadcast:('w -> 'r -> unit) -> int
(** Remove the entry for [key] and invoke [broadcast] on every waiter
    in attach order, outside the registry lock. Returns the waiter
    count. Requests for [key] arriving after [complete] start a fresh
    leader. Completing a key with no entry is a no-op returning 0. *)

val length : ('w, 'r) t -> int
(** Number of distinct computations currently in flight. *)

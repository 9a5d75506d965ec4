(** The serve daemon's readiness reactor.

    One thread (the event loop) blocks in {!wait} on the fds it is
    interested in; other threads (search domains finishing a request,
    signal-adjacent code) call {!wakeup} to make the current {!wait}
    return early so the loop notices new pending writes or a stop
    flag. Wakeup is a classic self-pipe: a byte written to an internal
    pipe whose read end is always in the select read set, coalesced so
    that any number of wakeups between two waits costs one byte.

    Built on [Unix.select], which caps file descriptors at FD_SETSIZE
    (1024): the server's [--max-conns] default stays safely under
    that bound. The interface is poll-shaped so a real poll/epoll
    binding can replace the implementation without touching callers. *)

type t

val create : unit -> t

val wait :
  t ->
  read:Unix.file_descr list ->
  write:Unix.file_descr list ->
  timeout:float ->
  Unix.file_descr list * Unix.file_descr list
(** Block until an fd is ready, the timeout elapses, or {!wakeup} is
    called; returns (readable, writable) with the internal pipe
    filtered out. Only the event-loop thread may call this. *)

val wakeup : t -> unit
(** Thread-safe: force the current (or next) {!wait} to return
    promptly. Idempotent between waits. *)

val close : t -> unit
(** Release the internal pipe. Idempotent. *)

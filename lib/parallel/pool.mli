(** A hand-rolled work pool on OCaml 5 domains.

    The pool owns [jobs - 1] worker domains draining a bounded FIFO work
    queue (Mutex/Condition); the caller of {!map} participates as the
    [jobs]-th worker, so a pool with [jobs = 1] degenerates to plain
    sequential iteration and never spawns a domain.

    {!map} is deterministic by construction: results land in a slot
    array indexed by input position and are returned in input order, no
    matter which domain computed them or when ("deterministic result
    merge"). Tasks therefore must not rely on evaluation order; shared
    state is restricted to monotone pruning hints (see {!Incumbent}).

    Nested calls are supported: a task running on a worker may itself
    call {!map} on the same pool. The inner call pushes its sub-tasks
    and then helps drain the queue until they complete, so progress is
    guaranteed even when every worker is busy. When the queue is full,
    {!map} runs tasks inline instead of blocking, which bounds the
    queue without risking deadlock. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains ([jobs >= 1];
    raises [Invalid_argument] otherwise). *)

val jobs : t -> int
(** The degree of parallelism the pool was created with. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] applies [f] to every element of [xs], distributing the
    calls over the pool's domains, and returns the results in input
    order. With [jobs t = 1] this is exactly [List.map f xs]. If one or
    more applications raise, the exception of the smallest input index
    is re-raised after the whole batch has settled.

    The caller's request context ({!Aved_telemetry.Telemetry.Context})
    is captured once per call, and every task runs with exactly those
    bindings, replacing whatever the executing thread had bound — also
    when a caller of another [map] helps drain this batch. *)

val shutdown : t -> unit
(** Signals the workers to exit once the queue drains and joins them.
    The pool must not be used afterwards. Idempotent. *)

val run : jobs:int -> (t -> 'a) -> 'a
(** [run ~jobs f] creates a pool, applies [f], and always shuts the
    pool down, even when [f] raises. *)

(** A hand-rolled work pool on OCaml 5 domains.

    The worker domains take two kinds of work under one
    Mutex/Condition pair: {e map slots}, the tasks of {!map}, and, in a
    pool made by {!create_serving}, whole {e requests} from a bounded
    lane ({!submit}). Map slots come first, so an idle domain helps a
    busy one finish its search before it starts another request. The
    caller of {!map} participates as the [jobs]-th worker, so a pool
    with [jobs = 1] degenerates to plain sequential iteration.

    {!map} is deterministic by construction: results land in a slot
    array indexed by input position and are returned in input order, no
    matter which domain computed them or when ("deterministic result
    merge"). Tasks therefore must not rely on evaluation order; shared
    state is restricted to monotone pruning hints (see {!Incumbent}).

    Nested calls are supported: a task running on a worker may itself
    call {!map} on the same pool. The inner call pushes its sub-tasks
    and then helps drain the map slots (never a request) until they
    complete, so progress is guaranteed even when every worker is busy.
    When the slot queue is full, {!map} runs tasks inline instead of
    blocking, which bounds the queue without risking deadlock. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains ([jobs >= 1];
    raises [Invalid_argument] otherwise). It has no request lane:
    {!submit} answers [`Closed]. *)

val create_serving : jobs:int -> lane_capacity:int -> t
(** [create_serving ~jobs ~lane_capacity] spawns [jobs] worker domains,
    which also take requests from a lane of at most [lane_capacity]
    queued requests; the creating thread is not a worker. Raises
    [Invalid_argument] unless [jobs >= 1] and [lane_capacity >= 1]. *)

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

val fan_out : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list
(** [fan_out ?pool f xs] is [map pool f xs] when [pool] is given and
    [List.map f xs] otherwise: the search's one way to spread work over
    a pool it may not have. *)

val submit : t -> (unit -> unit) -> [ `Queued | `Full | `Closed ]
(** [submit t request] queues [request] (FIFO) for the next free worker
    without blocking or running it on the calling thread, or refuses it:
    [`Full] at [lane_capacity] queued requests, [`Closed] after
    {!close_lane} or {!shutdown}. A request that raises is reported on
    stderr; its worker carries on. *)

val close_lane : t -> unit
(** Refuse further {!submit}s. Requests already queued are still run.
    Idempotent. *)

val lane_depth : t -> int
(** Requests queued and not yet taken by a worker. *)

val lane_busy : t -> int
(** Requests a worker is running now. *)

val lane_settled : t -> bool
(** Closed, empty, and no request running: every request has finished. *)

val shutdown : t -> unit
(** Closes the lane, lets the workers finish every queued map slot and
    request, and joins them. The pool must not be used afterwards.
    Idempotent. *)

val run : jobs:int -> (t -> 'a) -> 'a
(** [run ~jobs f] creates a pool, applies [f], and always shuts the
    pool down, even when [f] raises. *)

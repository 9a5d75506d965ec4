(** A binary min-heap of timestamped events.

    The discrete-event simulator processes events in time order; ties are
    broken by insertion order so simulations are fully deterministic.
    An event's payload is an int (the simulator codes its events as
    ints). The heap is stored as parallel arrays (unboxed times,
    sequence numbers, payloads), and neither {!push} nor {!pop_min}
    allocates once the arrays have grown to the queue's working size. *)

type t

val create : unit -> t
val is_empty : t -> bool
val length : t -> int

val push : t -> time:float -> int -> unit
(** Raises [Invalid_argument] for a non-finite time. *)

val min_time : t -> float
(** Time of the earliest event; [infinity] when the queue is empty. *)

val pop_min : t -> int
(** Removes the earliest event (the first pushed among equal times) and
    returns its payload; its time is {!min_time} before the call.
    Raises [Invalid_argument] when the queue is empty. *)

val pushes : t -> int
(** The number of events pushed since {!create}. *)

val clear : t -> unit

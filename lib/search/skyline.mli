(** An online two-dimensional skyline: the points of a stream that no
    other point beats on (cost, measure), both lower-is-better
    (Kung, Luccio & Preparata, "On finding the maxima of a set of
    vectors", JACM 1975; Börzsönyi et al., "The Skyline Operator",
    ICDE 2001).

    Point [q] {e beats} point [p] when [q] costs no more, measures no
    more, and either differs from [p] in one of the two or came first
    in the stream. The skyline holds exactly the points nothing beats,
    which is the set a stable sort by (cost, measure) followed by a
    scan keeping each strict improvement of the measure returns, in
    the same order: by strictly rising cost, with strictly falling
    measure. A point whose measure is infinite or NaN never enters.
    Costs must not be NaN.

    The points live in unboxed arrays, and each insertion finds its
    place by binary search, so a stream of [N] points into a skyline
    of at most [F] points costs [O(N log F)] comparisons plus the
    shifts of the points an insertion removes. Each point carries two
    integers, [task] and [design], that the skyline only stores. *)

type t

val create : unit -> t

val insert : t -> cost:float -> measure:float -> task:int -> design:int -> unit
(** Add the next point of the stream: a no-op when a point already in
    the skyline beats it, otherwise it enters and every point it beats
    leaves. *)

val merge : t list -> t
(** The skyline of the streams concatenated in list order. Because
    "beats" is transitive, this is the skyline of the concatenated
    streams themselves. *)

val length : t -> int

val cost : t -> int -> float
(** [cost t i] of the [i]th point by rising cost. *)

val measure : t -> int -> float
val task : t -> int -> int
val design : t -> int -> int

val inserted : t -> int
(** How many points have entered the skyline, counting those that
    later left it; a merged skyline counts its own insertions plus
    those of its inputs. *)

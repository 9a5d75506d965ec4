(** Ranges of admissible resource counts.

    The service model's [nActive] attribute constrains the number of
    active resources: e.g. [[1-1000,+1]] (any count), [[1]] (exactly
    one), or [[1-1024,*2]] (powers of two — the paper's example of a
    scientific code that requires 2^k nodes). *)

type t =
  | Singleton of int
  | Arithmetic of { lo : int; hi : int; step : int }
  | Geometric of { lo : int; hi : int; factor : int }
  | Explicit of int list

val singleton : int -> t
val arithmetic : lo:int -> hi:int -> step:int -> t
(** Raises [Invalid_argument] unless [0 <= lo <= hi] and [step > 0]. *)

val geometric : lo:int -> hi:int -> factor:int -> t
(** Raises [Invalid_argument] unless [1 <= lo <= hi] and [factor > 1]. *)

val explicit : int list -> t
(** Raises [Invalid_argument] on an empty list or negative members. *)

val to_list : t -> int list
(** All members in increasing order, without duplicates. *)

val to_seq : t -> int Seq.t
(** The members of {!to_list}, in the same order, produced on demand:
    a scan that stops early never builds the rest of a wide range. *)

val between : t -> lo:int -> hi:int -> int list
(** [between t ~lo ~hi] is the members in [[lo, hi]] in increasing
    order — [List.filter (fun n -> lo <= n && n <= hi) (to_list t)] —
    built in time proportional to its length for [Arithmetic] ranges.
    Empty when [hi < lo]. *)

val mem : t -> int -> bool

val min_value : t -> int
(** The first member of {!to_list}, without building it. *)

val max_value : t -> int
(** The last member of {!to_list}, without building it. *)

val spread : t -> count:int -> int list
(** [spread t ~count] is at most [count] members spread evenly over
    {!to_list}: all of them when there are at most [count], else the
    members at ranks [i * (n - 1) / (count - 1)] for [i < count], so
    both ends are included. Built without enumerating an [Arithmetic]
    range. Raises [Invalid_argument] when [count < 2]. *)

val next_above : t -> int -> int option
(** [next_above t n] is the smallest member [>= n], if any — the search
    uses this to round a performance-derived minimum up to an admissible
    count. *)

val of_string : string -> t
(** Parses [[1]], [[1-1000,+1]], [[2-1024,*2]], or [[1,2,5]].
    Raises [Invalid_argument] on malformed input. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

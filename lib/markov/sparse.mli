(** Compressed-sparse-row adjacency of a CTMC's transition rates.

    Built once per chain from the hash-table adjacency of {!Ctmc}, it
    gives the solvers cache-friendly iteration and the bandwidth that
    drives backend selection. Column indices are sorted within each row; every
    stored rate is positive. *)

type t

val of_adjacency : n:int -> (int, float) Hashtbl.t array -> t
(** [of_adjacency ~n rates] compiles per-source hash tables (as kept by
    [Ctmc]) into CSR form. Deterministic: rows are laid out in state
    order and columns sorted ascending, independent of hash-table
    iteration order. *)

val num_states : t -> int

val bandwidth : t -> int
(** Largest [|src - dst|] over the stored transitions; [0] for a chain
    with no transitions. *)

val exit_rate : t -> int -> float
(** Sum of the outgoing rates of a state, in column order. *)

val iter_row : t -> int -> (dst:int -> rate:float -> unit) -> unit
(** Visit a state's outgoing transitions in ascending destination
    order. *)

val iter : t -> (src:int -> dst:int -> rate:float -> unit) -> unit
(** Visit every transition, rows in order, columns ascending. *)

(** Decision provenance: why every generated candidate won or lost.

    The searches tag candidates with a typed {!fate} and append them to
    a bounded, per-tier ring buffer (the {e trail}). A trail belongs to
    one request: {!with_trail} binds it in the calling thread's request
    context ({!Aved_telemetry.Telemetry.Context}), which pool tasks
    adopt, so concurrent searches each record into their own trail (or
    none) without any lock between them. The trail observes the search
    without steering it: with no trail bound every {!note} costs one
    atomic load and allocates nothing, so search results and timings —
    and the fig6/7/8 and [design] outputs — are byte-identical to a
    build without provenance. The ring bound keeps memory flat on figure-sized grids
    (a Fig. 6 cell can generate thousands of candidates); once a tier's
    ring is full, the oldest records are overwritten and counted in
    {!dropped}. *)

module Duration = Aved_units.Duration
module Money = Aved_units.Money

(** What the search decided about a candidate. A candidate may receive
    several records over its life (e.g. [Incumbent] when found, then
    [Dominated] when a better design supersedes it); the latest record
    is its final fate. *)
type fate =
  | Incumbent  (** Best feasible design of its branch when recorded. *)
  | Dominated of { by : string }
      (** Lost the search's total order (cost, then downtime or
          execution time) to the design described by [by]. *)
  | Over_downtime_budget of { excess : Duration.t }
      (** Evaluated but infeasible: annual downtime (or, in job
          searches, expected execution time) exceeds the requirement by
          [excess]. *)
  | Over_cost_cap of { excess : Money.t }
      (** Pruned before availability evaluation: costs [excess] more
          than the incumbent cap. *)
  | Rejected_by_model of { reason : string }
      (** The model layer rejected the design
          ({!Aved_avail.Tier_model.Rejected}): it cannot deliver the
          required throughput. *)

type record = {
  tier : string;
  design : Aved_model.Design.tier_design;
  cost : Money.t;
  downtime : Duration.t option;
      (** Annual downtime, when the candidate was evaluated by an
          enterprise search. *)
  execution_time : Duration.t option;
      (** Expected job completion time, when evaluated by a job
          search. *)
  fate : fate;
}

type t
(** A trail: one bounded ring of records per tier. Thread-safe — the
    searches note from pool workers. *)

val create : ?capacity:int -> unit -> t
(** [capacity] bounds each tier's ring (default 512). *)

val capacity : t -> int

val enabled : unit -> bool
(** Whether the calling thread has a trail bound — use to skip work
    (building fate details, swap analyses) that only matters when
    recording. *)

val with_trail : t -> (unit -> 'a) -> 'a
(** [with_trail t f] runs [f] with [t] as the calling thread's trail
    (and that of every pool task [f] spawns), then restores the
    previous binding, even on exception. Other threads are
    unaffected. *)

val note : (unit -> record) -> unit
(** Append the record to the calling thread's trail; the thunk only
    runs when one is bound. Also counts the fate in the telemetry
    registry (counters [explain.fate.*], [explain.records.*]) when one
    is installed. *)

val tiers : t -> string list
(** Tier names with at least one record, sorted. *)

val records : t -> tier:string -> record list
(** The surviving records of one tier, oldest first. Under parallel
    search the interleaving across settings batches is
    schedule-dependent; consumers must order records themselves before
    presenting them. *)

val noted : t -> int
(** Records ever appended (including overwritten ones). *)

val dropped : t -> int
(** Records overwritten by the ring bound. *)

val describe : Aved_model.Design.tier_design -> string
(** One-line rendering of a design ({!Aved_model.Design.pp_tier}), used
    for [Dominated.by]. *)

val fate_label : fate -> string
(** Stable lower-snake label of the fate constructor, e.g.
    ["over_cost_cap"] — used for telemetry counters and JSON. *)

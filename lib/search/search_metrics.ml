(* Shared telemetry handles of the tier and job searches, plus the
   per-enumeration flush. Candidate counts are accumulated in local
   ints inside the enumeration loops and flushed here in one batch, so
   the hot loops carry no per-design telemetry branches and the
   per-tier counters intern their names once per batch, not once per
   design. *)

module Telemetry = Aved_telemetry.Telemetry

let candidates_generated = Telemetry.Counter.make "search.candidates.generated"
let candidates_evaluated = Telemetry.Counter.make "search.candidates.evaluated"

let candidates_pruned =
  Telemetry.Counter.make "search.candidates.pruned_by_incumbent"

let candidates_windowed =
  Telemetry.Counter.make "search.candidates.outside_window"

let candidates_rejected =
  Telemetry.Counter.make "search.candidates.rejected_by_model"

let options_searched = Telemetry.Counter.make "search.options.searched"
let totals_scanned = Telemetry.Counter.make "search.totals.scanned"

let incumbent_cap_tightened =
  Telemetry.Counter.make "search.incumbent.cap_tightened"

let frontiers_computed = Telemetry.Counter.make "search.frontiers.computed"
let frontier_size = Telemetry.Histogram.make "search.frontier.size"

(* The per-tier counter handles ("search.candidates.generated[application]",
   ...), resolved once per tier per domain: a flush runs once per
   enumeration batch, and interning four sprintf-built names each time
   is measurable against the cached inner loop. Handles are bound to
   names, not to an installed registry, so caching them across
   telemetry install/uninstall cycles is sound. *)
type tier_counters = {
  tc_generated : Telemetry.Counter.h;
  tc_evaluated : Telemetry.Counter.h;
  tc_pruned : Telemetry.Counter.h;
  tc_windowed : Telemetry.Counter.h;
  tc_rejected : Telemetry.Counter.h;
}

let tier_counters_key : (string, tier_counters) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let tier_counters tier_name =
  let table = Domain.DLS.get tier_counters_key in
  match Hashtbl.find_opt table tier_name with
  | Some counters -> counters
  | None ->
      let make tag =
        Telemetry.Counter.make
          (Printf.sprintf "search.candidates.%s[%s]" tag tier_name)
      in
      let counters =
        {
          tc_generated = make "generated";
          tc_evaluated = make "evaluated";
          tc_pruned = make "pruned_by_incumbent";
          tc_windowed = make "outside_window";
          tc_rejected = make "rejected_by_model";
        }
      in
      Hashtbl.add table tier_name counters;
      counters

(* Flush one enumeration batch into the global counters and their
   per-tier variants. *)
let flush ~tier_name ~generated ~evaluated ~pruned ~windowed ~rejected =
  if Telemetry.enabled () then begin
    let tier = tier_counters tier_name in
    let batch counter tier_counter v =
      if v > 0 then begin
        Telemetry.Counter.add counter v;
        Telemetry.Counter.add tier_counter v
      end
    in
    batch candidates_generated tier.tc_generated generated;
    batch candidates_evaluated tier.tc_evaluated evaluated;
    batch candidates_pruned tier.tc_pruned pruned;
    batch candidates_windowed tier.tc_windowed windowed;
    batch candidates_rejected tier.tc_rejected rejected
  end

let observe_frontier size =
  Telemetry.Counter.incr frontiers_computed;
  if Telemetry.enabled () then
    Telemetry.Histogram.observe frontier_size (float_of_int size)

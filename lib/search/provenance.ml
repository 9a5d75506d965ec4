module Duration = Aved_units.Duration
module Money = Aved_units.Money
module Telemetry = Aved_telemetry.Telemetry

type fate =
  | Incumbent
  | Dominated of { by : string }
  | Over_downtime_budget of { excess : Duration.t }
  | Over_cost_cap of { excess : Money.t }
  | Rejected_by_model of { reason : string }

type record = {
  tier : string;
  design : Aved_model.Design.tier_design;
  cost : Money.t;
  downtime : Duration.t option;
  execution_time : Duration.t option;
  fate : fate;
}

type ring = {
  buf : record option array;
  mutable next : int;  (* slot of the next write *)
  mutable size : int;
}

type t = {
  ring_capacity : int;
  mutex : Mutex.t;
  rings : (string, ring) Hashtbl.t;
  mutable noted : int;
  mutable dropped : int;
}

let create ?(capacity = 512) () =
  if capacity < 1 then invalid_arg "Provenance.create: capacity must be >= 1";
  {
    ring_capacity = capacity;
    mutex = Mutex.create ();
    rings = Hashtbl.create 8;
    noted = 0;
    dropped = 0;
  }

let capacity t = t.ring_capacity

(* The trail is one key of the per-thread request context, so each
   request's searches (and their pool tasks) record into their own
   trail, and [note] is a one-load no-op without one. *)
let key : t Telemetry.Context.key = Telemetry.Context.key ()
let enabled () = Telemetry.Context.get key <> None
let with_trail t f = Telemetry.Context.with_value key (Some t) f

let fate_index = function
  | Incumbent -> 0
  | Dominated _ -> 1
  | Over_downtime_budget _ -> 2
  | Over_cost_cap _ -> 3
  | Rejected_by_model _ -> 4

let fate_labels =
  [| "incumbent"; "dominated"; "over_downtime_budget"; "over_cost_cap";
     "rejected_by_model" |]

let fate_label fate = fate_labels.(fate_index fate)
let records_noted = Telemetry.Counter.make "explain.records.noted"
let records_dropped = Telemetry.Counter.make "explain.records.dropped"

(* Interned once: [append] runs for every candidate. *)
let fate_counters =
  Array.map (fun l -> Telemetry.Counter.make ("explain.fate." ^ l)) fate_labels

let append t record =
  Mutex.lock t.mutex;
  let ring =
    match Hashtbl.find_opt t.rings record.tier with
    | Some r -> r
    | None ->
        let r = { buf = Array.make t.ring_capacity None; next = 0; size = 0 } in
        Hashtbl.add t.rings record.tier r;
        r
  in
  let overwrote = ring.size = t.ring_capacity in
  ring.buf.(ring.next) <- Some record;
  ring.next <- (ring.next + 1) mod t.ring_capacity;
  if overwrote then t.dropped <- t.dropped + 1
  else ring.size <- ring.size + 1;
  t.noted <- t.noted + 1;
  Mutex.unlock t.mutex;
  if Telemetry.enabled () then begin
    Telemetry.Counter.incr records_noted;
    if overwrote then Telemetry.Counter.incr records_dropped;
    Telemetry.Counter.incr fate_counters.(fate_index record.fate)
  end

let note thunk =
  match Telemetry.Context.get key with
  | None -> ()
  | Some t -> append t (thunk ())

let tiers t =
  Mutex.lock t.mutex;
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) t.rings [] in
  Mutex.unlock t.mutex;
  List.sort String.compare names

let records t ~tier =
  Mutex.lock t.mutex;
  let result =
    match Hashtbl.find_opt t.rings tier with
    | None -> []
    | Some ring ->
        let start =
          if ring.size = t.ring_capacity then ring.next else 0
        in
        List.init ring.size (fun i ->
            match ring.buf.((start + i) mod t.ring_capacity) with
            | Some r -> r
            | None -> assert false)
  in
  Mutex.unlock t.mutex;
  result

let noted t =
  Mutex.lock t.mutex;
  let n = t.noted in
  Mutex.unlock t.mutex;
  n

let dropped t =
  Mutex.lock t.mutex;
  let n = t.dropped in
  Mutex.unlock t.mutex;
  n

let describe design =
  Format.asprintf "%a" Aved_model.Design.pp_tier design

module Telemetry = Aved_telemetry.Telemetry

let hits = Telemetry.Counter.make "server.spec_cache.hits"
let misses = Telemetry.Counter.make "server.spec_cache.misses"

type key = {
  k_infra_file : string;
  k_service_file : string;
  k_infra_digest : Digest.t;
  k_service_digest : Digest.t;
}

type loaded = {
  infra : Aved_model.Infrastructure.t;
  service : Aved_model.Service.t;
  check_errors : Aved_check.Diagnostic.t list;
}

type t = {
  mutex : Mutex.t;
  table : (key, loaded) Hashtbl.t;
  capacity : int;
}

let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Spec_cache.create: capacity must be >= 1";
  { mutex = Mutex.create (); table = Hashtbl.create 16; capacity }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Parse, cross-validate and check outside the lock: a slow parse must
   not stall search domains answering from warm content. The worst case is
   two threads racing the same miss and both computing — the results are
   equal, and the second [Hashtbl.replace] is harmless. *)
let load t ~infra_file ~service_file =
  let key =
    {
      k_infra_file = infra_file;
      k_service_file = service_file;
      k_infra_digest = Digest.file infra_file;
      k_service_digest = Digest.file service_file;
    }
  in
  match locked t (fun () -> Hashtbl.find_opt t.table key) with
  | Some loaded ->
      Telemetry.Counter.incr hits;
      loaded
  | None ->
      Telemetry.Counter.incr misses;
      let infra, service = Aved_spec.Spec.load ~infra_file ~service_file in
      let check_errors =
        Aved_check.Check.check_files [ infra_file; service_file ]
        |> List.filter (fun (d : Aved_check.Diagnostic.t) ->
               d.severity = Aved_check.Diagnostic.Error)
      in
      let loaded = { infra; service; check_errors } in
      locked t (fun () ->
          if Hashtbl.length t.table >= t.capacity then Hashtbl.reset t.table;
          Hashtbl.replace t.table key loaded);
      loaded

let length t = locked t (fun () -> Hashtbl.length t.table)

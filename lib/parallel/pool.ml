module Telemetry = Aved_telemetry.Telemetry

let tasks_queued = Telemetry.Counter.make "parallel.tasks.queued"
let tasks_inline = Telemetry.Counter.make "parallel.tasks.inline"
let tasks_executed = Telemetry.Counter.make "parallel.tasks.executed"

type task = unit -> unit

(* One lock and one condition guard both kinds of work, so a worker
   woken by either finds whichever is queued. [slots] holds {!map}
   tasks; [lane] holds whole requests ({!submit}). *)
type t = {
  mutex : Mutex.t;
  work : Condition.t;
  slots : task Queue.t;
  slot_capacity : int;
  lane : task Queue.t;
  lane_capacity : int;
  mutable lane_closed : bool;
  mutable running : int;  (** Requests taken from the lane, not yet done. *)
  jobs : int;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let jobs t = t.jobs

let locked t f =
  Mutex.lock t.mutex;
  let v = f () in
  Mutex.unlock t.mutex;
  v

(* A request runs to completion on the worker that took it; an
   exception escaping it is reported and the worker carries on, so one
   faulty request cannot shrink the pool. *)
let run_request t request =
  (try request ()
   with e ->
     Printf.eprintf "Pool: request raised %s\n%!" (Printexc.to_string e));
  locked t (fun () -> t.running <- t.running - 1)

(* Worker loop: map slots before requests, until the pool closes and
   both queues are empty. Map slots never raise — {!map} wraps user
   functions in a result capture — so a worker cannot die early and
   strand a batch. *)
let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.slots && Queue.is_empty t.lane && not t.closed do
    Condition.wait t.work t.mutex
  done;
  match Queue.take_opt t.slots with
  | Some task ->
      Mutex.unlock t.mutex;
      task ();
      worker_loop t
  | None -> (
      match Queue.take_opt t.lane with
      | Some request ->
          t.running <- t.running + 1;
          Mutex.unlock t.mutex;
          run_request t request;
          worker_loop t
      | None ->
          (* Empty and closed. *)
          Mutex.unlock t.mutex)

let make ~jobs ~domains ~lane_capacity =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      mutex = Mutex.create ();
      work = Condition.create ();
      slots = Queue.create ();
      slot_capacity = Stdlib.max 64 (jobs * 16);
      lane = Queue.create ();
      lane_capacity;
      lane_closed = lane_capacity = 0;
      running = 0;
      jobs;
      closed = false;
      workers = [];
    }
  in
  t.workers <-
    List.init domains (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let create ~jobs = make ~jobs ~domains:(jobs - 1) ~lane_capacity:0

let create_serving ~jobs ~lane_capacity =
  if lane_capacity < 1 then
    invalid_arg "Pool.create_serving: lane_capacity must be >= 1";
  make ~jobs ~domains:jobs ~lane_capacity

let shutdown t =
  Mutex.lock t.mutex;
  let workers = t.workers in
  t.closed <- true;
  t.lane_closed <- true;
  t.workers <- [];
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join workers

let run ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* ------------------------------------------------------------------ *)
(* The request lane *)

let submit t request =
  locked t (fun () ->
      if t.lane_closed then `Closed
      else if Queue.length t.lane >= t.lane_capacity then `Full
      else begin
        Queue.push request t.lane;
        Condition.signal t.work;
        `Queued
      end)

let close_lane t = locked t (fun () -> t.lane_closed <- true)
let lane_depth t = locked t (fun () -> Queue.length t.lane)
let lane_busy t = locked t (fun () -> t.running)

let lane_settled t =
  locked t (fun () -> t.lane_closed && Queue.is_empty t.lane && t.running = 0)

(* ------------------------------------------------------------------ *)
(* Map *)

(* Push a task; when the queue is at capacity, run the task inline
   rather than blocking — the caller is itself a worker, so blocking on
   a full queue could deadlock a nested [map]. *)
let push t task =
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.map: pool is shut down"
  end
  else if Queue.length t.slots < t.slot_capacity then begin
    Queue.push task t.slots;
    Condition.signal t.work;
    Mutex.unlock t.mutex;
    Telemetry.Counter.incr tasks_queued
  end
  else begin
    Mutex.unlock t.mutex;
    Telemetry.Counter.incr tasks_inline;
    task ()
  end

let map t f xs =
  if t.jobs <= 1 then List.map f xs
  else
    match xs with
    | [] -> []
    | [ x ] -> [ f x ]
    | _ ->
        let inputs = Array.of_list xs in
        let n = Array.length inputs in
        let results = Array.make n None in
        let remaining = Atomic.make n in
        let batch_mutex = Mutex.create () in
        let batch_done = Condition.create () in
        (* Tasks adopt the spawning request's context (trace, trail):
           whatever domain (or helping caller from another batch)
           executes a slot replaces its own bindings with this batch's
           for the task's duration, so spans and provenance recorded
           inside land in the right request. *)
        let ctx = Telemetry.Context.capture () in
        let run_slot i =
          (* Sharded by the executing domain, so the per-shard readout
             of this counter is the pool's per-domain utilization. *)
          Telemetry.Counter.incr tasks_executed;
          let r =
            try
              Ok (Telemetry.Context.with_captured ctx (fun () -> f inputs.(i)))
            with e -> Error e
          in
          results.(i) <- Some r;
          if Atomic.fetch_and_add remaining (-1) = 1 then begin
            Mutex.lock batch_mutex;
            Condition.broadcast batch_done;
            Mutex.unlock batch_mutex
          end
        in
        for i = 1 to n - 1 do
          push t (fun () -> run_slot i)
        done;
        run_slot 0;
        (* Participate: drain queued map slots (ours or another batch's,
           never a request from the lane) until every slot of this batch
           has settled, then wait out any straggler still running on a
           worker. *)
        let rec help () =
          if Atomic.get remaining > 0 then begin
            Mutex.lock t.mutex;
            match Queue.take_opt t.slots with
            | Some task ->
                Mutex.unlock t.mutex;
                task ();
                help ()
            | None ->
                Mutex.unlock t.mutex;
                Mutex.lock batch_mutex;
                while Atomic.get remaining > 0 do
                  Condition.wait batch_done batch_mutex
                done;
                Mutex.unlock batch_mutex
          end
        in
        help ();
        Array.to_list
          (Array.map
             (function
               | Some (Ok v) -> v
               | Some (Error e) -> raise e
               | None -> assert false)
             results)

let fan_out ?pool f xs =
  match pool with Some pool -> map pool f xs | None -> List.map f xs

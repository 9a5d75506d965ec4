module Telemetry = Aved_telemetry.Telemetry

let tasks_queued = Telemetry.Counter.make "parallel.tasks.queued"
let tasks_inline = Telemetry.Counter.make "parallel.tasks.inline"
let tasks_executed = Telemetry.Counter.make "parallel.tasks.executed"

type task = unit -> unit

type t = {
  mutex : Mutex.t;
  not_empty : Condition.t;
  queue : task Queue.t;
  capacity : int;
  jobs : int;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let jobs t = t.jobs

(* Worker loop: drain the queue until the pool closes. Tasks never
   raise — {!map} wraps user functions in a result capture — so a
   worker cannot die early and strand a batch. *)
let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.closed do
    Condition.wait t.not_empty t.mutex
  done;
  match Queue.take_opt t.queue with
  | Some task ->
      Mutex.unlock t.mutex;
      task ();
      worker_loop t
  | None ->
      (* Empty and closed. *)
      Mutex.unlock t.mutex

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      mutex = Mutex.create ();
      not_empty = Condition.create ();
      queue = Queue.create ();
      capacity = Stdlib.max 64 (jobs * 16);
      jobs;
      closed = false;
      workers = [];
    }
  in
  t.workers <-
    List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  let workers = t.workers in
  t.closed <- true;
  t.workers <- [];
  Condition.broadcast t.not_empty;
  Mutex.unlock t.mutex;
  List.iter Domain.join workers

let run ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Push a task; when the queue is at capacity, run the task inline
   rather than blocking — the caller is itself a worker, so blocking on
   a full queue could deadlock a nested [map]. *)
let push t task =
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.map: pool is shut down"
  end
  else if Queue.length t.queue < t.capacity then begin
    Queue.push task t.queue;
    Condition.signal t.not_empty;
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
        (* Participate: drain queued tasks (ours or another batch's)
           until every slot of this batch has settled, then wait out any
           straggler still running on a worker. *)
        let rec help () =
          if Atomic.get remaining > 0 then begin
            Mutex.lock t.mutex;
            match Queue.take_opt t.queue with
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

(* Engine C in one compilation unit: the random stream, the samplers,
   the event heap and the replication loop that drives them. Built with
   [-opaque] (dune's dev profile), a call into another unit is never
   inlined and every float that crosses it is boxed, so the loop lives
   beside what it calls and the hot helpers are marked [@inline]. *)

module Rng = struct
  (* The SplitMix64 state lives unboxed in 8 bytes: a [mutable int64]
     field would box a fresh int64 on every draw. *)
  type t = Bytes.t

  external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
  external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

  let golden_gamma = 0x9E3779B97F4A7C15L

  (* SplitMix64 output mixer (Steele, Lea & Flood 2014). *)
  let[@inline] mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
              0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
              0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let of_state state =
    let t = Bytes.create 8 in
    set_state t 0 state;
    t

  let create seed = of_state (Int64.of_int seed)
  let copy = Bytes.copy

  let[@inline] next_int64 t =
    let state = Int64.add (get_state t 0) golden_gamma in
    set_state t 0 state;
    mix state

  let split t = of_state (mix (next_int64 t))

  (* Top 53 bits scaled to [0, 1). *)
  let[@inline] float t =
    let bits = Int64.shift_right_logical (next_int64 t) 11 in
    Int64.to_float bits *. 0x1.0p-53

  let uniform t ~lo ~hi =
    if hi < lo then invalid_arg "Rng.uniform: hi < lo";
    lo +. (float t *. (hi -. lo))

  let int t bound =
    if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
    (* Rejection-free for our purposes: bounds are tiny relative to 2^53. *)
    int_of_float (float t *. float_of_int bound)

  let[@inline] exponential t ~rate =
    if not (Float.is_finite rate) || rate <= 0. then
      invalid_arg (Printf.sprintf "Rng.exponential: rate %g" rate);
    let u = float t in
    -.Float.log1p (-.u) /. rate

  let[@inline] weibull t ~shape ~scale =
    if shape <= 0. || scale <= 0. then
      invalid_arg "Rng.weibull: bad parameters";
    let u = float t in
    scale *. Float.pow (-.Float.log1p (-.u)) (1. /. shape)

  let[@inline] gaussian t ~mean ~stddev =
    if stddev < 0. then invalid_arg "Rng.gaussian: negative stddev";
    (* Box-Muller; u1 must be nonzero for the log. *)
    let u1 = ref (float t) in
    while not (!u1 > 0.) do
      u1 := float t
    done;
    let u2 = float t in
    let r = sqrt (-2. *. log !u1) in
    mean +. (stddev *. r *. cos (2. *. Float.pi *. u2))

  let[@inline] lognormal t ~mu ~sigma =
    exp (gaussian t ~mean:mu ~stddev:sigma)
end

module Distribution = struct
  type t =
    | Deterministic of float
    | Exponential of float
    | Weibull of { shape : float; scale : float }
    | Lognormal of { mu : float; sigma : float }

  let exponential_of_mean m =
    if not (Float.is_finite m) || m <= 0. then
      invalid_arg (Printf.sprintf "Distribution.exponential_of_mean: %g" m);
    Exponential m

  (* Gamma function via the Lanczos approximation — accurate to ~1e-13
     for the arguments used here (1 + 1/shape with shape in a sane
     range). *)
  let gamma x =
    let coefficients =
      [|
        676.5203681218851; -1259.1392167224028; 771.32342877765313;
        -176.61502916214059; 12.507343278686905; -0.13857109526572012;
        9.9843695780195716e-6; 1.5056327351493116e-7;
      |]
    in
    let rec compute x =
      if x < 0.5 then Float.pi /. (sin (Float.pi *. x) *. compute (1. -. x))
      else begin
        let x = x -. 1. in
        let a = ref 0.99999999999980993 in
        Array.iteri
          (fun i c -> a := !a +. (c /. (x +. float_of_int i +. 1.)))
          coefficients;
        let t = x +. 7.5 in
        sqrt (2. *. Float.pi)
        *. Float.pow t (x +. 0.5)
        *. exp (-.t) *. !a
      end
    in
    compute x

  let weibull_of_mean ~shape ~mean =
    if shape <= 0. || mean <= 0. then
      invalid_arg "Distribution.weibull_of_mean: bad parameters";
    let scale = mean /. gamma (1. +. (1. /. shape)) in
    Weibull { shape; scale }

  let lognormal_of_mean ~sigma ~mean =
    if sigma < 0. || mean <= 0. then
      invalid_arg "Distribution.lognormal_of_mean: bad parameters";
    (* E = exp(mu + sigma^2/2)  =>  mu = log mean - sigma^2/2. *)
    Lognormal { mu = log mean -. (sigma *. sigma /. 2.); sigma }

  let mean = function
    | Deterministic v -> v
    | Exponential m -> m
    | Weibull { shape; scale } -> scale *. gamma (1. +. (1. /. shape))
    | Lognormal { mu; sigma } -> exp (mu +. (sigma *. sigma /. 2.))

  let[@inline] sample t rng =
    match t with
    | Deterministic v -> v
    | Exponential m -> Rng.exponential rng ~rate:(1. /. m)
    | Weibull { shape; scale } -> Rng.weibull rng ~shape ~scale
    | Lognormal { mu; sigma } -> Rng.lognormal rng ~mu ~sigma

  let pp ppf = function
    | Deterministic v -> Format.fprintf ppf "deterministic(%g)" v
    | Exponential m -> Format.fprintf ppf "exponential(mean=%g)" m
    | Weibull { shape; scale } ->
        Format.fprintf ppf "weibull(shape=%g, scale=%g)" shape scale
    | Lognormal { mu; sigma } ->
        Format.fprintf ppf "lognormal(mu=%g, sigma=%g)" mu sigma
end

module Event_queue = struct
  (* Struct-of-arrays heap: slot [i] is the event at [times.(i)], pushed
     as number [seqs.(i)], carrying [payloads.(i)]. Times sit unboxed in
     a [Float.Array] and payloads are ints, so neither a push nor a pop
     allocates or goes through the write barrier. *)
  type t = {
    mutable times : Float.Array.t;
    mutable seqs : int array;
    mutable payloads : int array;
    mutable size : int;
    mutable next_seq : int;  (* pushes since creation *)
  }

  let create () =
    {
      times = Float.Array.create 0;
      seqs = [||];
      payloads = [||];
      size = 0;
      next_seq = 0;
    }

  let is_empty t = t.size = 0
  let length t = t.size

  (* Whether the event at (time, seq) comes before the one in slot [j]. *)
  let[@inline] before t time seq j =
    let tj = Float.Array.unsafe_get t.times j in
    time < tj || (time = tj && seq < Array.unsafe_get t.seqs j)

  let[@inline] move t ~src ~dst =
    Float.Array.unsafe_set t.times dst (Float.Array.unsafe_get t.times src);
    Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
    Array.unsafe_set t.payloads dst (Array.unsafe_get t.payloads src)

  let[@inline] place t i time seq payload =
    Float.Array.unsafe_set t.times i time;
    Array.unsafe_set t.seqs i seq;
    Array.unsafe_set t.payloads i payload

  let grow t =
    let capacity = Array.length t.seqs in
    if t.size = capacity then begin
      let new_capacity = Stdlib.max 16 (2 * capacity) in
      let times = Float.Array.create new_capacity in
      Float.Array.blit t.times 0 times 0 t.size;
      let seqs = Array.make new_capacity 0 in
      Array.blit t.seqs 0 seqs 0 t.size;
      let payloads = Array.make new_capacity 0 in
      Array.blit t.payloads 0 payloads 0 t.size;
      t.times <- times;
      t.seqs <- seqs;
      t.payloads <- payloads
    end

  let[@inline] push t ~time payload =
    if not (Float.is_finite time) then
      invalid_arg (Printf.sprintf "Event_queue.push: time %g" time);
    grow t;
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    (* Sift the hole up from the new last slot. *)
    let i = ref t.size in
    t.size <- t.size + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if before t time seq parent then begin
        move t ~src:parent ~dst:!i;
        i := parent
      end
      else continue := false
    done;
    place t !i time seq payload

  let[@inline] min_time t =
    if t.size = 0 then Float.infinity else Float.Array.unsafe_get t.times 0

  let[@inline] pop_min t =
    if t.size = 0 then invalid_arg "Event_queue.pop_min: empty queue";
    let top = Array.unsafe_get t.payloads 0 in
    let last = t.size - 1 in
    t.size <- last;
    if last > 0 then begin
      let time = Float.Array.unsafe_get t.times last
      and seq = Array.unsafe_get t.seqs last
      and payload = Array.unsafe_get t.payloads last in
      (* Sift the hole down from the root, then drop the old last event
         into it. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let left = (2 * !i) + 1 in
        if left >= last then continue := false
        else begin
          let right = left + 1 in
          let child =
            if
              right < last
              && before t
                   (Float.Array.unsafe_get t.times right)
                   (Array.unsafe_get t.seqs right)
                   left
            then right
            else left
          in
          (* Sequence numbers are unique, so the order is total: the
             child comes first exactly when the moving event does not. *)
          if not (before t time seq child) then begin
            move t ~src:child ~dst:!i;
            i := child
          end
          else continue := false
        end
      done;
      place t !i time seq payload
    end;
    top

  let pushes t = t.next_seq

  let clear t =
    t.size <- 0;
    t.times <- Float.Array.create 0;
    t.seqs <- [||];
    t.payloads <- [||]
end

module Replication = struct
  type plan = {
    n_active : int;
    n_min : int;
    n_spare : int;
    proposes : bool array;
    failure_dists : Distribution.t array;
    repair_dists : Distribution.t array;
    fails_over : bool array;
    failover_seconds : float array;
  }

  type job = {
    rate_per_second : float;
    job_size : float;
    loss_window : float option;
  }

  (* Events are ints: a class index (>= 0) is a unit failure of that
     class. *)
  let repair_complete = -1
  let activation_complete = -2

  (* All-float, so stored flat: advancing the clock does not box. *)
  type clock = { mutable now : float; mutable downtime : float }

  (* The job's progress, all-float for the same reason. [completed_at]
     is infinite until the job completes. *)
  type progress = {
    mutable work : float;
    mutable checkpointed : float;
    mutable since_checkpoint : float;
    mutable completed_at : float;
  }

  type t = {
    plan : plan;
    rng : Rng.t;
    queue : Event_queue.t;
    mutable active : int;  (* resources currently serving *)
    mutable activating : int;  (* spares warming up *)
    mutable spares : int;  (* cold/idle operational spares *)
    clock : clock;
    (* Empirical attribution: index of the class whose failure last took
       the tier down (-1 before any such event), and downtime accrued
       per class. Repairs and further failures while down do not
       reassign the cause; [class_downtime] sums to [clock.downtime] by
       construction. *)
    mutable down_cause : int;
    class_downtime : float array;
    job : job option;
    progress : progress;
  }

  (* Arm the failure clock of one serving resource: every class
     proposes a time, the earliest fires (competing risks; exact for
     exponentials, the natural generalization otherwise). Ties go to the
     lower class. *)
  let schedule_unit_failure st =
    let plan = st.plan in
    let best = ref (-1) in
    let best_dt = ref 0. in
    for i = 0 to Array.length plan.proposes - 1 do
      if plan.proposes.(i) then begin
        let dt = Distribution.sample plan.failure_dists.(i) st.rng in
        if !best < 0 || not (!best_dt <= dt) then begin
          best := i;
          best_dt := dt
        end
      end
    done;
    if !best >= 0 then
      Event_queue.push st.queue ~time:(st.clock.now +. !best_dt) !best

  let create ?job plan rng =
    let st =
      {
        plan;
        rng;
        queue = Event_queue.create ();
        active = plan.n_active;
        activating = 0;
        spares = plan.n_spare;
        clock = { now = 0.; downtime = 0. };
        down_cause = -1;
        class_downtime = Array.make (Array.length plan.proposes) 0.;
        job;
        progress =
          {
            work = 0.;
            checkpointed = 0.;
            since_checkpoint = 0.;
            completed_at = Float.infinity;
          };
      }
    in
    for _ = 1 to st.active do
      schedule_unit_failure st
    done;
    st

  let[@inline] is_up st = st.active >= st.plan.n_min
  let[@inline] job_running st = st.progress.completed_at = Float.infinity

  (* The job's work over [t0, t1]: it accrues at the tier's rate while
     the tier is up, a checkpoint completes every loss window of running
     time, and the job completes once its work reaches [job_size]. *)
  let[@inline] advance_job st job t0 t1 =
    let p = st.progress in
    if is_up st && job_running st then begin
      let remaining = ref (t1 -. t0) in
      let now = ref t0 in
      while !remaining > 0. && job_running st do
        let to_checkpoint =
          match job.loss_window with
          | Some lw -> lw -. p.since_checkpoint
          | None -> Float.infinity
        in
        let dt = Float.min !remaining to_checkpoint in
        let to_done = (job.job_size -. p.work) /. job.rate_per_second in
        if to_done <= dt then begin
          p.completed_at <- !now +. to_done;
          p.work <- job.job_size
        end
        else begin
          p.work <- p.work +. (dt *. job.rate_per_second);
          p.since_checkpoint <- p.since_checkpoint +. dt;
          now := !now +. dt;
          remaining := !remaining -. dt;
          match job.loss_window with
          | Some lw when p.since_checkpoint >= lw -. 1e-9 ->
              p.checkpointed <- p.work;
              p.since_checkpoint <- 0.
          | Some _ | None -> ()
        end
      done
    end

  let handle_event st ev =
    let plan = st.plan in
    if ev >= 0 then begin
      (* A failure rewinds an unfinished job to its last checkpoint. *)
      (match st.job with
      | Some _ when job_running st ->
          st.progress.work <- st.progress.checkpointed;
          st.progress.since_checkpoint <- 0.
      | Some _ | None -> ());
      let was_up = is_up st in
      st.active <- st.active - 1;
      if was_up && not (is_up st) then st.down_cause <- ev;
      let repair_delay = Distribution.sample plan.repair_dists.(ev) st.rng in
      Event_queue.push st.queue ~time:(st.clock.now +. repair_delay)
        repair_complete;
      (* Spare activation: only when failover is considered for this
         mode, a spare is free, and the active set is short. *)
      if
        plan.fails_over.(ev) && st.spares > 0
        && st.active + st.activating < plan.n_active
      then begin
        st.spares <- st.spares - 1;
        st.activating <- st.activating + 1;
        Event_queue.push st.queue
          ~time:(st.clock.now +. plan.failover_seconds.(ev))
          activation_complete
      end
    end
    else if ev = repair_complete then begin
      (* A repaired resource rejoins service directly when the active
         set is short (its components restarted as part of the MTTR);
         otherwise it becomes a spare. *)
      if st.active + st.activating < plan.n_active then begin
        st.active <- st.active + 1;
        schedule_unit_failure st
      end
      else st.spares <- st.spares + 1
    end
    else begin
      st.activating <- st.activating - 1;
      st.active <- st.active + 1;
      schedule_unit_failure st
    end

  let run st ~stop =
    let clock = st.clock in
    let finished = ref false in
    while (not !finished) && job_running st do
      let t_event = Event_queue.min_time st.queue in
      (* [Float.min stop t_event]: neither is NaN. *)
      let t_next = if t_event > stop then stop else t_event in
      if Float.is_finite t_next then begin
        (match st.job with
        | Some job -> advance_job st job clock.now t_next
        | None -> ());
        if not (is_up st) then begin
          let dt = t_next -. clock.now in
          clock.downtime <- clock.downtime +. dt;
          if st.down_cause >= 0 then
            st.class_downtime.(st.down_cause) <-
              st.class_downtime.(st.down_cause) +. dt
        end;
        clock.now <- t_next
      end;
      if t_next >= stop then finished := true
      else handle_event st (Event_queue.pop_min st.queue)
    done

  let downtime st = st.clock.downtime
  let class_downtime st = st.class_downtime

  let completion st =
    if job_running st then None else Some st.progress.completed_at

  let events st = Event_queue.pushes st.queue
end

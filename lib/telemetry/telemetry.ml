(* Sharding: cells live in per-shard arrays indexed by metric id; the
   shard is picked by domain id, so concurrent increments from the
   search pool's domains land on disjoint memory. Cells are plain
   (non-atomic) — distinct live domains always map to distinct shards
   in practice (domain ids grow monotonically and [num_shards] far
   exceeds any pool size), and a wrapped-id collision at worst loses a
   handful of increments of a diagnostic counter, never a result. *)

let num_shards = 256 (* power of two: shard = domain id land (n-1) *)
let max_metrics = 1024 (* per-kind id cap; later handles are dropped *)
let num_buckets = 64
let min_exponent = -30 (* bucket 0 upper bound = 2^-29 s ~ 1.9 ns *)

let now_seconds () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Process-wide metric-name interning (one id space per metric kind). *)

module Intern = struct
  type t = {
    mutex : Mutex.t;
    ids : (string, int) Hashtbl.t;
    mutable names : string array;
    mutable next : int;
  }

  let create () =
    {
      mutex = Mutex.create ();
      ids = Hashtbl.create 64;
      names = Array.make 64 "";
      next = 0;
    }

  let intern t name =
    Mutex.lock t.mutex;
    let id =
      match Hashtbl.find_opt t.ids name with
      | Some id -> id
      | None ->
          let id = t.next in
          t.next <- id + 1;
          if id >= Array.length t.names then begin
            let grown = Array.make (2 * Array.length t.names) "" in
            Array.blit t.names 0 grown 0 (Array.length t.names);
            t.names <- grown
          end;
          t.names.(id) <- name;
          Hashtbl.add t.ids name id;
          id
    in
    Mutex.unlock t.mutex;
    id

  let find_opt t name =
    Mutex.lock t.mutex;
    let id = Hashtbl.find_opt t.ids name in
    Mutex.unlock t.mutex;
    id

  (* Snapshot of (id, name) pairs, bounded by the registry cell cap. *)
  let known t =
    Mutex.lock t.mutex;
    let n = Stdlib.min t.next max_metrics in
    let pairs = List.init n (fun id -> (id, t.names.(id))) in
    Mutex.unlock t.mutex;
    pairs

  let name t id =
    Mutex.lock t.mutex;
    let n = if id >= 0 && id < t.next then t.names.(id) else "?" in
    Mutex.unlock t.mutex;
    n
end

let counter_names = Intern.create ()
let gauge_names = Intern.create ()
let histogram_names = Intern.create ()

(* ------------------------------------------------------------------ *)
(* Registry *)

type hist_cell = {
  bucket_counts : int array;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type shard = {
  counter_cells : int array;
  hist_cells : hist_cell option array;
}

type t = {
  mutex : Mutex.t; (* guards shard creation *)
  shards : shard option array;
  gauge_cells : float array;
  gauge_set : bool array;
}

let create ?span_capacity:_ () =
  {
    mutex = Mutex.create ();
    shards = Array.make num_shards None;
    gauge_cells = Array.make max_metrics 0.;
    gauge_set = Array.make max_metrics false;
  }

let current : t option Atomic.t = Atomic.make None
let install t = Atomic.set current (Some t)
let uninstall () = Atomic.set current None
let enabled () = Atomic.get current <> None

let with_registry t f =
  install t;
  Fun.protect ~finally:uninstall f

let shard_of t =
  let i = (Domain.self () :> int) land (num_shards - 1) in
  match t.shards.(i) with
  | Some s -> s
  | None ->
      Mutex.lock t.mutex;
      let s =
        match t.shards.(i) with
        | Some s -> s
        | None ->
            let s =
              {
                counter_cells = Array.make max_metrics 0;
                hist_cells = Array.make max_metrics None;
              }
            in
            t.shards.(i) <- Some s;
            s
      in
      Mutex.unlock t.mutex;
      s

let fold_shards t f init =
  Array.fold_left
    (fun acc shard -> match shard with None -> acc | Some s -> f acc s)
    init t.shards

(* ------------------------------------------------------------------ *)
(* Counters *)

module Counter = struct
  type h = int

  let make name = Intern.intern counter_names name
  let name h = Intern.name counter_names h

  let add h n =
    match Atomic.get current with
    | None -> ()
    | Some t ->
        if h < max_metrics then begin
          let s = shard_of t in
          s.counter_cells.(h) <- s.counter_cells.(h) + n
        end

  let incr h = add h 1
  let read t h = fold_shards t (fun acc s -> acc + s.counter_cells.(h)) 0

  let read_by_name t name =
    match Intern.find_opt counter_names name with
    | Some h when h < max_metrics -> read t h
    | Some _ | None -> 0

  let per_shard t h =
    let cells = ref [] in
    Array.iteri
      (fun i shard ->
        match shard with
        | Some s when s.counter_cells.(h) <> 0 ->
            cells := (i, s.counter_cells.(h)) :: !cells
        | Some _ | None -> ())
      t.shards;
    List.rev !cells
end

(* ------------------------------------------------------------------ *)
(* Gauges (rare writes: one registry-level cell, last write wins) *)

module Gauge = struct
  type h = int

  let make name = Intern.intern gauge_names name

  let set h v =
    match Atomic.get current with
    | None -> ()
    | Some t ->
        if h < max_metrics then begin
          t.gauge_cells.(h) <- v;
          t.gauge_set.(h) <- true
        end

  let read t h =
    if h < max_metrics && t.gauge_set.(h) then Some t.gauge_cells.(h)
    else None
end

(* ------------------------------------------------------------------ *)
(* Histograms *)

module Histogram = struct
  type h = int

  type summary = {
    count : int;
    sum : float;
    min : float;
    max : float;
    buckets : (float * int) list;
  }

  let make name = Intern.intern histogram_names name

  (* Bucket of a positive value v: floor(log2 v) clamped into the
     [min_exponent, min_exponent + num_buckets) window. *)
  let bucket_of v =
    if v <= 0. || not (Float.is_finite v) then 0
    else
      let _, e = Float.frexp v in
      (* v = m * 2^e with m in [0.5, 1): floor(log2 v) = e - 1. *)
      Stdlib.max 0 (Stdlib.min (num_buckets - 1) (e - 1 - min_exponent))

  let bucket_upper_bound i = Float.pow 2. (float_of_int (i + min_exponent + 1))

  (* Upper bound of the bucket [observe v] would land in — the [le]
     label an exemplar for [v] must attach to. *)
  let bound_of_value v = bucket_upper_bound (bucket_of v)

  let fresh_cell () =
    {
      bucket_counts = Array.make num_buckets 0;
      h_count = 0;
      h_sum = 0.;
      h_min = Float.infinity;
      h_max = Float.neg_infinity;
    }

  let observe h v =
    match Atomic.get current with
    | None -> ()
    | Some t ->
        if h < max_metrics then begin
          let s = shard_of t in
          let c =
            match s.hist_cells.(h) with
            | Some c -> c
            | None ->
                let c = fresh_cell () in
                s.hist_cells.(h) <- Some c;
                c
          in
          c.bucket_counts.(bucket_of v) <- c.bucket_counts.(bucket_of v) + 1;
          c.h_count <- c.h_count + 1;
          c.h_sum <- c.h_sum +. v;
          if v < c.h_min then c.h_min <- v;
          if v > c.h_max then c.h_max <- v
        end

  let time h f =
    match Atomic.get current with
    | None -> f ()
    | Some _ ->
        let t0 = now_seconds () in
        Fun.protect ~finally:(fun () -> observe h (now_seconds () -. t0)) f

  let read t h =
    let merged = Array.make num_buckets 0 in
    let count = ref 0 and sum = ref 0. in
    let vmin = ref Float.infinity and vmax = ref Float.neg_infinity in
    fold_shards t
      (fun () s ->
        match s.hist_cells.(h) with
        | None -> ()
        | Some c ->
            Array.iteri
              (fun i n -> merged.(i) <- merged.(i) + n)
              c.bucket_counts;
            count := !count + c.h_count;
            sum := !sum +. c.h_sum;
            if c.h_min < !vmin then vmin := c.h_min;
            if c.h_max > !vmax then vmax := c.h_max)
      ();
    let buckets = ref [] in
    for i = num_buckets - 1 downto 0 do
      if merged.(i) > 0 then
        buckets := (bucket_upper_bound i, merged.(i)) :: !buckets
    done;
    {
      count = !count;
      sum = !sum;
      min = (if !count = 0 then Float.nan else !vmin);
      max = (if !count = 0 then Float.nan else !vmax);
      buckets = !buckets;
    }

  let mean s = if s.count = 0 then Float.nan else s.sum /. float_of_int s.count

  let quantile s q =
    if s.count = 0 then Float.nan
    else begin
      let target = q *. float_of_int s.count in
      let rec scan acc = function
        | [] -> s.max
        | (ub, n) :: rest ->
            let acc = acc + n in
            if float_of_int acc >= target then ub else scan acc rest
      in
      scan 0 s.buckets
    end

  let quantile_est s q =
    if s.count = 0 then Float.nan
    else begin
      let target = q *. float_of_int s.count in
      let rec scan acc = function
        | [] -> s.max
        | (ub, n) :: rest ->
            let reached = acc + n in
            if float_of_int reached >= target then begin
              (* Log-bucketed: the bucket spans (ub/2, ub]. Interpolate
                 by rank position inside it, then clamp to the observed
                 extremes so a single-bucket summary reports a value
                 that was actually seen. *)
              let lb = ub /. 2. in
              let frac =
                Float.max 0.
                  (Float.min 1.
                     ((target -. float_of_int acc) /. float_of_int n))
              in
              Float.min s.max (Float.max s.min (lb +. (frac *. (ub -. lb))))
            end
            else scan reached rest
      in
      scan 0 s.buckets
    end
end

(* ------------------------------------------------------------------ *)
(* Per-thread request context *)

module Context = struct
  type 'a key = 'a Type.Id.t
  type binding = B : 'a key * 'a -> binding

  module Int_map = Map.Make (Int)

  (* One thread's bindings, by key uid. *)
  type captured = binding Int_map.t

  let key () = Type.Id.make ()

  (* Bindings are per-*thread*, not per-domain: a domain can run several
     systhreads (domain 0 runs the daemon's reactor beside whatever
     threads an embedding program starts), and Domain.DLS would let one
     thread see another's bindings. Every thread's bindings live in
     one immutable map behind an atomic, keyed by [Thread.id]: readers
     never lock, and with nothing bound anywhere a read is one atomic
     load. Only a thread itself writes its entry (copy-on-write under
     compare-and-set), so a snapshot's entry for the calling thread is
     always current. *)
  let threads : captured Int_map.t Atomic.t = Atomic.make Int_map.empty
  let self () = Thread.id (Thread.self ())

  let capture () =
    let table = Atomic.get threads in
    if Int_map.is_empty table then Int_map.empty
    else Option.value ~default:Int_map.empty (Int_map.find_opt (self ()) table)

  let get (type a) (k : a key) : a option =
    let bindings = capture () in
    if Int_map.is_empty bindings then None
    else
      match Int_map.find_opt (Type.Id.uid k) bindings with
      | Some (B (k', v)) -> (
          match Type.Id.provably_equal k k' with
          | Some Type.Equal -> Some v
          | None -> None)
      | None -> None

  let rec set tid bindings =
    let table = Atomic.get threads in
    let table' =
      if Int_map.is_empty bindings then Int_map.remove tid table
      else Int_map.add tid bindings table
    in
    if not (Atomic.compare_and_set threads table table') then set tid bindings

  let with_captured bindings f =
    let saved = capture () in
    if saved == bindings then f ()
    else begin
      let tid = self () in
      set tid bindings;
      Fun.protect ~finally:(fun () -> set tid saved) f
    end

  let with_value k v f =
    let bindings = capture () in
    let uid = Type.Id.uid k in
    with_captured
      (match v with
      | Some v -> Int_map.add uid (B (k, v)) bindings
      | None -> Int_map.remove uid bindings)
      f
end

(* ------------------------------------------------------------------ *)
(* Per-request trace collectors *)

module Trace = struct
  type span = {
    id : int;
    parent : int;
    name : string;
    start_s : float;
    dur_s : float;
    tid : int;
    cpu_s : float;
    minor_words : float;
    major_words : float;
  }

  (* A cell is claimed at span *entry* and filled at exit. Claiming on
     entry (not exit) is what keeps trees well-formed under the
     capacity bound: a parent always claims before its children, and
     capacity never frees within one trace, so once a span is dropped
     every later entry — all its descendants included — is dropped
     too. Retained spans therefore always have retained parents. *)
  type cell = {
    c_id : int;
    c_parent : int;
    c_name : string;
    c_tid : int;
    c_start_s : float;
    mutable c_dur_s : float; (* < 0 until the span exits *)
    mutable c_cpu_s : float;
    mutable c_minor : float;
    mutable c_major : float;
  }

  type t = {
    trace_id : string;
    t_mutex : Mutex.t; (* guards cells/len/dropped *)
    mutable cells : cell list; (* newest first *)
    mutable len : int;
    capacity : int;
    mutable t_dropped : int;
    next_id : int Atomic.t;
    mutable baseline : (string * int) list;
  }

  type context = { trace : t; parent : int }

  let default_capacity = 2048

  let create ?(capacity = default_capacity) ~trace_id () =
    if capacity < 0 then
      invalid_arg "Telemetry.Trace.create: capacity must be non-negative";
    {
      trace_id;
      t_mutex = Mutex.create ();
      cells = [];
      len = 0;
      capacity;
      t_dropped = 0;
      next_id = Atomic.make 1;
      baseline = [];
    }

  let trace_id t = t.trace_id
  let alloc_span_id t = Atomic.fetch_and_add t.next_id 1
  let context t ~parent = { trace = t; parent }
  let set_baseline t pairs = t.baseline <- pairs
  let baseline t = t.baseline

  let dropped t =
    Mutex.lock t.t_mutex;
    let d = t.t_dropped in
    Mutex.unlock t.t_mutex;
    d

  (* Unconditional append, used for the handful of synthetic lifecycle
     spans the server records at finish time (root + one per stage) —
     those must survive even when handler spans hit the capacity. *)
  let record t ~id ~parent ~name ~start_s ~dur_s ~tid =
    let cell =
      {
        c_id = id;
        c_parent = parent;
        c_name = name;
        c_tid = tid;
        c_start_s = start_s;
        c_dur_s = dur_s;
        c_cpu_s = 0.;
        c_minor = 0.;
        c_major = 0.;
      }
    in
    Mutex.lock t.t_mutex;
    t.cells <- cell :: t.cells;
    t.len <- t.len + 1;
    Mutex.unlock t.t_mutex

  let key : context Context.key = Context.key ()
  let current () = Context.get key
  let with_context ctx f = Context.with_value key ctx f

  (* Run [f] as a child span of [ctx]: claim a cell, make it the
     ambient parent while [f] runs, and on exit fill in the wall
     duration and resource deltas. *)
  let within ctx name f =
    let t = ctx.trace in
    let start_s = now_seconds () in
    Mutex.lock t.t_mutex;
    let cell =
      if t.len >= t.capacity then begin
        t.t_dropped <- t.t_dropped + 1;
        None
      end
      else begin
        let c =
          {
            c_id = alloc_span_id t;
            c_parent = ctx.parent;
            c_name = name;
            c_tid = (Domain.self () :> int);
            c_start_s = start_s;
            c_dur_s = -1.;
            c_cpu_s = 0.;
            c_minor = 0.;
            c_major = 0.;
          }
        in
        t.cells <- c :: t.cells;
        t.len <- t.len + 1;
        Some c
      end
    in
    Mutex.unlock t.t_mutex;
    match cell with
    | None -> f ()
    | Some c ->
        let minor0, _, major0 = Gc.counters () in
        let cpu0 = Sys.time () in
        Fun.protect
          ~finally:(fun () ->
            let minor1, _, major1 = Gc.counters () in
            c.c_cpu_s <- Sys.time () -. cpu0;
            c.c_minor <- minor1 -. minor0;
            c.c_major <- major1 -. major0;
            c.c_dur_s <- now_seconds () -. c.c_start_s)
          (fun () -> with_context (Some { trace = t; parent = c.c_id }) f)

  let spans t =
    Mutex.lock t.t_mutex;
    let cells = t.cells in
    Mutex.unlock t.t_mutex;
    List.filter_map
      (fun c ->
        if c.c_dur_s < 0. then None (* still open; skip *)
        else
          Some
            {
              id = c.c_id;
              parent = c.c_parent;
              name = c.c_name;
              start_s = c.c_start_s;
              dur_s = c.c_dur_s;
              tid = c.c_tid;
              cpu_s = c.c_cpu_s;
              minor_words = c.c_minor;
              major_words = c.c_major;
            })
      cells
    |> List.sort (fun a b ->
           match Float.compare a.start_s b.start_s with
           | 0 -> Stdlib.compare a.id b.id
           | n -> n)
end

(* ------------------------------------------------------------------ *)
(* Spans *)

let tracing () = Trace.current () <> None

let with_span name f =
  match Trace.current () with
  | None -> f ()
  | Some c -> Trace.within c name f

(* ------------------------------------------------------------------ *)
(* Readouts *)

let counters t =
  List.filter_map
    (fun (id, name) ->
      let v = Counter.read t id in
      if v <> 0 then Some (name, v) else None)
    (Intern.known counter_names)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let gauges t =
  List.filter_map
    (fun (id, name) -> Option.map (fun v -> (name, v)) (Gauge.read t id))
    (Intern.known gauge_names)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let histograms t =
  List.filter_map
    (fun (id, name) ->
      let s = Histogram.read t id in
      if s.Histogram.count > 0 then Some (name, s) else None)
    (Intern.known histogram_names)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp_scaled ppf v =
  if Float.is_nan v then Format.fprintf ppf "%10s" "-"
  else if v >= 1. then Format.fprintf ppf "%9.3f s" v
  else if v >= 1e-3 then Format.fprintf ppf "%8.3f ms" (v *. 1e3)
  else if v >= 1e-6 then Format.fprintf ppf "%8.3f us" (v *. 1e6)
  else Format.fprintf ppf "%8.1f ns" (v *. 1e9)

(* Histograms are unit-agnostic; only names advertising seconds get the
   time-scaled rendering, everything else prints as a plain number. *)
let pp_histogram_value ~name ppf v =
  let is_time =
    let suffix = ".seconds" in
    let ls = String.length suffix and ln = String.length name in
    ln >= ls && String.sub name (ln - ls) ls = suffix
  in
  if is_time then pp_scaled ppf v
  else if Float.is_nan v then Format.fprintf ppf "%10s" "-"
  else Format.fprintf ppf "%10g" v

let pp_summary ppf t =
  let cs = counters t and gs = gauges t and hs = histograms t in
  Format.fprintf ppf "@[<v>telemetry summary@,";
  if cs <> [] then begin
    Format.fprintf ppf "@,counters:@,";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-52s %12d@," name v)
      cs
  end;
  if gs <> [] then begin
    Format.fprintf ppf "@,gauges:@,";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-52s %12g@," name v)
      gs
  end;
  if hs <> [] then begin
    Format.fprintf ppf "@,histograms:%62s@,"
      "count mean min max p50 p99";
    List.iter
      (fun (name, (s : Histogram.summary)) ->
        let pp = pp_histogram_value ~name in
        Format.fprintf ppf "  %-30s %8d %a %a %a %a %a@," name s.count pp
          (Histogram.mean s) pp s.min pp s.max pp
          (Histogram.quantile s 0.5)
          pp
          (Histogram.quantile s 0.99))
      hs
  end;
  Format.fprintf ppf "@]"

(* Totals per span name: calls and cumulative time, sorted by name. *)
let pp_span_totals ppf (spans : Trace.span list) =
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.span) ->
      let calls, secs =
        Option.value (Hashtbl.find_opt totals s.name) ~default:(0, 0.)
      in
      Hashtbl.replace totals s.name (calls + 1, secs +. s.dur_s))
    spans;
  Format.fprintf ppf "@[<v>spans:%43s" "calls total";
  List.iter
    (fun (name, (calls, secs)) ->
      Format.fprintf ppf "@,  %-30s %8d %a" name calls pp_scaled secs)
    (List.sort
       (fun (a, _) (b, _) -> String.compare a b)
       (Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals []));
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export *)

let json_escape name =
  let b = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    name;
  Buffer.contents b

let write_chrome_spans (all : Trace.span list) oc =
  let base = match all with [] -> 0. | s :: _ -> s.start_s in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i (s : Trace.span) ->
      if i > 0 then output_string oc ",";
      Printf.fprintf oc
        "\n\
         {\"name\":\"%s\",\"cat\":\"aved\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d}"
        (json_escape s.name)
        ((s.start_s -. base) *. 1e6)
        (s.dur_s *. 1e6) s.tid)
    all;
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n"

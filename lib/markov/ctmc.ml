module Telemetry = Aved_telemetry.Telemetry

let gth_solves = Telemetry.Counter.make "markov.gth.solves"

exception Non_ergodic of string

type t = {
  n : int;
  rates : (int, float) Hashtbl.t array; (* per source: dst -> rate *)
  mutable order : (int * int) list; (* first insertions, reversed *)
}

let create n =
  if n <= 0 then invalid_arg (Printf.sprintf "Ctmc.create: %d states" n);
  { n; rates = Array.init n (fun _ -> Hashtbl.create 4); order = [] }

let check_state t s what =
  if s < 0 || s >= t.n then
    invalid_arg (Printf.sprintf "Ctmc: %s state %d out of [0, %d)" what s t.n)

let add_transition t ~src ~dst ~rate =
  check_state t src "source";
  check_state t dst "destination";
  if src = dst then invalid_arg "Ctmc.add_transition: self-loop";
  if not (Float.is_finite rate) || rate <= 0. then
    invalid_arg (Printf.sprintf "Ctmc.add_transition: rate %g" rate);
  match Hashtbl.find_opt t.rates.(src) dst with
  | Some existing -> Hashtbl.replace t.rates.(src) dst (existing +. rate)
  | None ->
      Hashtbl.add t.rates.(src) dst rate;
      t.order <- (src, dst) :: t.order

let num_states t = t.n

let total_exit_rate t s =
  check_state t s "source";
  Hashtbl.fold (fun _ rate acc -> acc +. rate) t.rates.(s) 0.

let transitions t =
  List.rev_map
    (fun (src, dst) -> (src, dst, Hashtbl.find t.rates.(src) dst))
    t.order

(* Forward reachability from state 0 and reverse reachability to it.
   States outside the former are dead weight; states outside the latter
   form absorbing classes that trap stationary probability. *)
let reachability t =
  let bfs neighbours =
    let seen = Array.make t.n false in
    let queue = Queue.create () in
    seen.(0) <- true;
    Queue.add 0 queue;
    while not (Queue.is_empty queue) do
      let s = Queue.pop queue in
      List.iter
        (fun d ->
          if not seen.(d) then begin
            seen.(d) <- true;
            Queue.add d queue
          end)
        (neighbours s)
    done;
    seen
  in
  let forward =
    bfs (fun s -> Hashtbl.fold (fun d _ acc -> d :: acc) t.rates.(s) [])
  in
  let reverse_adj = Array.make t.n [] in
  Array.iteri
    (fun src table ->
      Hashtbl.iter
        (fun dst _ -> reverse_adj.(dst) <- src :: reverse_adj.(dst))
        table)
    t.rates;
  (forward, bfs (fun s -> reverse_adj.(s)))

(* Ergodicity precheck. A chain is accepted when every state reachable
   from state 0 can also return to it: then state 0's communicating
   class is the unique closed class and the stationary distribution is
   well defined, with probability 0 on any states outside it (harmless
   unreachable islands are tolerated — they carry no mass). Probability
   escaping into a trap is rejected with {!Non_ergodic} before any
   arithmetic runs. *)
let check_ergodic t =
  let forward, reverse = reachability t in
  for s = 0 to t.n - 1 do
    if forward.(s) && not reverse.(s) then
      raise
        (Non_ergodic
           (Printf.sprintf
              "Ctmc: state %d is reachable from state 0 but cannot return to \
               it (probability is trapped outside the recurrent class)"
              s))
  done

(* Grassmann–Taksar–Heyman elimination on the dense rate matrix. States
   are eliminated from the highest index down; the algorithm uses only
   additions, multiplications and divisions of non-negative quantities,
   which keeps it stable even for stiff chains (rates spanning many
   orders of magnitude, as with hardware MTBFs in days vs. failover
   times in seconds). *)
let gth t =
  let n = t.n in
  let q = Array.make (n * n) 0. in
  Array.iteri
    (fun src table ->
      Hashtbl.iter (fun dst rate -> q.((src * n) + dst) <- rate) table)
    t.rates;
  let exit_sums = Array.make n 0. in
  for k = n - 1 downto 1 do
    let s = ref 0. in
    let base_k = k * n in
    for j = 0 to k - 1 do
      s := !s +. q.(base_k + j)
    done;
    exit_sums.(k) <- !s;
    if !s > 0. then
      for i = 0 to k - 1 do
        let base_i = i * n in
        let qik = q.(base_i + k) in
        if qik > 0. then
          for j = 0 to k - 1 do
            if j <> i then
              q.(base_i + j) <- q.(base_i + j) +. (qik *. q.(base_k + j) /. !s)
          done
      done
  done;
  let pi = Array.make n 0. in
  pi.(0) <- 1.;
  for k = 1 to n - 1 do
    let inflow = ref 0. in
    for i = 0 to k - 1 do
      inflow := !inflow +. (pi.(i) *. q.((i * n) + k))
    done;
    if exit_sums.(k) > 0. then pi.(k) <- !inflow /. exit_sums.(k)
    else if !inflow > 0. then
      raise
        (Non_ergodic "Ctmc.stationary: reducible chain (closed class apart)")
    else pi.(k) <- 0.
  done;
  let total = Array.fold_left ( +. ) 0. pi in
  if not (Float.is_finite total) then
    failwith "Ctmc.stationary: probability mass overflowed";
  let scale = 1. /. total in
  Array.map (fun x -> scale *. x) pi

let stationary t =
  check_ergodic t;
  Telemetry.with_span "markov.solve.gth" @@ fun () ->
  Telemetry.Counter.incr gth_solves;
  gth t

type backend = Gth | Banded | Power | Lu

let select_backend _ = Gth

let transient t ~initial ~time ~epsilon =
  if Array.length initial <> t.n then
    invalid_arg "Ctmc.transient: initial distribution dimension mismatch";
  if time < 0. then invalid_arg "Ctmc.transient: negative time";
  if epsilon <= 0. then invalid_arg "Ctmc.transient: epsilon must be positive";
  let max_exit =
    List.fold_left
      (fun acc s -> Float.max acc (total_exit_rate t s))
      0.
      (List.init t.n Fun.id)
  in
  if max_exit = 0. || time = 0. then Array.copy initial
  else begin
    (* Uniformization: P = I + Q/Lambda, result = sum_k Poisson(Lambda t; k) v P^k. *)
    let lambda = max_exit *. 1.02 in
    let step v =
      let out = Array.make t.n 0. in
      for s = 0 to t.n - 1 do
        let stay = 1. -. (total_exit_rate t s /. lambda) in
        out.(s) <- out.(s) +. (v.(s) *. stay);
        Hashtbl.iter
          (fun dst rate -> out.(dst) <- out.(dst) +. (v.(s) *. rate /. lambda))
          t.rates.(s)
      done;
      out
    in
    let lt = lambda *. time in
    let result = Array.make t.n 0. in
    let v = ref (Array.copy initial) in
    (* Accumulate Poisson weights iteratively: w_0 = e^{-lt}. For large lt
       start from logs to avoid underflow. *)
    let log_w = ref (-.lt) in
    let accumulated = ref 0. in
    let k = ref 0 in
    while !accumulated < 1. -. epsilon && !k < 100_000 do
      let w = exp !log_w in
      if w > 0. then begin
        accumulated := !accumulated +. w;
        for s = 0 to t.n - 1 do
          result.(s) <- result.(s) +. (w *. !v.(s))
        done
      end;
      incr k;
      log_w := !log_w +. log lt -. log (float_of_int !k);
      v := step !v
    done;
    (* Assign the truncated tail to the final iterate to keep mass 1. *)
    let tail = 1. -. !accumulated in
    if tail > 0. then
      for s = 0 to t.n - 1 do
        result.(s) <- result.(s) +. (tail *. !v.(s))
      done;
    result
  end

type well_formedness = {
  max_row_residual : float;
  negative_rates : (int * int * float) list;
  unreachable : int list;
  cannot_reach_start : int list;
  no_exit : int list;
}

let well_formedness t =
  let max_row_residual = ref 0. in
  let negative_rates = ref [] in
  for s = 0 to t.n - 1 do
    (* The generator row: the rates, and on the diagonal their negated
       sum. It is summed in ascending destination order, as a dense row
       would be. *)
    let diagonal =
      Hashtbl.fold (fun _ rate acc -> acc -. rate) t.rates.(s) 0.
    in
    let off_diagonal =
      Hashtbl.fold (fun d r acc -> (d, r) :: acc) t.rates.(s) []
    in
    let row =
      List.sort (fun (a, _) (b, _) -> Int.compare a b)
        ((s, diagonal) :: off_diagonal)
    in
    let row_sum =
      List.fold_left
        (fun sum (d, rate) ->
          if d <> s && rate < 0. then
            negative_rates := (s, d, rate) :: !negative_rates;
          sum +. rate)
        0. row
    in
    max_row_residual := Float.max !max_row_residual (Float.abs row_sum)
  done;
  let forward, reverse = reachability t in
  let unmarked seen =
    List.filter (fun s -> not seen.(s)) (List.init t.n Fun.id)
  in
  let no_exit =
    List.filter (fun s -> Hashtbl.length t.rates.(s) = 0) (List.init t.n Fun.id)
  in
  {
    max_row_residual = !max_row_residual;
    negative_rates = List.rev !negative_rates;
    unreachable = unmarked forward;
    cannot_reach_start = unmarked reverse;
    no_exit;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>ctmc with %d states" t.n;
  List.iter
    (fun (src, dst, rate) ->
      Format.fprintf ppf "@,  %d -> %d @@ %g" src dst rate)
    (transitions t);
  Format.fprintf ppf "@]"

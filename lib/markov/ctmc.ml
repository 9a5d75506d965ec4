module Matrix = Aved_linalg.Matrix
module Vector = Aved_linalg.Vector
module Workspace = Aved_linalg.Workspace
module Telemetry = Aved_telemetry.Telemetry

let gth_solves = Telemetry.Counter.make "markov.gth.solves"
let gth_seconds = Telemetry.Histogram.make "markov.gth.seconds"
let banded_solves = Telemetry.Counter.make "markov.banded.solves"
let power_solves = Telemetry.Counter.make "markov.power.solves"
let lu_solves = Telemetry.Counter.make "markov.lu.solves"
let lu_seconds = Telemetry.Histogram.make "markov.lu.seconds"
let solve_states = Telemetry.Histogram.make "markov.solve.states"

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

let generator t =
  let q = Matrix.create t.n t.n 0. in
  for s = 0 to t.n - 1 do
    Hashtbl.iter
      (fun dst rate ->
        Matrix.set q s dst rate;
        Matrix.set q s s (Matrix.get q s s -. rate))
      t.rates.(s)
  done;
  q

let compile t = Sparse.of_adjacency ~n:t.n t.rates

(* Ergodicity precheck shared by every stationary solver. A chain is
   accepted when every state reachable from state 0 can also return to
   it: then state 0's communicating class is the unique closed class and
   the stationary distribution is well defined, with probability 0 on
   any states outside it (harmless unreachable islands are tolerated —
   they carry no mass). Probability escaping into a trap is rejected
   with {!Non_ergodic} before any arithmetic runs, so all backends fail
   the same way on the same chains. *)
let check_ergodic csr =
  let n = Sparse.num_states csr in
  let queue = Queue.create () in
  let forward = Array.make n false in
  forward.(0) <- true;
  Queue.add 0 queue;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    Sparse.iter_row csr s (fun ~dst ~rate:_ ->
        if not forward.(dst) then begin
          forward.(dst) <- true;
          Queue.add dst queue
        end)
  done;
  let rev = Array.make n [] in
  Sparse.iter csr (fun ~src ~dst ~rate:_ -> rev.(dst) <- src :: rev.(dst));
  let reverse = Array.make n false in
  reverse.(0) <- true;
  Queue.add 0 queue;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    List.iter
      (fun src ->
        if not reverse.(src) then begin
          reverse.(src) <- true;
          Queue.add src queue
        end)
      rev.(s)
  done;
  for s = 0 to n - 1 do
    if forward.(s) && not reverse.(s) then
      raise
        (Non_ergodic
           (Printf.sprintf
              "Ctmc: state %d is reachable from state 0 but cannot return to \
               it (probability is trapped outside the recurrent class)"
              s))
  done

(* Grassmann–Taksar–Heyman elimination on the rate matrix. States are
   eliminated from the highest index down; the algorithm uses only
   additions, multiplications and divisions of non-negative quantities,
   which keeps it stable even for stiff chains (rates spanning many
   orders of magnitude, as with hardware MTBFs in days vs. failover
   times in seconds). The working triangle lives in the per-domain
   workspace, so repeated solves allocate only the result vector. *)
let gth_csr csr =
  let n = Sparse.num_states csr in
  let ws = Workspace.domain () in
  let q = Workspace.floats ws (n * n) in
  Bigarray.Array1.fill q 0.;
  Sparse.iter csr (fun ~src ~dst ~rate ->
      Bigarray.Array1.unsafe_set q ((src * n) + dst) rate);
  let exit_sums = Workspace.float_array ws n in
  for k = n - 1 downto 1 do
    let s = ref 0. in
    let base_k = k * n in
    for j = 0 to k - 1 do
      s := !s +. Bigarray.Array1.unsafe_get q (base_k + j)
    done;
    exit_sums.(k) <- !s;
    if !s > 0. then
      for i = 0 to k - 1 do
        let base_i = i * n in
        let qik = Bigarray.Array1.unsafe_get q (base_i + k) in
        if qik > 0. then
          for j = 0 to k - 1 do
            if j <> i then
              Bigarray.Array1.unsafe_set q (base_i + j)
                (Bigarray.Array1.unsafe_get q (base_i + j)
                +. qik
                   *. Bigarray.Array1.unsafe_get q (base_k + j)
                   /. !s)
          done
      done
  done;
  let pi = Array.make n 0. in
  pi.(0) <- 1.;
  for k = 1 to n - 1 do
    let inflow = ref 0. in
    for i = 0 to k - 1 do
      inflow := !inflow +. (pi.(i) *. Bigarray.Array1.unsafe_get q ((i * n) + k))
    done;
    if exit_sums.(k) > 0. then pi.(k) <- !inflow /. exit_sums.(k)
    else if !inflow > 0. then
      raise (Non_ergodic "Ctmc.stationary_gth: reducible chain (closed class apart)")
    else pi.(k) <- 0.
  done;
  Vector.normalize_1 pi

(* Banded variant: with half-bandwidth [b] (every transition satisfies
   |src − dst| ≤ b), elimination of state k only touches rows and
   columns in [k − b, k − 1], so fill-in never leaves the band and the
   working set is n·(2b+1) instead of n². Every operation the dense
   kernel performs outside the band is an addition of exactly +0.0 to a
   non-negative value, so the result is bitwise identical to
   {!gth_csr}. *)
let gth_banded_csr csr ~half_bandwidth:b =
  let n = Sparse.num_states csr in
  let w = (2 * b) + 1 in
  let ws = Workspace.domain () in
  let q = Workspace.floats ws (n * w) in
  Bigarray.Array1.fill q 0.;
  (* Entry (i, j) lives at i·w + (j − i + b). *)
  Sparse.iter csr (fun ~src ~dst ~rate ->
      Bigarray.Array1.unsafe_set q ((src * w) + (dst - src + b)) rate);
  let exit_sums = Workspace.float_array ws n in
  for k = n - 1 downto 1 do
    let lo = Stdlib.max 0 (k - b) in
    let s = ref 0. in
    for j = lo to k - 1 do
      s := !s +. Bigarray.Array1.unsafe_get q ((k * w) + (j - k + b))
    done;
    exit_sums.(k) <- !s;
    if !s > 0. then
      for i = lo to k - 1 do
        let qik = Bigarray.Array1.unsafe_get q ((i * w) + (k - i + b)) in
        if qik > 0. then
          for j = lo to k - 1 do
            if j <> i then
              Bigarray.Array1.unsafe_set q
                ((i * w) + (j - i + b))
                (Bigarray.Array1.unsafe_get q ((i * w) + (j - i + b))
                +. qik
                   *. Bigarray.Array1.unsafe_get q ((k * w) + (j - k + b))
                   /. !s)
          done
      done
  done;
  let pi = Array.make n 0. in
  pi.(0) <- 1.;
  for k = 1 to n - 1 do
    let inflow = ref 0. in
    for i = Stdlib.max 0 (k - b) to k - 1 do
      inflow :=
        !inflow +. (pi.(i) *. Bigarray.Array1.unsafe_get q ((i * w) + (k - i + b)))
    done;
    if exit_sums.(k) > 0. then pi.(k) <- !inflow /. exit_sums.(k)
    else if !inflow > 0. then
      raise (Non_ergodic "Ctmc.stationary_gth: reducible chain (closed class apart)")
    else pi.(k) <- 0.
  done;
  Vector.normalize_1 pi

(* Power iteration on the uniformized transition matrix
   P = I + Q/Λ, Λ = 1.02·max exit rate. Every state keeps a self-loop
   probability of at least 1 − 1/1.02, so P is aperiodic and the
   iteration converges for any chain that passes the ergodicity check.
   Acceptance is by residual: ‖πQ‖∞ ≤ tol·Λ, checked periodically so
   the common path stays a pure sparse sweep. *)
let power_csr csr ~tol ~max_iters =
  let n = Sparse.num_states csr in
  let exit = Array.init n (fun s -> Sparse.exit_rate csr s) in
  let max_exit = Array.fold_left Float.max 0. exit in
  let initial () =
    let v = Array.make n 0. in
    v.(0) <- 1.;
    v
  in
  if max_exit = 0. then initial ()
  else begin
    let lambda = 1.02 *. max_exit in
    let residual = Array.make n 0. in
    let residual_ok v =
      Array.fill residual 0 n 0.;
      for s = 0 to n - 1 do
        residual.(s) <- residual.(s) -. (v.(s) *. exit.(s));
        Sparse.iter_row csr s (fun ~dst ~rate ->
            residual.(dst) <- residual.(dst) +. (v.(s) *. rate))
      done;
      Vector.norm_inf residual <= tol *. lambda
    in
    let v = ref (initial ()) in
    let next = ref (Array.make n 0.) in
    let converged = ref (residual_ok !v) in
    let iters = ref 0 in
    while (not !converged) && !iters < max_iters do
      let cur = !v and out = !next in
      for s = 0 to n - 1 do
        out.(s) <- cur.(s) *. (1. -. (exit.(s) /. lambda))
      done;
      for s = 0 to n - 1 do
        if cur.(s) > 0. then
          Sparse.iter_row csr s (fun ~dst ~rate ->
              out.(dst) <- out.(dst) +. (cur.(s) *. rate /. lambda))
      done;
      (* Renormalize to stem drift from rounding. *)
      let total = ref 0. in
      for s = 0 to n - 1 do
        total := !total +. out.(s)
      done;
      if !total > 0. && Float.is_finite !total then begin
        let inv = 1. /. !total in
        for s = 0 to n - 1 do
          out.(s) <- out.(s) *. inv
        done
      end;
      v := out;
      next := cur;
      incr iters;
      if !iters mod 8 = 0 then converged := residual_ok !v
    done;
    if not !converged then converged := residual_ok !v;
    if not !converged then
      failwith
        (Printf.sprintf
           "Ctmc.stationary_power: no convergence after %d iterations \
            (residual above %g)"
           !iters (tol *. lambda));
    Vector.normalize_1 !v
  end

type backend = Gth | Banded | Power | Lu

(* Largest chain solved by elimination: its n² dense workspace is then at
   most 32 MiB per domain. Below it, GTH is exact to rounding and, on the
   stiff chains availability models produce (failures in days, repairs
   in minutes), far faster than power iteration, which on those chains
   runs out its budget and ends in elimination anyway. *)
let dense_limit = 2048

(* Backend choice by structure. Dense and banded GTH give bitwise
   identical results, so the split between them is purely a speed
   heuristic; power iteration is reserved for chains too large for the
   dense workspace, where it agrees with GTH to solver tolerance. *)
let select_backend_csr csr =
  let n = Sparse.num_states csr in
  let b = Sparse.bandwidth csr in
  if n > 32 && (2 * b) + 1 <= n / 6 then Banded
  else if n <= dense_limit then Gth
  else Power

let select_backend t = select_backend_csr (compile t)

let default_power_tol = 1e-12
let default_power_iters n = 10_000 + (200 * n)

let tm_fallback = Telemetry.Counter.make "markov.solver.fallback"

(* When power iteration exhausts its budget, GTH finishes the solve. *)
let solve_csr backend csr =
  match backend with
  | Gth -> gth_csr csr
  | Banded -> gth_banded_csr csr ~half_bandwidth:(Sparse.bandwidth csr)
  | Power -> (
      let n = Sparse.num_states csr in
      try
        power_csr csr ~tol:default_power_tol
          ~max_iters:(default_power_iters n)
      with Failure _ ->
        Telemetry.Counter.incr tm_fallback;
        gth_csr csr)
  | Lu -> assert false (* dispatched before solve_csr *)

let backend_name = function
  | Gth -> "gth"
  | Banded -> "banded"
  | Power -> "power"
  | Lu -> "lu"

let with_solve_telemetry ~backend ~n f =
  let counter, histogram =
    match backend with
    | Gth -> (gth_solves, Some gth_seconds)
    | Banded -> (banded_solves, None)
    | Power -> (power_solves, None)
    | Lu -> (lu_solves, Some lu_seconds)
  in
  Telemetry.with_span ("markov.solve." ^ backend_name backend)
  @@ fun () ->
  if Telemetry.enabled () then begin
    Telemetry.Counter.incr counter;
    Telemetry.Histogram.observe solve_states (float_of_int n);
    match histogram with
    | Some h -> Telemetry.Histogram.time h f
    | None -> f ()
  end
  else f ()

(* A solve of a compiled, ergodicity-checked chain by [backend]. *)
let solve_checked backend csr =
  with_solve_telemetry ~backend ~n:(Sparse.num_states csr) (fun () ->
      solve_csr backend csr)

let checked t =
  let csr = compile t in
  check_ergodic csr;
  csr

let stationary_gth t = solve_checked Gth (checked t)

let lu_kernel t =
  let n = t.n in
  (* Solve Qᵀ x = 0 with the last equation replaced by Σ x = 1. *)
  let a = Matrix.transpose (generator t) in
  for j = 0 to n - 1 do
    Matrix.set a (n - 1) j 1.
  done;
  let b = Array.init n (fun i -> if i = n - 1 then 1. else 0.) in
  Matrix.solve a b

let stationary_lu t =
  ignore (checked t);
  with_solve_telemetry ~backend:Lu ~n:t.n (fun () -> lu_kernel t)

let stationary_power ?(tol = default_power_tol) ?max_iters t =
  let csr = checked t in
  let max_iters =
    match max_iters with Some m -> m | None -> default_power_iters t.n
  in
  with_solve_telemetry ~backend:Power ~n:t.n (fun () ->
      power_csr csr ~tol ~max_iters)

let stationary_with backend t =
  match backend with
  | Lu -> stationary_lu t
  | Power -> stationary_power t
  | Gth | Banded -> solve_checked backend (checked t)

let stationary t =
  let csr = checked t in
  solve_checked (select_backend_csr csr) csr

let expected_reward t ~reward =
  let pi = stationary t in
  let acc = ref 0. in
  for s = 0 to t.n - 1 do
    acc := !acc +. (pi.(s) *. reward s)
  done;
  !acc

let probability_in t pred =
  expected_reward t ~reward:(fun s -> if pred s then 1. else 0.)

let mean_time_to_absorption t ~absorbing ~start =
  check_state t start "start";
  if absorbing start then 0.
  else begin
    let transient_states =
      List.filter (fun s -> not (absorbing s)) (List.init t.n Fun.id)
    in
    let index = Hashtbl.create 16 in
    List.iteri (fun i s -> Hashtbl.add index s i) transient_states;
    let m = List.length transient_states in
    (* (-Q_TT) tau = 1 over the transient states. *)
    let a = Matrix.create m m 0. in
    List.iteri
      (fun i s ->
        Matrix.set a i i (total_exit_rate t s);
        Hashtbl.iter
          (fun dst rate ->
            match Hashtbl.find_opt index dst with
            | Some j -> Matrix.set a i j (Matrix.get a i j -. rate)
            | None -> ())
          t.rates.(s))
      transient_states;
    let tau = Matrix.solve a (Array.make m 1.) in
    tau.(Hashtbl.find index start)
  end

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
  let q = generator t in
  let max_row_residual = ref 0. in
  let negative_rates = ref [] in
  for s = 0 to t.n - 1 do
    let row_sum = ref 0. in
    for d = 0 to t.n - 1 do
      let rate = Matrix.get q s d in
      row_sum := !row_sum +. rate;
      if d <> s && rate < 0. then
        negative_rates := (s, d, rate) :: !negative_rates
    done;
    max_row_residual := Float.max !max_row_residual (Float.abs !row_sum)
  done;
  (* Forward reachability from state 0 and reverse reachability to it.
     States outside the former are dead weight; states outside the
     latter form absorbing classes that trap stationary probability. *)
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
  let reverse = bfs (fun s -> reverse_adj.(s)) in
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

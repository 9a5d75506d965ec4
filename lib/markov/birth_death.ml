module Telemetry = Aved_telemetry.Telemetry

let bd_solves = Telemetry.Counter.make "markov.birth_death.solves"

type t = { up : float array; down : float array }

let create ~up ~down =
  if Array.length up <> Array.length down then
    invalid_arg "Birth_death.create: rate arrays differ in length";
  let check name arr =
    Array.iter
      (fun r ->
        if not (Float.is_finite r) || r < 0. then
          invalid_arg (Printf.sprintf "Birth_death.create: bad %s rate %g" name r))
      arr
  in
  check "up" up;
  check "down" down;
  Array.iteri
    (fun k u ->
      if u > 0. && down.(k) = 0. then
        invalid_arg
          (Printf.sprintf
             "Birth_death.create: state %d reachable but cannot return" (k + 1)))
    up;
  { up; down }

let num_states t = Array.length t.up + 1

(* pi_{k+1} = pi_k * up_k / down_k; normalize. Computed with a running
   maximum subtraction in log space to stay finite for stiff rates. *)
let stationary t =
  Telemetry.Counter.incr bd_solves;
  Telemetry.with_span "markov.birth_death.solve" @@ fun () ->
  let n = Array.length t.up in
  let log_pi = Array.make (n + 1) Float.neg_infinity in
  log_pi.(0) <- 0.;
  for k = 0 to n - 1 do
    if t.up.(k) > 0. && log_pi.(k) > Float.neg_infinity then
      log_pi.(k + 1) <- log_pi.(k) +. log t.up.(k) -. log t.down.(k)
  done;
  let max_log = Array.fold_left Float.max Float.neg_infinity log_pi in
  let unnorm =
    Array.map
      (fun l -> if l = Float.neg_infinity then 0. else exp (l -. max_log))
      log_pi
  in
  let total = Array.fold_left ( +. ) 0. unnorm in
  Array.map (fun p -> p /. total) unnorm

let expected_reward t ~reward =
  let pi = stationary t in
  let acc = ref 0. in
  Array.iteri (fun k p -> acc := !acc +. (p *. reward k)) pi;
  !acc

let probability_at_least t k =
  let pi = stationary t in
  let acc = ref 0. in
  for s = Stdlib.max 0 k to Array.length pi - 1 do
    acc := !acc +. pi.(s)
  done;
  !acc

let to_ctmc t =
  let chain = Ctmc.create (num_states t) in
  Array.iteri
    (fun k rate ->
      if rate > 0. then Ctmc.add_transition chain ~src:k ~dst:(k + 1) ~rate)
    t.up;
  Array.iteri
    (fun k rate ->
      if rate > 0. then Ctmc.add_transition chain ~src:(k + 1) ~dst:k ~rate)
    t.down;
  chain

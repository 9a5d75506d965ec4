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

let exponential t ~rate =
  if not (Float.is_finite rate) || rate <= 0. then
    invalid_arg (Printf.sprintf "Rng.exponential: rate %g" rate);
  let u = float t in
  -.Float.log1p (-.u) /. rate

let weibull t ~shape ~scale =
  if shape <= 0. || scale <= 0. then invalid_arg "Rng.weibull: bad parameters";
  let u = float t in
  scale *. Float.pow (-.Float.log1p (-.u)) (1. /. shape)

let gaussian t ~mean ~stddev =
  if stddev < 0. then invalid_arg "Rng.gaussian: negative stddev";
  (* Box-Muller; u1 must be nonzero for the log. *)
  let u1 = ref (float t) in
  while not (!u1 > 0.) do
    u1 := float t
  done;
  let u2 = float t in
  let r = sqrt (-2. *. log !u1) in
  mean +. (stddev *. r *. cos (2. *. Float.pi *. u2))

let lognormal t ~mu ~sigma = exp (gaussian t ~mean:mu ~stddev:sigma)

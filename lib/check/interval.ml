(* Outward-rounded interval arithmetic over floats.

   An interval [{lo; hi}] stands for the set of reals [lo, hi]; the
   endpoints may be infinite ([top] is the whole real line) but never
   NaN — any operation whose concrete counterpart could produce NaN
   (division by an interval containing zero, log of a negative,
   0-containing bases under [pow], ...) widens to [top], so NaN
   unrepresentability can never make the abstraction unsound.

   Rounding discipline: OCaml evaluates float operations round-to-
   nearest, so a computed endpoint may sit on the wrong side of the
   true bound by up to half an ulp. Every inexact operation therefore
   nudges its result outward with [Float.pred]/[Float.succ] ([add],
   [mul], [div], [exp], [log], [sqrt]; [pow] composes two roundings
   and nudges twice). Operations that are exact in floating point
   ([neg], [abs], [min], [max], [floor], [ceil], [hull]) keep their
   endpoints as computed. *)

type t = { lo : float; hi : float }

let top = { lo = neg_infinity; hi = infinity }
let is_top t = t.lo = neg_infinity && t.hi = infinity

let point v = if Float.is_nan v then top else { lo = v; hi = v }

let of_bounds lo hi =
  if Float.is_nan lo || Float.is_nan hi then top
  else if lo <= hi then { lo; hi }
  else { lo = hi; hi = lo }

let lo t = t.lo
let hi t = t.hi
let is_point t = t.lo = t.hi

(* NaN is a member only of [top]: abstract evaluation widens to [top]
   exactly where a concrete evaluation could produce NaN, and the
   soundness property below needs membership to agree with that. *)
let mem x t = if Float.is_nan x then is_top t else t.lo <= x && x <= t.hi

let subset a b = b.lo <= a.lo && a.hi <= b.hi
let hull a b = { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }

let meet a b =
  let lo = Float.max a.lo b.lo and hi = Float.min a.hi b.hi in
  if lo <= hi then Some { lo; hi } else None

(* Outward nudges. [Float.pred infinity = max_float] would tighten a
   correct infinite bound, so infinities pass through unchanged; a NaN
   endpoint (conservatively possible from 0 * inf corner products that
   slipped past the operation's own handling) widens all the way. *)
let down x =
  if Float.is_nan x then neg_infinity
  else if x = neg_infinity || x = infinity then x
  else Float.pred x

let up x =
  if Float.is_nan x then infinity
  else if x = infinity || x = neg_infinity then x
  else Float.succ x

let widen t = { lo = down t.lo; hi = up t.hi }
let add a b = widen { lo = a.lo +. b.lo; hi = a.hi +. b.hi }
let sub a b = widen { lo = a.lo -. b.hi; hi = a.hi -. b.lo }
let neg t = { lo = -.t.hi; hi = -.t.lo }

(* Endpoint products, with Kahan's convention for the 0 * inf corner:
   such a NaN arises only when one factor's endpoint is exactly zero,
   and zero is then the correct contribution of that corner to the
   range over the closed box. *)
let mul a b =
  let p x y =
    let v = x *. y in
    if Float.is_nan v then 0. else v
  in
  let p1 = p a.lo b.lo and p2 = p a.lo b.hi in
  let p3 = p a.hi b.lo and p4 = p a.hi b.hi in
  widen
    {
      lo = Float.min (Float.min p1 p2) (Float.min p3 p4);
      hi = Float.max (Float.max p1 p2) (Float.max p3 p4);
    }

(* Division widens to [top] when the divisor can be zero (the concrete
   result may be ±inf or NaN depending on signs we cannot separate) or
   when an inf/inf corner makes an endpoint quotient NaN. *)
let div a b =
  if b.lo <= 0. && 0. <= b.hi then top
  else
    let q1 = a.lo /. b.lo and q2 = a.lo /. b.hi in
    let q3 = a.hi /. b.lo and q4 = a.hi /. b.hi in
    if
      Float.is_nan q1 || Float.is_nan q2 || Float.is_nan q3 || Float.is_nan q4
    then top
    else
      widen
        {
          lo = Float.min (Float.min q1 q2) (Float.min q3 q4);
          hi = Float.max (Float.max q1 q2) (Float.max q3 q4);
        }

(* [top] is the only interval that admits NaN (see [mem]), and abs, min,
   max, exp and pow all pass a NaN operand through: a [top] operand
   therefore gives [top], never a bounded result that excludes it. *)
let abs t =
  if is_top t then top
  else if t.lo >= 0. then t
  else if t.hi <= 0. then neg t
  else { lo = 0.; hi = Float.max (-.t.lo) t.hi }

let min_ a b =
  if is_top a || is_top b then top
  else { lo = Float.min a.lo b.lo; hi = Float.min a.hi b.hi }

let max_ a b =
  if is_top a || is_top b then top
  else { lo = Float.max a.lo b.lo; hi = Float.max a.hi b.hi }

(* exp is monotone; its result is strictly positive, so the downward
   nudge clamps at zero rather than crossing into negatives. *)
let exp t =
  if is_top t then top
  else
    {
      lo = Float.max 0. (down (Float.exp t.lo));
      hi = up (Float.exp t.hi);
    }

(* log of anything possibly negative could be NaN concretely. lo = 0 is
   fine: log 0 = -inf is a representable endpoint. *)
let log t =
  if t.lo < 0. then top
  else { lo = down (Float.log t.lo); hi = up (Float.log t.hi) }

let sqrt t =
  if t.lo < 0. then top
  else
    {
      lo = Float.max 0. (down (Float.sqrt t.lo));
      hi = up (Float.sqrt t.hi);
    }

let floor t = { lo = Float.floor t.lo; hi = Float.floor t.hi }
let ceil t = { lo = Float.ceil t.lo; hi = Float.ceil t.hi }

(* x ** y = exp (y * log x). Over a box with x > 0, y * log x is
   bilinear in (y, log x) and so attains its extremes at the corners;
   exp is monotone, hence the corner powers bound the range. [**]
   composes two roundings, so nudge outward twice. *)
let pow f g =
  if f.lo <= 0. || is_top g then top
  else
    let c1 = f.lo ** g.lo and c2 = f.lo ** g.hi in
    let c3 = f.hi ** g.lo and c4 = f.hi ** g.hi in
    if
      Float.is_nan c1 || Float.is_nan c2 || Float.is_nan c3 || Float.is_nan c4
    then top
    else
      let lo = Float.min (Float.min c1 c2) (Float.min c3 c4) in
      let hi = Float.max (Float.max c1 c2) (Float.max c3 c4) in
      { lo = Float.max 0. (down (down lo)); hi = up (up hi) }

(* Reciprocal through [div] so zero-crossing divisors widen. *)
let inv t = div (point 1.) t

let clamp ~lo:l ~hi:h t =
  { lo = Float.min h (Float.max l t.lo); hi = Float.max l (Float.min h t.hi) }

let contains_zero t = t.lo <= 0. && 0. <= t.hi

let equal a b = a.lo = b.lo && a.hi = b.hi

let to_string t =
  if is_top t then "[-inf, +inf]" else Printf.sprintf "[%.17g, %.17g]" t.lo t.hi

let pp ppf t = Format.pp_print_string ppf (to_string t)

module Duration = Aved_units.Duration

type t = float

let of_fraction a =
  if not (Float.is_finite a) || a < 0. || a > 1. then
    invalid_arg (Printf.sprintf "Availability.of_fraction: %g" a)
  else a

let to_fraction a = a

let of_mtbf_mttr ~mtbf ~mttr =
  let up = Duration.seconds mtbf in
  let down = Duration.seconds mttr in
  if up <= 0. then invalid_arg "Availability.of_mtbf_mttr: mtbf must be positive";
  up /. (up +. down)

let perfect = 1.
let series parts = List.fold_left (fun acc a -> acc *. a) 1. parts

let annual_downtime a = Duration.of_years (1. -. a)

let of_annual_downtime d =
  let frac = Duration.years d in
  of_fraction (1. -. Float.min 1. frac)

let unavailability a = 1. -. a

let nines a =
  let u = 1. -. a in
  if u <= 0. then Float.infinity else -.Float.log10 u

let pp ppf a = Format.fprintf ppf "%.6f" a

let pp_nines ppf a =
  let n = nines a in
  if Float.is_finite n then Format.fprintf ppf "%.1f" n
  else Format.pp_print_string ppf "inf"

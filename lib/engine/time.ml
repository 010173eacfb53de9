type t = float

let zero = 0.0
let of_seconds s = s
let of_milliseconds ms = ms /. 1000.0
let seconds t = t
let milliseconds t = t *. 1000.0
let add = ( +. )
let sub = ( -. )
let compare = Float.compare
let ( <. ) (a : t) b = a < b
let ( <=. ) (a : t) b = a <= b
let is_finite t = Float.is_finite t
let max = Float.max
let min = Float.min

let pp ppf t =
  if not (Float.is_finite t) then Format.fprintf ppf "inf"
  else if t < 0.0 then Format.fprintf ppf "-%.3fs" (Float.abs t)
  else if t < 1.0 then Format.fprintf ppf "%.1fms" (t *. 1000.0)
  else if t < 120.0 then Format.fprintf ppf "%.3fs" t
  else
    let m = int_of_float (t /. 60.0) in
    let s = t -. (float_of_int m *. 60.0) in
    Format.fprintf ppf "%dm%.1fs" m s

let to_string t = Format.asprintf "%a" pp t

(* [Engine.Time.pp] as it was written with [Format], kept verbatim as
   the oracle for [Engine.Time.render]. *)

let pp ppf t =
  if not (Float.is_finite t) then Format.fprintf ppf "inf"
  else if t < 0.0 then Format.fprintf ppf "-%.3fs" (Float.abs t)
  else if t < 1.0 then Format.fprintf ppf "%.1fms" (t *. 1000.0)
  else if t < 120.0 then Format.fprintf ppf "%.3fs" t
  else
    let m = int_of_float (t /. 60.0) in
    let s = t -. (float_of_int m *. 60.0) in
    Format.fprintf ppf "%dm%.1fs" m s

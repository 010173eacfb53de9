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

let render l t =
  if not (Float.is_finite t) then Line.add_string l "inf"
  else if t < 0.0 then begin
    Line.add_char l '-';
    Line.add_fixed l (Float.abs t) 3;
    Line.add_char l 's'
  end
  else if t < 1.0 then begin
    Line.add_fixed l (t *. 1000.0) 1;
    Line.add_string l "ms"
  end
  else if t < 120.0 then begin
    Line.add_fixed l t 3;
    Line.add_char l 's'
  end
  else begin
    let m = int_of_float (t /. 60.0) in
    let s = t -. (float_of_int m *. 60.0) in
    Line.add_int l m;
    Line.add_char l 'm';
    Line.add_fixed l s 1;
    Line.add_char l 's'
  end

let to_string t =
  let l = Line.create 16 in
  render l t;
  Line.contents l

let pp ppf t = Format.pp_print_string ppf (to_string t)

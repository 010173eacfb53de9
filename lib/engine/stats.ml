module Summary = struct
  type t = {
    name : string;
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable samples : float list;  (* newest first *)
  }

  let create ?(name = "summary") () =
    { name; count = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity; samples = [] }

  (* Welford's online algorithm keeps mean/variance numerically stable. *)
  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x;
    t.samples <- x :: t.samples

  let count t = t.count
  let mean t = if t.count = 0 then 0.0 else t.mean

  let stddev t =
    if t.count < 2 then 0.0 else sqrt (t.m2 /. float_of_int t.count)

  let min t =
    if t.count = 0 then invalid_arg "Summary.min: empty" else t.min

  let max t =
    if t.count = 0 then invalid_arg "Summary.max: empty" else t.max

  let percentile t p =
    if t.count = 0 then invalid_arg "Summary.percentile: empty";
    if p < 0.0 || p > 1.0 then invalid_arg "Summary.percentile: p outside [0,1]";
    let sorted = List.sort Float.compare t.samples in
    let arr = Array.of_list sorted in
    let n = Array.length arr in
    let rank = int_of_float (ceil (p *. float_of_int n)) in
    let index = Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)) in
    arr.(index)

  let samples t = List.rev t.samples

  let pp ppf t =
    if t.count = 0 then Format.fprintf ppf "%s: no samples" t.name
    else
      Format.fprintf ppf "%s: n=%d mean=%.3f std=%.3f min=%.3f max=%.3f"
        t.name t.count (mean t) (stddev t) t.min t.max
end

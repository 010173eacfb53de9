type t = { mutable bytes : Bytes.t; mutable len : int }

let create n = { bytes = Bytes.create (max 16 n); len = 0 }
let clear l = l.len <- 0
let contents l = Bytes.sub_string l.bytes 0 l.len
let digest l = Digest.subbytes l.bytes 0 l.len

(* Room for [n] more bytes. *)
let reserve l n =
  if l.len + n > Bytes.length l.bytes then begin
    let grown = Bytes.create (max (l.len + n) (2 * Bytes.length l.bytes)) in
    Bytes.blit l.bytes 0 grown 0 l.len;
    l.bytes <- grown
  end

let add_char l c =
  reserve l 1;
  Bytes.unsafe_set l.bytes l.len c;
  l.len <- l.len + 1

let add_string l s =
  let n = String.length s in
  reserve l n;
  Bytes.unsafe_blit_string s 0 l.bytes l.len n;
  l.len <- l.len + n

let add_label l label =
  add_string l label;
  add_string l ": "

let add_written l ~max write v =
  reserve l max;
  l.len <- write l.bytes l.len v

(* ---- integers ---- *)

let rec digit_count n = if n < 10 then 1 else 1 + digit_count (n / 10)

(* Write the [width] low decimal digits of [n >= 0] ending just before
   [stop]. *)
let rec write_digits b stop width n =
  if width > 0 then begin
    Bytes.unsafe_set b (stop - 1) (Char.unsafe_chr (48 + (n mod 10)));
    write_digits b (stop - 1) (width - 1) (n / 10)
  end

(* [n >= 0] in exactly [width] digits, zero-padded on the left. *)
let add_padded l n width =
  reserve l width;
  write_digits l.bytes (l.len + width) width n;
  l.len <- l.len + width

let add_int l n =
  if n >= 0 then add_padded l n (digit_count n)
  else begin
    add_char l '-';
    (* [-n] overflows on [min_int]: peel off the last digit first. *)
    let q = -(n / 10) and r = -(n mod 10) in
    if q > 0 then add_padded l q (digit_count q);
    add_padded l r 1
  end

(* ---- floats, as C's printf renders them ---- *)

let pow10 = [| 1.; 10.; 100.; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9 |]
let ipow10 = [| 1; 10; 100; 1_000; 10_000; 100_000; 1_000_000; 10_000_000; 100_000_000; 1_000_000_000 |]

(* [round (x * 10^k)] as C's printf rounds it — to nearest, ties to
   even — or [-1] where that is not proven exact: a negative sign, a
   non-finite [x], or [x * 10^k >= 2^52].  In range, [p] is the rounded
   product and [r] its exact residual, so [x * 10^k = p + r] exactly;
   the fraction [p - floor p] is exact and a multiple of ulp(p) <= 1/2,
   while [|r| <= ulp(p) / 2], so [r] can only decide the rounding when
   the fraction is exactly 1/2. *)
let round_scaled x k =
  let s = Array.unsafe_get pow10 k in
  let p = x *. s in
  if Float.sign_bit x || not (p < 0x1p52) then -1
  else begin
    let n = int_of_float p in
    let frac = p -. float_of_int n in
    if frac < 0.5 then n
    else if frac > 0.5 then n + 1
    else begin
      let r = Float.fma x s (-.p) in
      if r > 0.0 then n + 1 else if r < 0.0 then n else n + (n land 1)
    end
  end

(* The exact decimal expansion of a finite [x >= 0]: its integer digits
   (["0"] for [x < 1]) and all its fraction digits (a binary fraction of
   [n] bits has exactly [n] decimal digits).  Computed with base-10^9
   limbs, least significant first; only [add_fixed]'s slow path uses
   it. *)
let exact_digits x =
  (* [x < 2^1024] has at most 309 integer digits; a fraction [m / 2^n]
     with [m < 2^53] and [n <= 1074] at most 767 significant ones. *)
  let limbs = Array.make 100 0 in
  let len = ref 1 in
  let mul_small f =
    let carry = ref 0 in
    for i = 0 to !len - 1 do
      let v = (limbs.(i) * f) + !carry in
      limbs.(i) <- v mod 1_000_000_000;
      carry := v / 1_000_000_000
    done;
    while !carry > 0 do
      limbs.(!len) <- !carry mod 1_000_000_000;
      carry := !carry / 1_000_000_000;
      incr len
    done
  in
  (* Times [b^e], in chunks of [b^per_chunk] small enough that a limb
     times one stays below 2^62. *)
  let rec scale b chunk per_chunk e =
    if e >= per_chunk then begin
      mul_small chunk;
      scale b chunk per_chunk (e - per_chunk)
    end
    else if e > 0 then begin
      mul_small b;
      scale b chunk per_chunk (e - 1)
    end
  in
  let render () =
    let b = Buffer.create (9 * !len) in
    Buffer.add_string b (string_of_int limbs.(!len - 1));
    for i = !len - 2 downto 0 do
      let s = string_of_int limbs.(i) in
      Buffer.add_string b (String.make (9 - String.length s) '0');
      Buffer.add_string b s
    done;
    Buffer.contents b
  in
  let set m =
    limbs.(0) <- m mod 1_000_000_000;
    limbs.(1) <- m / 1_000_000_000;
    len := if limbs.(1) > 0 then 2 else 1
  in
  if x = 0.0 then ("0", "")
  else begin
    let fr, ex = Float.frexp x in
    (* [x = m * 2^e] with [m] odd or [e = 0]. *)
    let rec normal m e = if e < 0 && m land 1 = 0 then normal (m lsr 1) (e + 1) else (m, e) in
    let m, e = normal (int_of_float (Float.ldexp fr 53)) (ex - 53) in
    if e >= 0 then begin
      set m;
      scale 2 (1 lsl 30) 30 e;
      (render (), "")
    end
    else begin
      let n = -e in
      let whole = if n >= 53 then 0 else m lsr n in
      set (if n >= 53 then m else m land ((1 lsl n) - 1));
      (* [frac / 2^n = frac * 5^n / 10^n]. *)
      scale 5 1_220_703_125 13 n;
      let digits = render () in
      (string_of_int whole, String.make (n - String.length digits) '0' ^ digits)
    end
  end

(* The first [keep] digits of [ds], rounded to nearest, ties to even, on
   the digits after them (zeros past the end of [ds]).  Returns them and
   whether rounding carried out of the first, in which case they read
   all zeros and stand for [10^keep]. *)
let round_digits ds keep =
  let n = String.length ds in
  let digit i = if i < n then Char.code ds.[i] - 48 else 0 in
  let kept = Bytes.init keep (fun i -> Char.unsafe_chr (48 + digit i)) in
  let next = digit keep in
  let rec nonzero_after i = i < n && (ds.[i] <> '0' || nonzero_after (i + 1)) in
  let up =
    next > 5
    || (next = 5 && (nonzero_after (keep + 1) || (keep > 0 && digit (keep - 1) land 1 = 1)))
  in
  let rec carry i =
    if i < 0 then true
    else if Bytes.get kept i = '9' then begin
      Bytes.set kept i '0';
      carry (i - 1)
    end
    else begin
      Bytes.set kept i (Char.chr (Char.code (Bytes.get kept i) + 1));
      false
    end
  in
  let carried = up && carry (keep - 1) in
  (Bytes.to_string kept, carried)

let add_non_finite l x =
  if Float.is_nan x then add_string l (if Float.sign_bit x then "-nan" else "nan")
  else add_string l (if x < 0.0 then "-inf" else "inf")

(* "%.kf" of a finite [x >= 0] from its exact digits. *)
let add_fixed_exact l x k =
  let whole, frac = exact_digits x in
  let w = String.length whole in
  let kept, carried = round_digits (whole ^ frac) (w + k) in
  if carried then add_char l '1';
  (* Leading zeros of the integer part only come from a zero whole. *)
  add_string l (String.sub kept 0 w);
  if k > 0 then begin
    add_char l '.';
    add_string l (String.sub kept w k)
  end

let add_fixed l x k =
  if k < 0 || k > 9 then invalid_arg "Line.add_fixed: precision outside 0..9";
  if not (Float.is_finite x) then add_non_finite l x
  else begin
    let n = round_scaled x k in
    if n >= 0 then begin
      let unit = Array.unsafe_get ipow10 k in
      let whole = n / unit in
      add_padded l whole (digit_count whole);
      if k > 0 then begin
        add_char l '.';
        add_padded l (n mod unit) k
      end
    end
    else begin
      if Float.sign_bit x then add_char l '-';
      add_fixed_exact l (Float.abs x) k
    end
  end

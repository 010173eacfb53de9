type record = {
  at : Time.t;
  category : string;
  message : string;
}

let recent_capacity = 12

type t = {
  sim : Sim.t;
  mutable total : int;
  (* The [recent_capacity] newest records; record [i] sits in slot
     [i mod recent_capacity].  Empty until the first record. *)
  mutable ring : record array;
  (* The 16-byte MD5 of each record's rendering, oldest first, in the
     first [16 * folded] bytes.  A record is folded when the ring drops
     it, or by [digest], not when it is written: building Figure 1
     writes 15 records, and hashing them there made the build ~8%
     slower (perfbench [setup_s] on [fig1-wire]). *)
  mutable folded : int;
  mutable partials : Bytes.t;
  (* The rendering of the record being folded into [partials]. *)
  mutable line : Bytes.t;
  (* One buffer formatter reused by every [recordf], built on first use:
     a fresh formatter per record cost more than the rest of recording.
     [formatting] is set while it is in use, so a nested [recordf] (from
     a [%a] printer) formats on its own. *)
  mutable out : (Buffer.t * Format.formatter) option;
  mutable formatting : bool;
  mutable observers : (record -> unit) list;  (* registration order *)
}

let create sim =
  { sim;
    total = 0;
    ring = [||];
    folded = 0;
    partials = Bytes.empty;
    line = Bytes.empty;
    out = None;
    formatting = false;
    observers = [] }

let on_record t f = t.observers <- t.observers @ [ f ]

(* ---- the rendering digested ---- *)

(* [round (t * 1e9)] as C's printf rounds it for "%.9f" — to nearest,
   ties to even — or [-1] where that is not proven exact: a negative
   sign, a non-finite [t], or [t * 1e9 >= 2^52].  In range, [p] is the
   rounded product and [r] its exact residual, so [t * 1e9 = p + r]
   exactly; the fraction [p - floor p] is exact and a multiple of
   ulp(p) <= 1/2, while [|r| <= ulp(p) / 2], so [r] can only decide the
   rounding when the fraction is exactly 1/2. *)
let nanos t =
  let p = t *. 1e9 in
  if Float.sign_bit t || not (p < 0x1p52) then -1
  else begin
    let k = int_of_float p in
    let frac = p -. float_of_int k in
    if frac < 0.5 then k
    else if frac > 0.5 then k + 1
    else begin
      let r = Float.fma t 1e9 (-.p) in
      if r > 0.0 then k + 1 else if r < 0.0 then k else k + (k land 1)
    end
  end

let rec digit_count n = if n < 10 then 1 else 1 + digit_count (n / 10)

(* Write the [width] low decimal digits of [n] ending just before [stop]. *)
let rec write_digits b stop width n =
  if width > 0 then begin
    Bytes.set b (stop - 1) (Char.chr (48 + (n mod 10)));
    write_digits b (stop - 1) (width - 1) (n / 10)
  end

(* Room for the widest in-range rendering: seven integer digits, the
   point and nine decimals. *)
let fixed9_width = 17

(* Write [Printf.sprintf "%.9f" t] into [b] at [pos], which has room for
   [fixed9_width] bytes, and return the end position; [-1], with nothing
   written, out of range. *)
let write_fixed9 b pos t =
  let n = nanos t in
  if n < 0 then -1
  else begin
    let whole = n / 1_000_000_000 in
    let point = pos + digit_count whole in
    write_digits b point (point - pos) whole;
    Bytes.set b point '.';
    write_digits b (point + 10) 9 (n mod 1_000_000_000);
    point + 10
  end

let fixed9 t =
  let b = Bytes.create fixed9_width in
  let stop = write_fixed9 b 0 t in
  if stop < 0 then Printf.sprintf "%.9f" t else Bytes.sub_string b 0 stop

(* [t.line] with room for [n] bytes. *)
let line t n =
  if Bytes.length t.line < n then t.line <- Bytes.create (max 256 (2 * n));
  t.line

(* Render [r] as "%.9f|category|message\n" and append the 16-byte MD5
   of the rendering to [t.partials] as partial number [t.folded]. *)
let fold t r =
  let clen = String.length r.category and mlen = String.length r.message in
  let b = line t (fixed9_width + clen + mlen + 3) in
  let b, pos =
    match write_fixed9 b 0 r.at with
    | -1 ->
      let s = Printf.sprintf "%.9f" r.at in
      let b = line t (String.length s + clen + mlen + 3) in
      Bytes.blit_string s 0 b 0 (String.length s);
      (b, String.length s)
    | pos -> (b, pos)
  in
  Bytes.set b pos '|';
  Bytes.blit_string r.category 0 b (pos + 1) clen;
  let pos = pos + 1 + clen in
  Bytes.set b pos '|';
  Bytes.blit_string r.message 0 b (pos + 1) mlen;
  let pos = pos + 1 + mlen in
  Bytes.set b pos '\n';
  let used = 16 * t.folded in
  if Bytes.length t.partials < used + 16 then begin
    let grown = Bytes.create (max 1024 (2 * Bytes.length t.partials)) in
    Bytes.blit t.partials 0 grown 0 used;
    t.partials <- grown
  end;
  Bytes.blit_string (Digest.subbytes b 0 (pos + 1)) 0 t.partials used 16;
  t.folded <- t.folded + 1

(* Fold every record before number [n]; those not yet folded are all
   still in the ring. *)
let fold_upto t n =
  while t.folded < n do
    fold t t.ring.(t.folded mod recent_capacity)
  done

(* ---- recording ---- *)

let record t ~category message =
  let r = { at = Sim.now t.sim; category; message } in
  if t.total = 0 then t.ring <- Array.make recent_capacity r;
  fold_upto t (t.total + 1 - recent_capacity);
  t.ring.(t.total mod recent_capacity) <- r;
  t.total <- t.total + 1;
  List.iter (fun f -> f r) t.observers

let recordf t ~category fmt =
  if t.formatting then Format.kasprintf (fun message -> record t ~category message) fmt
  else begin
    let buf, ppf =
      match t.out with
      | Some out -> out
      | None ->
        let buf = Buffer.create 128 in
        let out = (buf, Format.formatter_of_buffer buf) in
        t.out <- Some out;
        out
    in
    t.formatting <- true;
    (* Flushing resets the formatter to its initial state, so each
       message renders exactly as on a fresh formatter. *)
    Format.kfprintf
      (fun ppf ->
        Format.pp_print_flush ppf ();
        let message = Buffer.contents buf in
        Buffer.clear buf;
        t.formatting <- false;
        record t ~category message)
      ppf fmt
  end

(* ---- reading ---- *)

let recent t =
  let n = min t.total recent_capacity in
  List.init n (fun k -> t.ring.((t.total - 1 - k) mod recent_capacity))

let count t = t.total

let digest t =
  fold_upto t t.total;
  Digest.to_hex (Digest.subbytes t.partials 0 (16 * t.total))

let pp_record ppf r =
  Format.fprintf ppf "[%a] %-6s %s" Time.pp r.at r.category r.message

type record = {
  at : Time.t;
  category : string;
  message : string;
}

type t = {
  sim : Sim.t;
  mutable items : record list;  (* newest first *)
  mutable total : int;
  per_category : (string, int ref) Hashtbl.t;
  (* The counter of the category recorded last: runs of one category
     skip the string hash. *)
  mutable last_category : string;
  mutable last_count : int ref;
  (* One buffer formatter reused by every [recordf], built on first use:
     a fresh formatter per record cost more than the rest of recording.
     [formatting] is set while it is in use, so a nested [recordf] (from
     a [%a] printer) formats on its own. *)
  mutable out : (Buffer.t * Format.formatter) option;
  mutable formatting : bool;
  (* Memoized oldest-first view of [items]; invalidated on record/clear
     so repeated [records]/[by_category] calls don't re-reverse. *)
  mutable oldest_first : record list option;
  mutable enabled : bool;
}

(* Physically unique, so no caller's category is taken for it. *)
let no_category = String.make 1 '\000'

let create ?(enabled = true) sim =
  { sim;
    items = [];
    total = 0;
    per_category = Hashtbl.create 8;
    last_category = no_category;
    last_count = ref 0;
    out = None;
    formatting = false;
    oldest_first = None;
    enabled }

let set_enabled t flag = t.enabled <- flag
let enabled t = t.enabled

let record t ~category message =
  if t.enabled then begin
    t.items <- { at = Sim.now t.sim; category; message } :: t.items;
    t.total <- t.total + 1;
    if category != t.last_category then begin
      let n =
        match Hashtbl.find_opt t.per_category category with
        | Some n -> n
        | None ->
          let n = ref 0 in
          Hashtbl.replace t.per_category category n;
          n
      in
      t.last_category <- category;
      t.last_count <- n
    end;
    incr t.last_count;
    t.oldest_first <- None
  end

let recordf t ~category fmt =
  (* Check [enabled] before rendering: [kasprintf] formats eagerly, and
     hot paths (transmit, faults) call this on every packet, so a
     disabled trace must not pay the formatting cost. *)
  if not t.enabled then Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt
  else if t.formatting then Format.kasprintf (fun message -> record t ~category message) fmt
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

let records t =
  match t.oldest_first with
  | Some cached -> cached
  | None ->
    let ordered = List.rev t.items in
    t.oldest_first <- Some ordered;
    ordered

let by_category t category =
  List.filter (fun r -> String.equal r.category category) (records t)

let recent t ~n =
  (* [items] is newest first, so the last [n] records are a prefix —
     no reversal of the whole history needed. *)
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | r :: rest -> r :: take (k - 1) rest
  in
  take (max 0 n) t.items

let count ?category t =
  match category with
  | None -> t.total
  | Some c -> (
    match Hashtbl.find_opt t.per_category c with
    | Some n -> !n
    | None -> 0)

let clear t =
  t.items <- [];
  t.total <- 0;
  Hashtbl.reset t.per_category;
  t.last_category <- no_category;
  t.last_count <- ref 0;
  t.oldest_first <- None

(* ---- the digest ---- *)

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

let digest t =
  (* Each record renders as "%.9f|category|message\n" into one reused
     buffer and digests to 16 bytes; the result is the digest of those
     partials, oldest first.  Walking newest first fills the partials
     from the back, so no reversal is forced. *)
  let partials = Bytes.create (16 * t.total) in
  let buf = ref (Bytes.create 256) in
  let room n =
    if Bytes.length !buf < n then buf := Bytes.create (2 * n);
    !buf
  in
  let rec go i = function
    | [] -> ()
    | r :: older ->
      let clen = String.length r.category and mlen = String.length r.message in
      let b = room (fixed9_width + clen + mlen + 3) in
      let b, pos =
        match write_fixed9 b 0 r.at with
        | -1 ->
          let s = Printf.sprintf "%.9f" r.at in
          let b = room (String.length s + clen + mlen + 3) in
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
      Bytes.blit_string (Digest.subbytes b 0 (pos + 1)) 0 partials (16 * i) 16;
      go (i - 1) older
  in
  go (t.total - 1) t.items;
  Digest.to_hex (Digest.bytes partials)

let pp_record ppf r =
  Format.fprintf ppf "[%a] %-6s %s" Time.pp r.at r.category r.message

let pp ppf t =
  List.iter (fun r -> Format.fprintf ppf "%a@." pp_record r) (records t)

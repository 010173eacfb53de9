type t = { hi : int64; lo : int64 }

let make hi lo = { hi; lo }
let hi t = t.hi
let lo t = t.lo

let compare a b =
  (* Unsigned comparison: flip the sign bit so Int64.compare orders the
     full 64-bit range correctly. *)
  let flip x = Int64.logxor x Int64.min_int in
  match Int64.compare (flip a.hi) (flip b.hi) with
  | 0 -> Int64.compare (flip a.lo) (flip b.lo)
  | c -> c

let equal a b = Int64.equal a.hi b.hi && Int64.equal a.lo b.lo
(* Pure arithmetic, no allocation and no C call: addresses key the
   per-packet tables of the invariant monitor. *)
let hash t =
  let h = (Int64.to_int t.hi * 0x100000001b3) lxor Int64.to_int t.lo in
  (h lxor (h lsr 29)) land max_int

let unspecified = { hi = 0L; lo = 0L }
let loopback = { hi = 0L; lo = 1L }
let all_nodes = { hi = 0xff02_0000_0000_0000L; lo = 1L }
let all_routers = { hi = 0xff02_0000_0000_0000L; lo = 2L }
let all_pim_routers = { hi = 0xff02_0000_0000_0000L; lo = 0xdL }

let is_unspecified t = equal t unspecified

let top_byte t = Int64.to_int (Int64.shift_right_logical t.hi 56) land 0xff

let is_multicast t = top_byte t = 0xff

let is_link_local_unicast t =
  (* fe80::/10 *)
  Int64.to_int (Int64.shift_right_logical t.hi 54) land 0x3ff = 0x3fa

let multicast_scope t =
  if is_multicast t then
    Some (Int64.to_int (Int64.shift_right_logical t.hi 48) land 0xf)
  else None

let make_multicast ~scope ~group_id =
  if scope < 0 || scope > 15 then invalid_arg "Addr.make_multicast: scope nibble";
  let hi =
    Int64.logor 0xff00_0000_0000_0000L (Int64.shift_left (Int64.of_int scope) 48)
  in
  { hi; lo = group_id }

let of_bytes buf off =
  { hi = Bytes.get_int64_be buf off; lo = Bytes.get_int64_be buf (off + 8) }

let to_bytes t buf off =
  Bytes.set_int64_be buf off t.hi;
  Bytes.set_int64_be buf (off + 8) t.lo

let of_groups g =
  let half a b c d =
    Int64.logor
      (Int64.logor (Int64.shift_left (Int64.of_int a) 48) (Int64.shift_left (Int64.of_int b) 32))
      (Int64.logor (Int64.shift_left (Int64.of_int c) 16) (Int64.of_int d))
  in
  { hi = half g.(0) g.(1) g.(2) g.(3); lo = half g.(4) g.(5) g.(6) g.(7) }

let hex_digits = "0123456789abcdef"

(* The [i]th 16-bit group of the address, most significant first. *)
let group t i =
  let half = if i < 4 then t.hi else t.lo in
  Int64.to_int (Int64.shift_right_logical half (48 - (16 * (i land 3)))) land 0xffff

(* Writes [v] as lowercase hex without leading zeros (["%x"]) at [pos];
   returns the position after it. *)
let write_hex buf pos v =
  let digits = if v >= 0x1000 then 4 else if v >= 0x100 then 3 else if v >= 0x10 then 2 else 1 in
  for k = 0 to digits - 1 do
    Bytes.unsafe_set buf (pos + k) hex_digits.[(v lsr (4 * (digits - 1 - k))) land 0xf]
  done;
  pos + digits

let max_string_length = 39

(* Writes [to_string t] at [pos], where [buf] has room for
   [max_string_length] bytes; returns the position after it. *)
let write buf pos t =
  if pos < 0 || pos > Bytes.length buf - max_string_length then
    invalid_arg "Addr.write: no room for an address";
  (* The first longest run of zero groups (length >= 2) is compressed
     to "::". *)
  let best_start = ref 8 and best_len = ref 0 and cur_len = ref 0 in
  for i = 0 to 7 do
    if group t i = 0 then begin
      incr cur_len;
      if !cur_len > !best_len then begin
        best_start := i + 1 - !cur_len;
        best_len := !cur_len
      end
    end
    else cur_len := 0
  done;
  let skip_from = if !best_len >= 2 then !best_start else 8 in
  let skip_to = skip_from + !best_len in
  let pos = ref pos in
  for i = 0 to 7 do
    if i = skip_from then begin
      Bytes.unsafe_set buf !pos ':';
      Bytes.unsafe_set buf (!pos + 1) ':';
      pos := !pos + 2
    end
    else if i < skip_from || i >= skip_to then begin
      if i > 0 && i <> skip_to then begin
        Bytes.unsafe_set buf !pos ':';
        incr pos
      end;
      pos := write_hex buf !pos (group t i)
    end
  done;
  !pos

let to_string t =
  let buf = Bytes.create max_string_length in
  Bytes.sub_string buf 0 (write buf 0 t)

let render l t = Engine.Line.add_written l ~max:max_string_length write t

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | 'A' .. 'F' -> Char.code c - 55
  | _ -> -1

(* One pass over [s]: groups of one to four hex digits separated by
   single colons, with at most one "::" standing for at least one zero
   group.  [gap] is the group index where the "::" sits, or -1. *)
let of_string_opt s =
  let n = String.length s in
  let g = Array.make 8 0 in
  let rec group i count gap =
    if count = 8 then None
    else
      let rec digits j v =
        if j < n && j - i < 5 then
          match hex_value s.[j] with
          | -1 -> (j, v)
          | d -> digits (j + 1) ((v lsl 4) lor d)
        else (j, v)
      in
      let j, v = digits i 0 in
      if j = i || j - i > 4 then None
      else begin
        g.(count) <- v;
        let count = count + 1 in
        if j = n then finish count gap
        else if s.[j] <> ':' then None
        else if j + 1 < n && s.[j + 1] = ':' then
          if gap >= 0 then None else if j + 2 = n then finish count count else group (j + 2) count count
        else group (j + 1) count gap
      end
  and finish count gap =
    if gap < 0 then if count = 8 then Some (of_groups g) else None
    else if count > 7 then None
    else begin
      let tail = count - gap in
      Array.blit g gap g (8 - tail) tail;
      Array.fill g gap (8 - count) 0;
      Some (of_groups g)
    end
  in
  if n >= 2 && s.[0] = ':' && s.[1] = ':' then if n = 2 then finish 0 0 else group 2 0 0
  else group 0 0 (-1)

let of_string s =
  match of_string_opt s with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Addr.of_string: malformed address %S" s)

let pp ppf t = Format.pp_print_string ppf (to_string t)

module Ordered = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ordered)
module Set = Set.Make (Ordered)

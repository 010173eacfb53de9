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
  let get64 off =
    let b i = Int64.of_int (Char.code (Bytes.get buf (off + i))) in
    let acc = ref 0L in
    for i = 0 to 7 do
      acc := Int64.logor (Int64.shift_left !acc 8) (b i)
    done;
    !acc
  in
  { hi = get64 off; lo = get64 (off + 8) }

let to_bytes t buf off =
  let put64 v off =
    for i = 0 to 7 do
      let shift = 8 * (7 - i) in
      Bytes.set buf (off + i)
        (Char.chr (Int64.to_int (Int64.shift_right_logical v shift) land 0xff))
    done
  in
  put64 t.hi off;
  put64 t.lo (off + 8)

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

let to_string t =
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
  (* At most eight 4-digit groups and seven separators. *)
  let buf = Bytes.create 39 in
  let pos = ref 0 in
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
  Bytes.sub_string buf 0 !pos

let parse_group s =
  if String.length s = 0 || String.length s > 4 then None
  else
    let valid =
      String.for_all
        (fun c ->
          (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F'))
        s
    in
    if valid then Some (int_of_string ("0x" ^ s)) else None

let of_string_opt s =
  let split_groups part =
    if String.equal part "" then Some []
    else
      let pieces = String.split_on_char ':' part in
      let rec convert acc = function
        | [] -> Some (List.rev acc)
        | p :: rest -> (
          match parse_group p with
          | None -> None
          | Some v -> convert (v :: acc) rest)
      in
      convert [] pieces
  in
  match String.index_opt s ':' with
  | None -> None
  | Some _ ->
    let double_colon =
      let rec find i =
        if i + 1 >= String.length s then None
        else if s.[i] = ':' && s.[i + 1] = ':' then Some i
        else find (i + 1)
      in
      find 0
    in
    (match double_colon with
     | None -> (
       match split_groups s with
       | Some gs when List.length gs = 8 -> Some (of_groups (Array.of_list gs))
       | Some _ | None -> None)
     | Some i ->
       let left = String.sub s 0 i in
       let right = String.sub s (i + 2) (String.length s - i - 2) in
       (* A second "::" is malformed. *)
       let contains_dc str =
         let rec go j =
           if j + 1 >= String.length str then false
           else (str.[j] = ':' && str.[j + 1] = ':') || go (j + 1)
         in
         go 0
       in
       if contains_dc right then None
       else
         match (split_groups left, split_groups right) with
         | Some lg, Some rg ->
           let missing = 8 - List.length lg - List.length rg in
           if missing < 1 then None
           else
             let zeros = List.init missing (fun _ -> 0) in
             Some (of_groups (Array.of_list (lg @ zeros @ rg)))
         | _, _ -> None)

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

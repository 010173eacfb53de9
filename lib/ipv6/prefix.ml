type t = { address : Addr.t; length : int }

let mask_address addr len =
  let mask64 bits =
    if bits <= 0 then 0L
    else if bits >= 64 then -1L
    else Int64.shift_left (-1L) (64 - bits)
  in
  Addr.make
    (Int64.logand (Addr.hi addr) (mask64 len))
    (Int64.logand (Addr.lo addr) (mask64 (len - 64)))

let make addr length =
  if length < 0 || length > 128 then invalid_arg "Prefix.make: length outside [0,128]";
  { address = mask_address addr length; length }

let address t = t.address
let length t = t.length

let equal a b = a.length = b.length && Addr.equal a.address b.address
let hash t = Hashtbl.hash (t.length, Addr.hash t.address)

let compare a b =
  match Addr.compare a.address b.address with
  | 0 -> Int.compare a.length b.length
  | c -> c

let contains t addr = Addr.equal (mask_address addr t.length) t.address

let append_interface_id t iid =
  if t.length > 64 then invalid_arg "Prefix.append_interface_id: prefix longer than /64";
  Addr.make (Addr.hi t.address) iid

let of_string s =
  match String.index_opt s '/' with
  | None -> invalid_arg "Prefix.of_string: missing '/'"
  | Some i ->
    let addr = Addr.of_string (String.sub s 0 i) in
    let len_str = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt len_str with
     | Some len when len >= 0 && len <= 128 -> make addr len
     | Some _ | None ->
       invalid_arg (Printf.sprintf "Prefix.of_string: bad length %S" len_str))

let to_string t = Printf.sprintf "%s/%d" (Addr.to_string t.address) t.length
let pp ppf t = Format.pp_print_string ppf (to_string t)

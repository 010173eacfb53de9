type sub_option =
  | Unique_identifier of int
  | Alternate_care_of of Addr.t
  | Multicast_group_list of Addr.t list

type binding_update = {
  sequence : int;
  lifetime_s : int;
  home_registration : bool;
  care_of : Addr.t;
  sub_options : sub_option list;
}

type binding_ack = {
  status : int;
  ack_sequence : int;
  ack_lifetime_s : int;
}

type dest_option =
  | Binding_update of binding_update
  | Binding_acknowledgement of binding_ack
  | Binding_request
  | Home_address of Addr.t

type payload =
  | Data of { stream_id : int; seq : int; bytes : int }
  | Mld of Mld_message.t
  | Pim of Pim_message.t
  | Nd of Nd_message.t
  | Encapsulated of t
  | Empty

and t = {
  src : Addr.t;
  dst : Addr.t;
  hop_limit : int;
  dest_options : dest_option list;
  payload : payload;
}

let make ?(hop_limit = 64) ?(dest_options = []) ~src ~dst payload =
  { src; dst; hop_limit; dest_options; payload }

let encapsulate ~src ~dst inner =
  { src; dst; hop_limit = 64; dest_options = []; payload = Encapsulated inner }

let decapsulate t =
  match t.payload with
  | Encapsulated inner -> Some inner
  | Data _ | Mld _ | Pim _ | Nd _ | Empty -> None

let header_size = 40

let sub_option_size = function
  | Unique_identifier _ -> 2 + 2
  | Alternate_care_of _ -> 2 + 16
  | Multicast_group_list groups -> 2 + (16 * List.length groups)

let dest_option_size = function
  | Binding_update { sub_options; _ } ->
    (* type(1) + len(1) + flags/seq/lifetime (8) + sub-options *)
    2 + 8 + List.fold_left (fun acc s -> acc + sub_option_size s) 0 sub_options
  | Binding_acknowledgement _ -> 2 + 11
  | Binding_request -> 2
  | Home_address _ -> 2 + 16

let options_size options =
  match options with
  | [] -> 0
  | _ ->
    (* next-header(1) + hdr-ext-len(1) + the options, padded to 8B. *)
    let raw = 2 + List.fold_left (fun acc o -> acc + dest_option_size o) 0 options in
    ((raw + 7) / 8) * 8

let rec payload_size = function
  | Data { bytes; _ } -> bytes
  | Mld m -> Mld_message.size m
  | Pim m -> Pim_message.size m
  | Nd m -> Nd_message.size m
  | Encapsulated inner -> size inner
  | Empty -> 0

and size t = header_size + options_size t.dest_options + payload_size t.payload

let rec payload_data_bytes t =
  match t.payload with
  | Data { bytes; _ } -> bytes
  | Encapsulated inner -> payload_data_bytes inner
  | Mld _ | Pim _ | Nd _ | Empty -> 0

let rec tunnel_depth t =
  match t.payload with
  | Encapsulated inner -> 1 + tunnel_depth inner
  | Data _ | Mld _ | Pim _ | Nd _ | Empty -> 0

let find_binding_update t =
  List.find_map
    (function
      | Binding_update bu -> Some bu
      | Binding_acknowledgement _ | Binding_request | Home_address _ -> None)
    t.dest_options

let find_home_address t =
  List.find_map
    (function
      | Home_address a -> Some a
      | Binding_update _ | Binding_acknowledgement _ | Binding_request -> None)
    t.dest_options

let is_multicast_dst t = Addr.is_multicast t.dst

let sub_option_equal a b =
  match (a, b) with
  | Unique_identifier i1, Unique_identifier i2 -> i1 = i2
  | Alternate_care_of a1, Alternate_care_of a2 -> Addr.equal a1 a2
  | Multicast_group_list g1, Multicast_group_list g2 -> List.equal Addr.equal g1 g2
  | (Unique_identifier _ | Alternate_care_of _ | Multicast_group_list _), _ -> false

let dest_option_equal a b =
  match (a, b) with
  | Binding_update b1, Binding_update b2 ->
    b1.sequence = b2.sequence
    && b1.lifetime_s = b2.lifetime_s
    && b1.home_registration = b2.home_registration
    && Addr.equal b1.care_of b2.care_of
    && List.equal sub_option_equal b1.sub_options b2.sub_options
  | Binding_acknowledgement a1, Binding_acknowledgement a2 ->
    a1.status = a2.status
    && a1.ack_sequence = a2.ack_sequence
    && a1.ack_lifetime_s = a2.ack_lifetime_s
  | Binding_request, Binding_request -> true
  | Home_address h1, Home_address h2 -> Addr.equal h1 h2
  | (Binding_update _ | Binding_acknowledgement _ | Binding_request | Home_address _), _ ->
    false

let rec payload_equal a b =
  match (a, b) with
  | Data d1, Data d2 ->
    d1.stream_id = d2.stream_id && d1.seq = d2.seq && d1.bytes = d2.bytes
  | Mld m1, Mld m2 -> Mld_message.equal m1 m2
  | Pim p1, Pim p2 -> Pim_message.equal p1 p2
  | Nd n1, Nd n2 -> Nd_message.equal n1 n2
  | Encapsulated i1, Encapsulated i2 -> equal i1 i2
  | Empty, Empty -> true
  | (Data _ | Mld _ | Pim _ | Nd _ | Encapsulated _ | Empty), _ -> false

and equal a b =
  Addr.equal a.src b.src
  && Addr.equal a.dst b.dst
  && a.hop_limit = b.hop_limit
  && List.equal dest_option_equal a.dest_options b.dest_options
  && payload_equal a.payload b.payload

let pp_sub_option ppf = function
  | Unique_identifier i -> Format.fprintf ppf "uid=%d" i
  | Alternate_care_of a -> Format.fprintf ppf "alt-coa=%a" Addr.pp a
  | Multicast_group_list gs ->
    Format.fprintf ppf "mcast-groups=[%a]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ") Addr.pp)
      gs

let pp_dest_option ppf = function
  | Binding_update { sequence; lifetime_s; home_registration; care_of; sub_options } ->
    Format.fprintf ppf "BU(seq=%d life=%ds H=%b coa=%a%a)" sequence lifetime_s
      home_registration Addr.pp care_of
      (fun ppf subs ->
        List.iter (fun s -> Format.fprintf ppf " %a" pp_sub_option s) subs)
      sub_options
  | Binding_acknowledgement { status; ack_sequence; ack_lifetime_s } ->
    Format.fprintf ppf "BAck(status=%d seq=%d life=%ds)" status ack_sequence ack_lifetime_s
  | Binding_request -> Format.pp_print_string ppf "BReq"
  | Home_address a -> Format.fprintf ppf "HomeAddr(%a)" Addr.pp a

let rec pp ppf t =
  Format.fprintf ppf "%a -> %a" Addr.pp t.src Addr.pp t.dst;
  List.iter (fun o -> Format.fprintf ppf " %a" pp_dest_option o) t.dest_options;
  (match t.payload with
   | Data { stream_id; seq; bytes } ->
     Format.fprintf ppf " data(stream=%d seq=%d %dB)" stream_id seq bytes
   | Mld m -> Format.fprintf ppf " %a" Mld_message.pp m
   | Pim m -> Format.fprintf ppf " %a" Pim_message.pp m
   | Nd m -> Format.fprintf ppf " %a" Nd_message.pp m
   | Encapsulated inner -> Format.fprintf ppf " tunnel[%a]" pp inner
   | Empty -> ())

(* The label of every payload but a tunnel, by kind: [Data] is kind 0
   and adds its stream and sequence number to the name. *)
let kind_names =
  [| "data"; "mld-query"; "mld-report"; "mld-done"; "pim-hello"; "pim-join-prune";
     "pim-graft"; "pim-graft-ack"; "pim-assert"; "pim"; "nd"; "bu"; "back"; "ctl" |]

let kind t =
  match t.payload with
  | Data _ | Encapsulated _ -> 0
  | Mld (Mld_message.Query _) -> 1
  | Mld (Mld_message.Report _) -> 2
  | Mld (Mld_message.Done _) -> 3
  | Pim (Pim_message.Hello _) -> 4
  | Pim (Pim_message.Join_prune _) -> 5
  | Pim (Pim_message.Graft _) -> 6
  | Pim (Pim_message.Graft_ack _) -> 7
  | Pim (Pim_message.Assert _) -> 8
  | Pim _ -> 9
  | Nd _ -> 10
  | Empty ->
    if List.exists (function Binding_update _ -> true | _ -> false) t.dest_options
    then 11
    else if
      List.exists
        (function Binding_acknowledgement _ -> true | _ -> false)
        t.dest_options
    then 12
    else 13

let data_label stream_id seq = "data s" ^ string_of_int stream_id ^ "#" ^ string_of_int seq

(* Compact single-token label for lineage span names: cheap to build
   (concatenation, no formatter), stable across runs, and short enough
   for trace-event viewers.  Called only when a lineage view is
   rendered or a packet has no label code. *)
let rec label t =
  match t.payload with
  | Data { stream_id; seq; _ } -> data_label stream_id seq
  | Encapsulated inner -> "tunnel[" ^ label inner ^ "]"
  | Mld _ | Pim _ | Nd _ | Empty -> kind_names.(kind t)

(* A label code packs, from the low bits up: the sequence number
   (32 bits), the stream id (16), the kind (4) and the tunnel depth
   (3); 55 bits in all. *)
let seq_bits = 32
let stream_bits = 16
let kind_bits = 4
let max_seq = (1 lsl seq_bits) - 1
let max_stream = (1 lsl stream_bits) - 1
let max_depth = 7
let kind_shift = seq_bits + stream_bits
let depth_shift = kind_shift + kind_bits

let rec label_code_at depth t =
  match t.payload with
  | Encapsulated inner -> label_code_at (depth + 1) inner
  | Data { stream_id; seq; _ } ->
    if depth > max_depth || stream_id < 0 || stream_id > max_stream || seq < 0 || seq > max_seq
    then -1
    else (depth lsl depth_shift) lor (stream_id lsl seq_bits) lor seq
  | Mld _ | Pim _ | Nd _ | Empty ->
    if depth > max_depth then -1 else (depth lsl depth_shift) lor (kind t lsl kind_shift)

let label_code t = label_code_at 0 t

let label_of_code code =
  let depth = code asr depth_shift
  and k = (code lsr kind_shift) land ((1 lsl kind_bits) - 1)
  and stream = (code lsr seq_bits) land max_stream
  and seq = code land max_seq in
  if
    code < 0 || depth > max_depth || k >= Array.length kind_names
    || (k > 0 && (stream > 0 || seq > 0))
  then invalid_arg (Printf.sprintf "Packet.label_of_code: %d is not a label code" code);
  let rec tunnel d inner = if d = 0 then inner else "tunnel[" ^ tunnel (d - 1) inner ^ "]" in
  tunnel depth (if k = 0 then data_label stream seq else kind_names.(k))

exception Error of string

let data_min_bytes = 8

(* One IPv6-in-IPv6 tunnel header around the datagram must still fit
   the outer Payload Length. *)
let data_max_bytes = 0xffff - Packet.header_size

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let next_header_dest_options = 60
let next_header_icmpv6 = 58
let next_header_pim = 103
let next_header_ipv6 = 41
let next_header_udp = 17
let next_header_none = 59

(* Option types from draft-ietf-mobileip-ipv6-10. *)
let option_type_binding_update = 198
let option_type_binding_ack = 7
let option_type_binding_request = 8
let option_type_home_address = 201

let sub_option_type_unique_identifier = 1
let sub_option_type_alternate_care_of = 2

(* The draft defines sub-options 1 and 2; the paper proposes the
   Multicast Group List Sub-Option without assigning a code point, so we
   take the next free one. *)
let sub_option_type_multicast_group_list = 3

let option_type_pad1 = 0
let option_type_padn = 1

(* ---- encoding ---- *)

let write_sub_option w (sub : Packet.sub_option) =
  match sub with
  | Unique_identifier uid ->
    Wire.Writer.u8 w sub_option_type_unique_identifier;
    Wire.Writer.u8 w 2;
    Wire.Writer.u16 w uid
  | Alternate_care_of addr ->
    Wire.Writer.u8 w sub_option_type_alternate_care_of;
    Wire.Writer.u8 w 16;
    Wire.Writer.addr w addr
  | Multicast_group_list groups ->
    let len = 16 * List.length groups in
    if len > 255 then error "multicast group list too long for sub-option length field";
    Wire.Writer.u8 w sub_option_type_multicast_group_list;
    Wire.Writer.u8 w len;
    List.iter (Wire.Writer.addr w) groups

let encode_sub_option sub =
  let w = Wire.Writer.create () in
  write_sub_option w sub;
  Wire.Writer.contents w

let write_dest_option w (opt : Packet.dest_option) =
  match opt with
  | Binding_update { sequence; lifetime_s; home_registration; care_of = _; sub_options } ->
    (* The care-of address is the packet's source address (or an
       Alternate Care-of sub-option); it has no field of its own. *)
    let data_len =
      8 + List.fold_left (fun acc s -> acc + Packet.sub_option_size s) 0 sub_options
    in
    if data_len > 255 then error "binding update option too long";
    Wire.Writer.u8 w option_type_binding_update;
    Wire.Writer.u8 w data_len;
    Wire.Writer.u8 w (if home_registration then 0x80 else 0);
    Wire.Writer.u8 w 0 (* prefix length / reserved *);
    Wire.Writer.u16 w sequence;
    Wire.Writer.u32 w lifetime_s;
    List.iter (write_sub_option w) sub_options
  | Binding_acknowledgement { status; ack_sequence; ack_lifetime_s } ->
    Wire.Writer.u8 w option_type_binding_ack;
    Wire.Writer.u8 w 11;
    Wire.Writer.u8 w status;
    Wire.Writer.u16 w ack_sequence;
    Wire.Writer.u32 w ack_lifetime_s;
    Wire.Writer.u32 w ack_lifetime_s (* refresh interval *)
  | Binding_request ->
    Wire.Writer.u8 w option_type_binding_request;
    Wire.Writer.u8 w 0
  | Home_address addr ->
    Wire.Writer.u8 w option_type_home_address;
    Wire.Writer.u8 w 16;
    Wire.Writer.addr w addr

let write_dest_options w options ~payload_next_header =
  let start = Wire.Writer.length w in
  Wire.Writer.u8 w payload_next_header;
  Wire.Writer.u8 w 0 (* header extension length, patched below *);
  List.iter (write_dest_option w) options;
  let written = Wire.Writer.length w - start in
  let padded = ((written + 7) / 8) * 8 in
  (match padded - written with
   | 0 -> ()
   | 1 -> Wire.Writer.u8 w option_type_pad1
   | n ->
     Wire.Writer.u8 w option_type_padn;
     Wire.Writer.u8 w (n - 2);
     Wire.Writer.zeros w (n - 2));
  (* Header Ext Length counts 8-octet units beyond the first. *)
  let unit_count = (padded / 8) - 1 in
  if unit_count > 255 then error "destination options header too long";
  let b = Wire.Writer.length w in
  ignore b;
  Wire.Writer.patch_u16 w start ((payload_next_header lsl 8) lor unit_count)

let write_mld w (m : Mld_message.t) =
  let start = Wire.Writer.length w in
  Wire.Writer.u8 w (Mld_message.icmp_type m);
  Wire.Writer.u8 w 0 (* code *);
  Wire.Writer.u16 w 0 (* checksum, patched *);
  (match m with
   | Query { max_response_delay_ms; _ } ->
     if max_response_delay_ms < 0 || max_response_delay_ms > 0xffff then
       error "MLD max response delay out of range";
     Wire.Writer.u16 w max_response_delay_ms
   | Report _ | Done _ -> Wire.Writer.u16 w 0);
  Wire.Writer.u16 w 0 (* reserved *);
  (match Mld_message.group m with
   | None -> Wire.Writer.addr w Addr.unspecified
   | Some g -> Wire.Writer.addr w g);
  let len = Wire.Writer.length w - start in
  Wire.Writer.patch_u16 w (start + 2) (Wire.Writer.checksum_range w start len)

let write_encoded_unicast w addr =
  Wire.Writer.u8 w 2 (* address family: IPv6 *);
  Wire.Writer.u8 w 0 (* native encoding *);
  Wire.Writer.addr w addr

let write_source_group w (sg : Pim_message.source_group) =
  write_encoded_unicast w sg.source;
  write_encoded_unicast w sg.group;
  Wire.Writer.zeros w 4

let write_pim w (m : Pim_message.t) =
  let start = Wire.Writer.length w in
  Wire.Writer.u8 w ((2 lsl 4) lor Pim_message.message_type m);
  Wire.Writer.u8 w 0 (* reserved *);
  Wire.Writer.u16 w 0 (* checksum, patched *);
  (match m with
   | Hello { holdtime_s } ->
     Wire.Writer.u16 w 1 (* option type: holdtime *);
     Wire.Writer.u16 w 2 (* option length *);
     Wire.Writer.u16 w holdtime_s;
     Wire.Writer.zeros w 2
   | Join_prune { upstream_neighbor; holdtime_s; joins; prunes } ->
     write_encoded_unicast w upstream_neighbor;
     Wire.Writer.u8 w (List.length joins);
     Wire.Writer.u8 w (List.length prunes);
     Wire.Writer.u16 w holdtime_s;
     List.iter (write_source_group w) joins;
     List.iter (write_source_group w) prunes
   | Graft { upstream_neighbor; joins } | Graft_ack { upstream_neighbor; joins } ->
     write_encoded_unicast w upstream_neighbor;
     Wire.Writer.u8 w (List.length joins);
     Wire.Writer.u8 w 0;
     Wire.Writer.u16 w 0;
     List.iter (write_source_group w) joins
   | Assert { group; source; metric_preference; metric } ->
     write_encoded_unicast w group;
     write_encoded_unicast w source;
     Wire.Writer.u32 w metric_preference;
     Wire.Writer.u32 w metric
   | State_refresh { refresh_source; refresh_group; interval_s; prune_indicator } ->
     write_encoded_unicast w refresh_source;
     write_encoded_unicast w refresh_group;
     Wire.Writer.u16 w interval_s;
     Wire.Writer.u8 w (if prune_indicator then 0x80 else 0);
     Wire.Writer.u8 w 0);
  let len = Wire.Writer.length w - start in
  Wire.Writer.patch_u16 w (start + 2) (Wire.Writer.checksum_range w start len)

let write_nd w (m : Nd_message.t) =
  let start = Wire.Writer.length w in
  Wire.Writer.u8 w (Nd_message.icmp_type m);
  Wire.Writer.u8 w 0 (* code *);
  Wire.Writer.u16 w 0 (* checksum, patched *);
  (match m with
   | Router_advertisement { prefix; router_lifetime_s; interval_ms } ->
     Wire.Writer.u8 w 64 (* current hop limit *);
     Wire.Writer.u8 w 0 (* flags *);
     Wire.Writer.u16 w router_lifetime_s;
     (* The advertisement interval rides in the reachable-time field;
        Mobile IPv6 deployments advertise it so hosts can detect
        movement quickly. *)
     Wire.Writer.u32 w interval_ms;
     Wire.Writer.u32 w 0 (* retrans timer *);
     (* Prefix Information option. *)
     Wire.Writer.u8 w 3;
     Wire.Writer.u8 w 4 (* length in 8-byte units *);
     Wire.Writer.u8 w (Prefix.length prefix);
     Wire.Writer.u8 w 0xc0 (* on-link + autonomous *);
     Wire.Writer.u32 w 0xffffffff (* valid lifetime *);
     Wire.Writer.u32 w 0xffffffff (* preferred lifetime *);
     Wire.Writer.u32 w 0 (* reserved *);
     Wire.Writer.addr w (Prefix.address prefix)
   | Home_agent_heartbeat { priority; sequence } ->
     Wire.Writer.u16 w priority;
     Wire.Writer.u16 w sequence);
  let len = Wire.Writer.length w - start in
  Wire.Writer.patch_u16 w (start + 2) (Wire.Writer.checksum_range w start len)

let payload_next_header (p : Packet.payload) =
  match p with
  | Data _ -> next_header_udp
  | Mld _ -> next_header_icmpv6
  | Pim _ -> next_header_pim
  | Nd _ -> next_header_icmpv6
  | Encapsulated _ -> next_header_ipv6
  | Empty -> next_header_none

let rec write_packet w (p : Packet.t) =
  let start = Wire.Writer.length w in
  let inner_nh = payload_next_header p.payload in
  let first_nh =
    match p.dest_options with
    | [] -> inner_nh
    | _ :: _ -> next_header_dest_options
  in
  Wire.Writer.u32 w 0x6000_0000 (* version 6, no traffic class / flow *);
  Wire.Writer.u16 w 0 (* payload length, patched *);
  Wire.Writer.u8 w first_nh;
  Wire.Writer.u8 w p.hop_limit;
  Wire.Writer.addr w p.src;
  Wire.Writer.addr w p.dst;
  (match p.dest_options with
   | [] -> ()
   | opts -> write_dest_options w opts ~payload_next_header:inner_nh);
  (match p.payload with
   | Data { stream_id; seq; bytes } ->
     if bytes < data_min_bytes then
       error "Data payload must be at least 8 bytes (stream/seq header)";
     Wire.Writer.u32 w stream_id;
     Wire.Writer.u32 w seq;
     Wire.Writer.zeros w (bytes - data_min_bytes)
   | Mld m -> write_mld w m
   | Pim m -> write_pim w m
   | Nd m -> write_nd w m
   | Encapsulated inner -> write_packet w inner
   | Empty -> ());
  let total = Wire.Writer.length w - start in
  let payload_len = total - Packet.header_size in
  if payload_len > 0xffff then error "payload longer than 65535 bytes";
  Wire.Writer.patch_u16 w (start + 4) payload_len

(* Per-domain encode arena.  [write_packet] never runs foreign code, so
   within a domain the writer cannot be re-entered; each domain gets its
   own, so concurrent scenario runs never share it.  [contents] hands
   the caller a fresh copy — the arena only amortizes the writer record
   and its grow-and-copy ladder, it never aliases returned frames. *)
let arena = Domain.DLS.new_key (fun () -> Wire.Writer.create ())

let encode p =
  let w = Domain.DLS.get arena in
  Wire.Writer.reset w;
  write_packet w p;
  Wire.Writer.contents w

(* ---- decoding ---- *)

let read_sub_options r ~len =
  let stop = Wire.Reader.pos r + len in
  let rec loop acc =
    if Wire.Reader.pos r >= stop then List.rev acc
    else begin
      let ty = Wire.Reader.u8 r in
      let l = Wire.Reader.u8 r in
      if ty = sub_option_type_unique_identifier then begin
        if l <> 2 then error "unique identifier sub-option: bad length %d" l;
        loop (Packet.Unique_identifier (Wire.Reader.u16 r) :: acc)
      end
      else if ty = sub_option_type_alternate_care_of then begin
        if l <> 16 then error "alternate care-of sub-option: bad length %d" l;
        loop (Packet.Alternate_care_of (Wire.Reader.addr r) :: acc)
      end
      else if ty = sub_option_type_multicast_group_list then begin
        if l mod 16 <> 0 then
          error "multicast group list sub-option: length %d not a multiple of 16" l;
        let groups = List.init (l / 16) (fun _ -> Wire.Reader.addr r) in
        loop (Packet.Multicast_group_list groups :: acc)
      end
      else error "unknown sub-option type %d" ty
    end
  in
  loop []

let read_dest_options r ~src =
  let payload_nh = Wire.Reader.u8 r in
  let unit_count = Wire.Reader.u8 r in
  let total = 8 * (unit_count + 1) in
  let stop = Wire.Reader.pos r - 2 + total in
  let rec loop acc =
    if Wire.Reader.pos r >= stop then List.rev acc
    else begin
      let ty = Wire.Reader.u8 r in
      if ty = option_type_pad1 then loop acc
      else begin
        let len = Wire.Reader.u8 r in
        if ty = option_type_padn then begin
          Wire.Reader.skip r len;
          loop acc
        end
        else if ty = option_type_binding_update then begin
          if len < 8 then error "binding update option: bad length %d" len;
          let flags = Wire.Reader.u8 r in
          let _prefix = Wire.Reader.u8 r in
          let sequence = Wire.Reader.u16 r in
          let lifetime_s = Wire.Reader.u32 r in
          let sub_options = read_sub_options r ~len:(len - 8) in
          let care_of =
            match
              List.find_map
                (function
                  | Packet.Alternate_care_of a -> Some a
                  | Packet.Unique_identifier _ | Packet.Multicast_group_list _ -> None)
                sub_options
            with
            | Some a -> a
            | None -> src
          in
          loop
            (Packet.Binding_update
               { sequence;
                 lifetime_s;
                 home_registration = flags land 0x80 <> 0;
                 care_of;
                 sub_options }
             :: acc)
        end
        else if ty = option_type_binding_ack then begin
          if len <> 11 then error "binding ack option: bad length %d" len;
          let status = Wire.Reader.u8 r in
          let ack_sequence = Wire.Reader.u16 r in
          let ack_lifetime_s = Wire.Reader.u32 r in
          let _refresh = Wire.Reader.u32 r in
          loop (Packet.Binding_acknowledgement { status; ack_sequence; ack_lifetime_s } :: acc)
        end
        else if ty = option_type_binding_request then begin
          if len <> 0 then error "binding request option: bad length %d" len;
          loop (Packet.Binding_request :: acc)
        end
        else if ty = option_type_home_address then begin
          if len <> 16 then error "home address option: bad length %d" len;
          loop (Packet.Home_address (Wire.Reader.addr r) :: acc)
        end
        else error "unknown destination option type %d" ty
      end
    end
  in
  let options = loop [] in
  (payload_nh, options)

let verify_checksum buf off len what =
  (* Recompute with the checksum field treated as zero, in place — no
     frame copy.  A body shorter than the checksum field raises the
     same out-of-bounds [Invalid_argument] the old copying reader did,
     which [decode] maps to its malformed-packet error. *)
  if len < 4 then invalid_arg "index out of bounds";
  let stored = (Char.code (Bytes.get buf (off + 2)) lsl 8) lor Char.code (Bytes.get buf (off + 3)) in
  let computed = Wire.checksum_skip16 buf off len ~at:(off + 2) in
  if stored <> computed then
    error "%s checksum mismatch: stored %04x computed %04x" what stored computed

let read_icmpv6 buf r : Packet.payload =
  let start = Wire.Reader.pos r in
  let len = Wire.Reader.remaining r in
  verify_checksum buf start len "ICMPv6";
  let ty = Wire.Reader.u8 r in
  let _code = Wire.Reader.u8 r in
  let _checksum = Wire.Reader.u16 r in
  match ty with
  | 130 | 131 | 132 ->
    if len <> 24 then error "MLD message: bad length %d" len;
    let max_response_delay_ms = Wire.Reader.u16 r in
    let _reserved = Wire.Reader.u16 r in
    let group = Wire.Reader.addr r in
    (match ty with
     | 130 ->
       let group = if Addr.is_unspecified group then None else Some group in
       Packet.Mld (Mld_message.Query { group; max_response_delay_ms })
     | 131 -> Packet.Mld (Mld_message.Report { group })
     | _ -> Packet.Mld (Mld_message.Done { group }))
  | 134 ->
    if len <> 48 then error "router advertisement: bad length %d" len;
    let _hop_limit = Wire.Reader.u8 r in
    let _flags = Wire.Reader.u8 r in
    let router_lifetime_s = Wire.Reader.u16 r in
    let interval_ms = Wire.Reader.u32 r in
    let _retrans = Wire.Reader.u32 r in
    let opt_type = Wire.Reader.u8 r in
    let opt_len = Wire.Reader.u8 r in
    if opt_type <> 3 || opt_len <> 4 then error "router advertisement: bad prefix option";
    let prefix_len = Wire.Reader.u8 r in
    if prefix_len > 128 then error "router advertisement: prefix length %d" prefix_len;
    let _pflags = Wire.Reader.u8 r in
    let _valid = Wire.Reader.u32 r in
    let _preferred = Wire.Reader.u32 r in
    let _reserved = Wire.Reader.u32 r in
    let prefix_addr = Wire.Reader.addr r in
    Packet.Nd
      (Nd_message.Router_advertisement
         { prefix = Prefix.make prefix_addr prefix_len; router_lifetime_s; interval_ms })
  | 200 ->
    if len <> 8 then error "home agent heartbeat: bad length %d" len;
    let priority = Wire.Reader.u16 r in
    let sequence = Wire.Reader.u16 r in
    Packet.Nd (Nd_message.Home_agent_heartbeat { priority; sequence })
  | _ -> error "unknown ICMPv6 type %d" ty

let read_encoded_unicast r =
  let family = Wire.Reader.u8 r in
  let enc = Wire.Reader.u8 r in
  if family <> 2 || enc <> 0 then error "bad encoded-unicast (family %d enc %d)" family enc;
  Wire.Reader.addr r

let read_source_group r =
  let source = read_encoded_unicast r in
  let group = read_encoded_unicast r in
  Wire.Reader.skip r 4;
  { Pim_message.source; group }

let read_pim buf r =
  let start = Wire.Reader.pos r in
  let len = Wire.Reader.remaining r in
  verify_checksum buf start len "PIM";
  let vt = Wire.Reader.u8 r in
  if vt lsr 4 <> 2 then error "unsupported PIM version %d" (vt lsr 4);
  let _reserved = Wire.Reader.u8 r in
  let _checksum = Wire.Reader.u16 r in
  match vt land 0xf with
  | 0 ->
    let opt_type = Wire.Reader.u16 r in
    let opt_len = Wire.Reader.u16 r in
    if opt_type <> 1 || opt_len <> 2 then error "malformed PIM hello options";
    let holdtime_s = Wire.Reader.u16 r in
    Wire.Reader.skip r 2;
    Pim_message.Hello { holdtime_s }
  | 3 ->
    let upstream_neighbor = read_encoded_unicast r in
    let njoins = Wire.Reader.u8 r in
    let nprunes = Wire.Reader.u8 r in
    let holdtime_s = Wire.Reader.u16 r in
    let joins = List.init njoins (fun _ -> read_source_group r) in
    let prunes = List.init nprunes (fun _ -> read_source_group r) in
    Pim_message.Join_prune { upstream_neighbor; holdtime_s; joins; prunes }
  | 5 ->
    let group = read_encoded_unicast r in
    let source = read_encoded_unicast r in
    let metric_preference = Wire.Reader.u32 r in
    let metric = Wire.Reader.u32 r in
    Pim_message.Assert { group; source; metric_preference; metric }
  | 9 ->
    let refresh_source = read_encoded_unicast r in
    let refresh_group = read_encoded_unicast r in
    let interval_s = Wire.Reader.u16 r in
    let flags = Wire.Reader.u8 r in
    Wire.Reader.skip r 1;
    Pim_message.State_refresh
      { refresh_source;
        refresh_group;
        interval_s;
        prune_indicator = flags land 0x80 <> 0 }
  | (6 | 7) as ty ->
    let upstream_neighbor = read_encoded_unicast r in
    let njoins = Wire.Reader.u8 r in
    let _reserved = Wire.Reader.u8 r in
    let _holdtime = Wire.Reader.u16 r in
    let joins = List.init njoins (fun _ -> read_source_group r) in
    if ty = 6 then Pim_message.Graft { upstream_neighbor; joins }
    else Pim_message.Graft_ack { upstream_neighbor; joins }
  | ty -> error "unknown PIM message type %d" ty

let rec read_packet buf r =
  let version_word = Wire.Reader.u32 r in
  if version_word lsr 28 <> 6 then error "not an IPv6 packet (version %d)" (version_word lsr 28);
  let payload_len = Wire.Reader.u16 r in
  let first_nh = Wire.Reader.u8 r in
  let hop_limit = Wire.Reader.u8 r in
  let src = Wire.Reader.addr r in
  let dst = Wire.Reader.addr r in
  if Wire.Reader.remaining r < payload_len then error "truncated packet";
  let payload_end = Wire.Reader.pos r + payload_len in
  let nh, dest_options =
    if first_nh = next_header_dest_options then read_dest_options r ~src
    else (first_nh, [])
  in
  let payload : Packet.payload =
    if nh = next_header_udp then begin
      let stream_id = Wire.Reader.u32 r in
      let seq = Wire.Reader.u32 r in
      let bytes = 8 + (payload_end - Wire.Reader.pos r) in
      Wire.Reader.skip r (bytes - 8);
      Data { stream_id; seq; bytes }
    end
    else if nh = next_header_icmpv6 then begin
      let slice = Wire.Reader.sub r (Wire.Reader.pos r) (payload_end - Wire.Reader.pos r) in
      let payload = read_icmpv6 buf slice in
      Wire.Reader.skip r (payload_end - Wire.Reader.pos r);
      payload
    end
    else if nh = next_header_pim then begin
      let slice = Wire.Reader.sub r (Wire.Reader.pos r) (payload_end - Wire.Reader.pos r) in
      let m = read_pim buf slice in
      Wire.Reader.skip r (payload_end - Wire.Reader.pos r);
      Pim m
    end
    else if nh = next_header_ipv6 then Encapsulated (read_packet buf r)
    else if nh = next_header_none then Empty
    else error "unknown next header %d" nh
  in
  { Packet.src; dst; hop_limit; dest_options; payload }

let decode_exn buf =
  let r = Wire.Reader.of_bytes buf in
  try read_packet buf r with
  | Wire.Reader.Truncated -> error "truncated packet"
  | Invalid_argument msg -> error "malformed packet: %s" msg

let decode buf =
  match decode_exn buf with
  | p -> Ok p
  | exception Error msg -> Result.Error msg

module Frame = struct
  (* A flyweight cell interning one packet's encoded frame: the network
     creates one per transmit, every consumer (wire-check deliveries to
     each receiver, packet capture) forces the same cell, and a
     dense-mode fan-out over N links reuses the sender's cell across
     links — so the frame is encoded once, not once per delivery.

     The shared frame is immutable by convention: consumers that must
     mutate (corruption injection) work on [copy].  The decoded view is
     memoized too — all receivers of an uncorrupted frame see what one
     byte-exact decode of it produces. *)

  type state =
    | Unforced
    | Encoded of bytes
    | Unencodable of string

  type nonrec t = {
    packet : Packet.t;
    mutable state : state;
    mutable decoded : (Packet.t, string) result option;
  }

  let of_packet packet = { packet; state = Unforced; decoded = None }

  let packet t = t.packet

  let force t =
    match t.state with
    | Encoded frame -> Ok frame
    | Unencodable reason -> Result.Error reason
    | Unforced -> (
      match encode t.packet with
      | frame ->
        t.state <- Encoded frame;
        Ok frame
      | exception Error reason ->
        t.state <- Unencodable reason;
        Result.Error reason)

  let copy t =
    match force t with
    | Ok frame -> Ok (Bytes.copy frame)
    | Result.Error _ as e -> e

  let decoded t =
    match t.decoded with
    | Some r -> r
    | None ->
      let r =
        match force t with
        | Ok frame -> decode frame
        | Result.Error _ as e -> e
      in
      t.decoded <- Some r;
      r
end

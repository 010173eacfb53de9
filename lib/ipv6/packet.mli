(** The IPv6 packet model.

    A packet is the base header (source, destination, hop limit) plus an
    optional chain of destination options (Mobile IPv6 signalling
    travels there, per draft-ietf-mobileip-ipv6-10) and a payload.
    RFC 2473 tunnelling is modelled by the {!constructor-Encapsulated}
    payload: the outer packet carries the inner one whole, and
    {!size} charges the extra 40-byte header, which is how the metrics
    layer measures tunnel overhead. *)

(** Sub-options carried inside a Binding Update destination option.
    [Multicast_group_list] is the paper's proposed extension
    (Figure 5): the list of multicast groups the mobile host asks its
    home agent to join on its behalf. *)
type sub_option =
  | Unique_identifier of int
  | Alternate_care_of of Addr.t
  | Multicast_group_list of Addr.t list

type binding_update = {
  sequence : int;
  lifetime_s : int;
  home_registration : bool;
      (** The draft's (H) bit; the Multicast Group List Sub-Option is
          only valid when it is set. *)
  care_of : Addr.t;
  sub_options : sub_option list;
}

type binding_ack = {
  status : int;  (** 0 = accepted; >= 128 rejected. *)
  ack_sequence : int;
  ack_lifetime_s : int;
}

type dest_option =
  | Binding_update of binding_update
  | Binding_acknowledgement of binding_ack
  | Binding_request
  | Home_address of Addr.t

(** Transported payloads.  [Data] models application datagrams with an
    explicit byte count so that bandwidth accounting does not need real
    buffers. *)
type payload =
  | Data of { stream_id : int; seq : int; bytes : int }
  | Mld of Mld_message.t
  | Pim of Pim_message.t
  | Nd of Nd_message.t
  | Encapsulated of t
  | Empty  (** pure signalling packets, e.g. a Binding Update alone *)

and t = {
  src : Addr.t;
  dst : Addr.t;
  hop_limit : int;
  dest_options : dest_option list;
  payload : payload;
}

val make :
  ?hop_limit:int -> ?dest_options:dest_option list -> src:Addr.t -> dst:Addr.t ->
  payload -> t
(** Default hop limit 64. *)

val encapsulate : src:Addr.t -> dst:Addr.t -> t -> t
(** RFC 2473: wrap a packet for tunnelling. *)

val decapsulate : t -> t option
(** The inner packet, if this is a tunnel packet. *)

val header_size : int
(** 40 bytes. *)

val sub_option_size : sub_option -> int
(** Wire size including the sub-option's own type/len bytes.  For
    [Multicast_group_list] the data length is 16·N as mandated by the
    paper's Figure 5. *)

val dest_option_size : dest_option -> int

val size : t -> int
(** Total on-the-wire bytes: header + options + payload, recursing
    through encapsulation. *)

val payload_data_bytes : t -> int
(** Application bytes carried (recursing through tunnels); 0 for pure
    signalling. *)

val tunnel_depth : t -> int

val find_binding_update : t -> binding_update option
val find_home_address : t -> Addr.t option

val is_multicast_dst : t -> bool

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val label : t -> string
(** Compact single-token description (["data s0#17"], ["pim-graft"],
    ["tunnel[data s0#17]"]) used to name lineage spans. *)

val label_code : t -> int
(** [label] packed into a non-negative int, without allocating: the
    payload kind, the tunnel depth (at most 7) and, for data, the
    stream id (0 to 65,535) and sequence number (0 to 2{^32}−1).  [-1]
    for a packet outside those bounds, whose label has no code. *)

val label_of_code : int -> string
(** [label_of_code (label_code p) = label p] wherever the code is not
    [-1].  @raise Invalid_argument for an int that is not a label code. *)

(** Byte-exact packet codec.

    Encoding follows the IETF formats the paper builds on: the fixed
    IPv6 header, a destination-options extension header carrying Mobile
    IPv6 options (draft-ietf-mobileip-ipv6-10 option types), ICMPv6 for
    MLD (RFC 2710), PIM version 2 messages, RFC 2473 IPv6-in-IPv6
    encapsulation, and the paper's Multicast Group List Sub-Option with
    its Figure 5 layout (Sub-Option Len = 16·N).

    [Bytes.length (encode p) = Packet.size p] holds for every encodable
    packet; the property is enforced by tests and makes the byte
    accounting of the metrics layer exact.

    A Binding Update's care-of address is not a wire field of its own
    (per the draft it is the packet's source address, unless an
    Alternate Care-of Address sub-option is present), so [decode]
    reconstructs it from those. *)

exception Error of string

val data_min_bytes : int
(** [8]: the smallest [Data] payload that encodes — its stream/seq
    header. *)

val data_max_bytes : int
(** [65495]: the largest [Data] payload that encodes both as a plain
    datagram and inside one IPv6-in-IPv6 tunnel (RFC 2473), whose extra
    40-byte header counts against the outer Payload Length of 65,535
    — the tunnelled approaches carry every datagram that way. *)

val encode : Packet.t -> bytes
(** @raise Error when the packet cannot be put on the wire: a [Data]
    payload smaller than 8 bytes (the stream/seq header) or a total
    payload beyond 65535 bytes.

    Encoding runs through a per-domain arena writer (reused across
    calls, so steady-state encoding does not pay the writer's
    grow-and-copy ladder); the returned frame is always a fresh copy
    owned by the caller. *)

val decode : bytes -> (Packet.t, string) result
(** Full parse, including ICMPv6/PIM checksum verification. *)

val decode_exn : bytes -> Packet.t
(** @raise Error on malformed input. *)

(* Wire constants, exposed for tests and for the Figure 5 dump. *)

val next_header_dest_options : int
val next_header_icmpv6 : int
val next_header_pim : int
val next_header_ipv6 : int
val next_header_udp : int
val next_header_none : int

val option_type_binding_update : int
val option_type_binding_ack : int
val option_type_binding_request : int
val option_type_home_address : int

val sub_option_type_unique_identifier : int
val sub_option_type_alternate_care_of : int
val sub_option_type_multicast_group_list : int

val encode_sub_option : Packet.sub_option -> bytes
(** Just the sub-option TLV, as drawn in the paper's Figure 5. *)

(** Interned encoded frames.

    A cell created once per transmission and shared by every consumer
    of that transmission — per-receiver wire-check deliveries, the
    packet-capture observer, and (via the network's one-slot memo) a
    router's fan-out of the {e same} packet value over several links —
    so the frame is encoded at most once however many times it is
    consumed.  The forced frame is shared and must not be mutated;
    mutating consumers (corruption injection) take {!Frame.copy}.  The
    decode of the shared frame is memoized the same way. *)
module Frame : sig
  type t

  val of_packet : Packet.t -> t
  (** A fresh, unforced cell.  Creating one does not encode. *)

  val packet : t -> Packet.t

  val force : t -> (bytes, string) result
  (** The interned frame, encoding on first use; [Error] carries the
      {!Codec.Error} message for packets that cannot go on the wire.
      The returned bytes are shared — treat them as immutable. *)

  val copy : t -> (bytes, string) result
  (** Like {!force} but returns a private copy the caller may mutate. *)

  val decoded : t -> (Packet.t, string) result
  (** [decode] of the interned frame, memoized: every receiver of an
      uncorrupted shared frame sees the one decoded value, exactly as
      each would have seen its own byte-identical decode. *)
end

(** 128-bit IPv6 addresses.

    Stored as two 64-bit halves.  Includes the well-known addresses the
    protocols in this code base need (all-nodes, all-routers, all
    PIM routers) and the multicast predicates used by MLD and PIM-DM. *)

type t

val make : int64 -> int64 -> t
(** [make hi lo]: [hi] holds the first 8 bytes in network order. *)

val hi : t -> int64
val lo : t -> int64

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val unspecified : t
(** [::] *)

val loopback : t
(** [::1] *)

val all_nodes : t
(** [ff02::1], link-scope all nodes. *)

val all_routers : t
(** [ff02::2], link-scope all routers; MLD Done messages go here. *)

val all_pim_routers : t
(** [ff02::d], link-scope all PIM routers. *)

val is_unspecified : t -> bool
val is_multicast : t -> bool
(** [ff00::/8] *)

val is_link_local_unicast : t -> bool
(** [fe80::/10] *)

val multicast_scope : t -> int option
(** Scope nibble of a multicast address (2 = link-local, 5 = site,
    14 = global); [None] for unicast addresses. *)

val make_multicast : scope:int -> group_id:int64 -> t
(** Builds [ffxx::group_id] with the given scope nibble. *)

val of_bytes : bytes -> int -> t
(** Read 16 bytes at the given offset. *)

val to_bytes : t -> bytes -> int -> unit
(** Write 16 bytes at the given offset. *)

val of_string : string -> t
(** Parses full and [::]-compressed textual forms.
    @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option

val to_string : t -> string
(** RFC 5952-style printing: lower-case hex, longest zero run
    compressed. *)

val render : Engine.Line.t -> t -> unit
(** Appends [to_string a], written straight into the line's bytes. *)

val pp : Format.formatter -> t -> unit

module Map : Map.S with type key = t
module Set : Set.S with type elt = t

(** IPv6 network prefixes.

    Each simulated link is assigned a /64 prefix; stateless address
    autoconfiguration combines a link prefix with a host's interface
    identifier ({!append_interface_id}), which is how mobile hosts form
    care-of addresses on foreign links. *)

type t

val make : Addr.t -> int -> t
(** [make addr len] keeps only the first [len] bits of [addr].
    @raise Invalid_argument unless [0 <= len <= 128]. *)

val address : t -> Addr.t
(** The prefix bits, with the host part zeroed. *)

val length : t -> int

val equal : t -> t -> bool

val hash : t -> int
(** Consistent with {!equal}: equal prefixes hash alike. *)

val compare : t -> t -> int

val contains : t -> Addr.t -> bool

val append_interface_id : t -> int64 -> Addr.t
(** [append_interface_id p iid] forms an address from a /64 (or
    shorter) prefix and a 64-bit interface identifier.
    @raise Invalid_argument if [length p > 64]. *)

val of_string : string -> t
(** Parses ["2001:db8:1::/64"].  @raise Invalid_argument on malformed
    input. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Opaque node and link identifiers, and dense channel ids. *)

module type ID = sig
  type t

  val of_int : int -> t
  val to_int : t -> int
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int
  val pp : Format.formatter -> t -> unit

  module Map : Map.S with type key = t
  module Set : Set.S with type elt = t

  module Tbl : Hashtbl.S with type key = t
  (** Hashes an id arithmetically: the per-packet tables use it. *)
end

module Node_id : ID
module Link_id : ID

(** The address part of a data-bearing transmission, interned by the
    network into a dense id from 0 ({!Network.channel}): (source,
    group) for multicast, (source, destination) for unicast, and the
    destination for a tunnelled packet.  Per-packet tables index arrays
    with {!to_int} instead of hashing addresses. *)
module Channel_id : sig
  type t = private int

  val of_int : int -> t
  val to_int : t -> int

  val none : t
  (** The channel of a control message (MLD, PIM, ND or an empty
      payload), which carries no data: [to_int none < 0]. *)
end

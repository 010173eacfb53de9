(** Opaque node and link identifiers. *)

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

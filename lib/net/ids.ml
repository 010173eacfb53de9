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
end

module Make (P : sig
  val prefix : string
end) : ID = struct
  type t = int

  let of_int i = i
  let to_int i = i
  let equal = Int.equal
  let compare = Int.compare
  let hash = Hashtbl.hash
  let pp ppf i = Format.fprintf ppf "%s%d" P.prefix i

  module Map = Map.Make (Int)
  module Set = Set.Make (Int)

  module Tbl = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash i = i land max_int
  end)
end

module Node_id = Make (struct
  let prefix = "n"
end)

module Link_id = Make (struct
  let prefix = "l"
end)

(* Not made by [Make], whose result is abstract: the per-packet paths
   index arrays with channel ids, and a private [int] converts for
   free. *)
module Channel_id = struct
  type t = int

  let of_int i = i
  let to_int i = i
  let none = -1
end

(** A reusable byte buffer that renders text without [Format] or
    [Printf].

    The trace renders each record into one of these: strings, ints, and
    floats exactly as C's [printf] conversion [%.kf] renders them (to
    nearest, ties to even, on the exact binary value).  Times and
    addresses are rendered into it by their own modules.  Writers grow
    the buffer as needed; {!clear} keeps its storage, so a buffer reused
    for every record stops allocating once it has reached the longest
    line. *)

type t

val create : int -> t
(** An empty buffer with room for about [n] bytes. *)

val clear : t -> unit

val contents : t -> string

val digest : t -> Digest.t
(** MD5 of the contents, without copying them. *)

val add_char : t -> char -> unit
val add_string : t -> string -> unit

val add_label : t -> string -> unit
(** [add_label l label] appends ["label: "], the prefix of a trace
    message written on behalf of a named node or interface. *)

val add_int : t -> int -> unit
(** ["%d"]. *)

val add_fixed : t -> float -> int -> unit
(** [add_fixed l x k] appends [Printf.sprintf "%.*f" k x], for
    [0 <= k <= 9].  Where [x * 10^k] is non-negative and below 2^52 it
    is computed from [x *. 10^k] and its [Float.fma] residual, without
    allocating; elsewhere (negative, huge or non-finite) from [x]'s exact
    decimal expansion.
    @raise Invalid_argument for [k] outside [0..9]. *)

val add_written : t -> max:int -> (Bytes.t -> int -> 'a -> int) -> 'a -> unit
(** [add_written l ~max write v] lets [write b pos v] write at most [max]
    bytes of [v]'s rendering into [b] at [pos] and return the position
    after them: how a printer that writes into bytes (an address
    printer, say) renders straight into the buffer. *)

(** Simulated time.

    Time is a non-negative count of seconds since the start of the
    simulation, represented as a float.  All protocol timer constants in
    this code base (MLD query intervals, PIM prune delays, Mobile IPv6
    binding lifetimes, ...) are values of this type. *)

type t = float

val zero : t

val of_seconds : float -> t
(** Identity, kept for call-site readability. *)

val of_milliseconds : float -> t

val seconds : t -> float

val milliseconds : t -> float

val add : t -> t -> t

val sub : t -> t -> t
(** [sub a b] is [a -. b]; may be negative, callers compare durations. *)

val compare : t -> t -> int

val ( <. ) : t -> t -> bool

val ( <=. ) : t -> t -> bool

val is_finite : t -> bool

val max : t -> t -> t

val min : t -> t -> t

val render : Line.t -> t -> unit
(** Appends [t] with an adaptive unit: ["350.0ms"], ["12.500s"],
    ["4m20.0s"]; ["-1.500s"] when negative, ["inf"] when not finite.
    Writes no [Format] or [Printf], so a trace record can render a
    duration. *)

val to_string : t -> string
(** [t] as {!render} writes it. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)

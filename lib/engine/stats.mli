(** Streaming sample statistics (mean, stddev, min, max, percentiles),
    the telemetry layer's distribution summaries. *)

module Summary : sig
  type t

  val create : ?name:string -> unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val stddev : t -> float
  (** Population standard deviation; 0 with fewer than 2 samples. *)

  val min : t -> float
  val max : t -> float
  (** @raise Invalid_argument when empty. *)

  val percentile : t -> float -> float
  (** [percentile t 0.5] is the median (nearest-rank on sorted
      samples).  @raise Invalid_argument when empty or p outside
      [0,1]. *)

  val samples : t -> float list
  (** In insertion order. *)

  val pp : Format.formatter -> t -> unit
end

(** Metrics registry: named probes snapshotted into a versioned JSON
    time-series document.

    Two probe shapes exist.  {e Sampled} probes (gauges, custom
    samplers) are read on every {!sample} tick and accumulate
    [(sim-time, value)] points.  {e Snapshot} probes (adopted
    {!Engine.Stats.Summary} values) are rendered once, at {!to_json}
    time, into distribution summaries.

    Sampling only reads simulation state; attaching a registry and a
    periodic sampler never perturbs protocol behaviour. *)

type t

type series

val create : Engine.Sim.t -> t

val schema : string
(** The document's [schema] field: ["mmcast-telemetry/1"]. *)

(** {2 Sampled series} *)

val series : t -> ?unit_:string -> string -> series
(** Get or create a series by name, for pushing points directly.
    Getting an existing series again returns the same one.  The probe
    registrars below ({!gauge}, {!summary}, ...) instead {b reject} a
    name that is already taken — two probes feeding one series would
    silently interleave their points.
    @raise Invalid_argument from the registrars on a duplicate name. *)

val append : t -> series -> float -> unit
(** Record a point at the current simulation time. *)

val gauge : t -> ?unit_:string -> string -> (unit -> float) -> unit
(** Pull probe, read at every {!sample}. *)

val int_gauge : t -> ?unit_:string -> string -> (unit -> int) -> unit

val add_sampler : t -> (unit -> unit) -> unit
(** Custom hook run on every {!sample} tick, for probes that fan out
    into dynamically named series (e.g. the engine profiler, whose
    category set grows as the run discovers handlers). *)

(** {2 Snapshot distributions} *)

val summary : t -> ?unit_:string -> string -> Engine.Stats.Summary.t -> unit
(** Exported as count/mean/stddev/min/max and the p50/p90/p99
    nearest-rank percentiles. *)

(** {2 Sampling} *)

val sample : t -> unit
(** One synchronous tick: every sampled probe appends a point at the
    current simulation time. *)

val run_sampler : t -> every:Engine.Time.t -> until:Engine.Time.t -> unit
(** Schedule {!sample} every [every] simulated seconds, starting one
    period from now, through [until].
    @raise Invalid_argument when [every <= 0]. *)

val samples : t -> int
(** Ticks taken so far (direct {!sample} calls included). *)

val names : t -> string list
(** Every registered name — series first, then snapshot distributions —
    each group in registration order.  For tooling that enumerates
    what a run will export without rendering the document. *)

(** {2 Export} *)

val to_json : ?meta:(string * Json.t) list -> t -> Json.t
(** The full document: [schema], [meta] fields, every series with its
    points, every summary snapshot.  Series appear in
    registration order, points oldest first. *)

(** Discrete-event simulator.

    A [Sim.t] owns the clock and the event queue.  All protocol modules
    receive the simulator explicitly; there is no global state, so tests
    can run many independent simulations. *)

type t

type handle
(** A scheduled callback, usable with {!cancel}. *)

val create : ?seed:int -> unit -> t
(** Fresh simulator at time 0.  [seed] (default 42) seeds the root RNG
    from which per-component generators are split. *)

val now : t -> Time.t

val rng : t -> Rng.t
(** The simulator's root random stream.  Components that need
    independent streams should [Rng.split] it once at set-up. *)

val schedule_at : ?category:string -> t -> Time.t -> (unit -> unit) -> handle
(** [schedule_at sim t f] runs [f] when the clock reaches [t].
    [category] (default ["other"]) labels the event for the profiler;
    it costs nothing unless {!enable_profiling} was called.
    @raise Invalid_argument if [t] is in the past. *)

val schedule_after : ?category:string -> t -> Time.t -> (unit -> unit) -> handle
(** [schedule_after sim d f] runs [f] at [now sim + d]. *)

val cancel : t -> handle -> unit

val postpone : ?category:string -> t -> handle -> Time.t -> (unit -> unit) -> handle
(** [postpone sim h t f] re-schedules the pending callback [h] to run
    [f] at [t]; the result is the handle to keep.  Observably it is
    [cancel sim h] followed by [schedule_at sim t f] — same firing
    order, same event count, same profiling — but when [t] is strictly
    later than [h]'s deadline the event moves in place ({!Wheel.postpone})
    and [h] itself comes back, so a timer refreshed by every packet
    leaves no dead event behind.
    @raise Invalid_argument if [t] is in the past or [h] is no longer
    pending. *)

val pending : t -> int
(** Number of live scheduled callbacks. *)

val step : t -> bool
(** Execute the earliest event.  Returns [false] if the queue was
    empty.

    {b Same-timestamp ordering contract}: callbacks scheduled for the
    same instant fire in scheduling order (the queue's global push
    sequence breaks the tie — see {!Wheel.take}).
    When a decider is installed (see {!set_decider}) and several live
    events share the earliest timestamp, the decider picks which fires
    first instead ({!Wheel.pop_choice}); with no decider the front is
    taken as is ({!Wheel.take}), with no tie walk. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Drain the event queue.  With [until], stops once the next event
    would fire strictly after [until] and advances the clock to [until];
    an [until] before {!now} runs nothing and leaves the clock where it
    is, since the clock never moves backwards.  With [max_events], stops
    once {!events_executed} reaches it (a runaway guard for tests), and
    then leaves the clock at the last event run.

    Both paths of {!step} share one dispatch loop, which allocates
    nothing per event: it reads the front time and takes the payload
    without an option, and a decider's Order chooser is built once, by
    {!set_decider}. *)

val events_executed : t -> int

(** {2 Per-handler-category profiling}

    Off by default: the schedule/fire path is untouched until
    {!enable_profiling} is called, after which every event callback is
    timed with [clock] and accumulated under its scheduling category.
    The observability layer samples {!profile} into exported
    time-series. *)

type category_profile = {
  cat_events : int;  (** callbacks executed under this category *)
  cat_seconds : float;  (** clock time spent inside them *)
}

val enable_profiling : ?clock:(unit -> float) -> t -> unit
(** [clock] defaults to [Sys.time] (CPU seconds); pass a monotonic
    wall clock for latency-shaped measurements.  Only events scheduled
    {e after} this call are timed. *)

val disable_profiling : t -> unit

val profile : t -> (string * category_profile) list
(** Sorted by category name; empty when profiling is off. *)

(** {2 Controlled nondeterminism}

    A simulation's only sources of schedule freedom are (a) the order
    in which same-timestamp events fire, (b) bounded extra per-hop
    delivery delay ({!Net.Network}), and (c) fault placement jitter
    ({!Faults}).  Installing a {e decider} routes every such choice
    through one callback so a schedule explorer can enumerate, record,
    and replay interleavings.  With no decider installed (the default)
    every choice resolves to alternative [0] — the canonical schedule —
    and the hot path is byte-identical to a build without the hook. *)

type choice_kind =
  | Order  (** which of [arity] same-timestamp ties fires first; index is ascending push order, [0] = canonical *)
  | Delay  (** extra per-hop delivery delay slot; [0] = no extra delay *)
  | Fault  (** crash/restart placement jitter slot; [0] = as specified *)

type decider = kind:choice_kind -> arity:int -> int
(** Must return an alternative in [\[0, arity)]; out-of-range values
    are clamped.  Deciders are consulted only when [arity > 1], in a
    deterministic order fixed by the simulation, so a recorded decision
    sequence replays exactly. *)

val set_decider : t -> decider option -> unit
(** Install (or with [None] remove) the schedule decider. *)

val decider_active : t -> bool

(** {2 Causal packet-lineage collection}

    Off by default, same zero-cost discipline as {!enable_profiling}:
    until {!set_lineage} installs a {!Span.t} collector the
    instrumented per-packet paths run their original allocation-free
    code.  The collector never draws randomness, writes no trace
    records and adds no delays, so golden trace digests are identical
    with tracing on or off. *)

val set_lineage : t -> Span.t option -> unit
val lineage : t -> Span.t option
val lineage_active : t -> bool

val decide : t -> kind:choice_kind -> arity:int -> int
(** Consult the installed decider; [0] when none is installed or
    [arity <= 1].  Instrumented components (network delivery, fault
    installation) call this at their choice points. *)

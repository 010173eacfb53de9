(** The network's event trace, as a stream.

    Protocol modules record typed events here ({!event}), not text.  The
    trace does not keep them: the {!recent_capacity} newest sit in a
    fixed ring for {!recent} (the invariant monitor's violation
    excerpt), each record is folded into the run's {!digest} when the
    ring drops it, and {!on_record} observers see every record as it is
    written (the [mmcast_sim trace] command prints them, tests collect
    them).  Memory is one 16-byte digest partial per record, not the
    record itself.

    Cost: writing a record allocates the record and the event's own
    block, and renders nothing.  Folding renders it as
    ["%.9f|category|message\n"] straight into one reused {!Line.t} (the
    event by its registered renderer, the time by {!Line.add_fixed};
    no [Format] or [Printf]) and digests that to a 16-byte partial.
    Written and folded, a record costs 0.27 us ("sent general query",
    11 minor words) to 0.62 us ("assert sent", two addresses, 14
    words), against 0.56 us and 140 words, and 1.31 us and 278 words,
    when each message was first formatted with [Format] (best of 7
    runs of 400k records, 2-vCPU Xeon container, OCaml 5.1.1).  {!digest} folds the ring's records
    and hashes the partials once more.  The ring is allocated at the
    first record, so a trace nobody writes costs a few small blocks. *)

type event = ..
(** What happened, as a value.  Each protocol library adds its own
    constructors and {!register}s their renderer; nothing renders an
    event until its text is needed (the {!digest}'s fold, or display). *)

type record = {
  at : Time.t;
  category : string;  (** e.g. ["mld"], ["pim"], ["mipv6"], ["link"] *)
  event : event;
}

val register : (Line.t -> event -> bool) -> unit
(** [register render] adds a renderer: [render line e] appends [e]'s
    message to [line] and returns [true] if [e] is one of its
    constructors, else returns [false] and appends nothing.  Renderers
    are tried in registration order.  Call it while modules initialise:
    the registry is read without locks by every domain that runs a
    simulation.
    @raise Invalid_argument once any trace has been created. *)

val render : event -> string
(** The event's message, for display.
    @raise Invalid_argument if no renderer claims it. *)

val message : record -> string
(** [render r.event]. *)

type t

val create : Sim.t -> t

val record : t -> category:string -> event -> unit
(** Stamp the event with the current simulated time, put it in the
    ring, then call each {!on_record} observer.  Nothing is rendered
    here: the record is rendered once, into the trace's reused
    {!Line.t}, when it is folded into the digest. *)

val on_record : t -> (record -> unit) -> unit
(** Called synchronously on every later record, after it is counted,
    in registration order. *)

val recent_capacity : int
(** 12: the size of the {!recent} ring. *)

val recent : t -> record list
(** The last {!recent_capacity} records (fewer if the trace is
    shorter), {e newest first}. *)

val count : t -> int
(** Records written so far. *)

val digest : t -> string
(** Hex MD5 over the 16-byte MD5 partials of every record's rendering
    (time at fixed precision, category, message), oldest first.  Two
    traces digest equal iff they hold the same records at the same
    times — the golden-trace regression tests pin these per approach so
    a refactor that silently changes protocol behaviour fails loudly.
    O(number of records); recording may continue afterwards. *)

val pp_record : Format.formatter -> record -> unit
(** ["[time] category message"], the time by {!Time.render}. *)

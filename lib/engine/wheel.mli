(** Hierarchical timer wheel: a drop-in replacement for {!Event_queue}
    with identical observable semantics — pops come out in strictly
    increasing (time, push order), handles cancel exactly the event
    whose [push] returned them — but with O(1) placement and
    cancellation and near-O(1) extraction for the clustered,
    frequently-restarted deadlines protocol timers produce.

    Three levels of slots (1 s, 512 s, ~36 h of coverage at a 2^-10 s
    quantum) hold near-future deadlines; anything beyond the outermost
    window falls back to an overflow slot.  Each slot keeps its entries
    in (time, push order): a sorted run that takes every entry not
    before its tail in O(1), plus a small binary min-heap for the
    stragglers, and pops the earlier of the two heads.  Entries sharing
    a slot therefore drain in exact queue order and golden traces are
    bit-identical to the heap implementation's, while a flood's
    in-order deliveries cost no sifting.

    Slot records are allocated at the first placement into their index;
    until then every index shares one empty slot that is never written,
    so {!create} allocates three arrays and no per-slot record.  A slot
    clears every cell it vacates and gives back its arrays when it
    drains: a fired payload is never reachable from the wheel, and a
    cancelled one only until a scan or cascade drops its entry.

    Unlike {!Event_queue}, deadlines must not precede the time of the
    most recently popped event (the wheel's floor).  The simulator
    guarantees this — it never schedules in the past. *)

type 'a t

type 'a handle
(** Identifies a scheduled event so it can be cancelled or postponed.
    Handles are physical: a handle cancels exactly the event whose
    [push] returned it. *)

val create : unit -> 'a t

val push : 'a t -> Time.t -> 'a -> 'a handle
(** @raise Invalid_argument if [time] precedes the time of the most
    recently popped event. *)

val cancel : 'a t -> 'a handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val is_cancelled : 'a t -> 'a handle -> bool

val postpone : 'a t -> 'a handle -> Time.t -> 'a -> 'a handle
(** [postpone t h time payload] re-schedules the pending event [h] to
    fire [payload] at [time], with exactly the effect of [cancel t h]
    followed by [push t time payload]: the event is stamped with the
    next global push sequence number, so it pops after every event
    already scheduled for [time] and before every later push for it.

    When [time] is strictly later than [h]'s current deadline the
    event moves in place and [h] itself is returned: nothing is
    allocated, and no second entry waits in the wheel for the old
    deadline.  The stale placement is corrected lazily, when the entry
    reaches the head of its slot — always before any event it could
    now precede pops, because its old deadline is the earlier one.  Pops, {!front_count} and {!pop_kth} therefore
    see exactly what cancel + push would show them.

    An earlier or equal [time] falls back to cancel + push and returns
    the new handle.
    @raise Invalid_argument if [h] has fired or was cancelled, or (on
    the fallback) if [time] precedes the time of the most recently
    popped event. *)

val peek_time : 'a t -> Time.t option
(** Timestamp of the earliest live event, if any. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest live event.

    {b Same-timestamp ordering contract} (shared with {!Event_queue},
    pinned by golden trace digests): every push is stamped with a
    global, monotonically increasing sequence number, and pops come
    out in strictly increasing [(time, seq)] — events with equal
    timestamps are delivered in push order, regardless of which slot,
    level, or overflow heap physically holds them.  [pop] is
    equivalent to [pop_kth t 0]. *)

val front_count : 'a t -> int
(** Number of live events sharing the earliest timestamp — the arity
    of the schedule choice the next pop represents.  [0] iff the wheel
    is empty; [1] means the next pop is forced. *)

val pop_kth : 'a t -> int -> (Time.t * 'a) option
(** [pop_kth t k] removes and returns the [k]-th event (0-based, in
    global push order) among the live events sharing the earliest
    timestamp — the controlled-nondeterminism hook: a schedule
    explorer may deliver same-timestamp ties in any order, and every
    such order is legal for the protocols under test (see
    PROTOCOLS.md).  [pop_kth t 0] behaves exactly like {!pop}.
    Handles of unchosen ties stay live and cancellable.
    @raise Invalid_argument if [k < 0] or [k >= front_count t]. *)

val size : 'a t -> int
(** Number of live (non-cancelled) events. *)

val is_empty : 'a t -> bool

(** Hierarchical timer wheel: a drop-in replacement for a binary heap
    of timestamped events (the tests keep one as its oracle), with
    identical observable semantics — pops come out in strictly
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

    The 1 s level keeps an occupancy bitmap, one bit per slot, under the
    invariant {e a non-empty slot has its bit set}: placement sets the
    bit and only the scan for the front clears it, on finding the slot
    empty.  The scan therefore jumps between set bits instead of testing
    every slot of a sparse window.

    Slot records are allocated at the first placement into their index;
    until then every index shares one empty slot that is never written,
    so {!create} allocates three arrays and no per-slot record.  A slot
    clears every cell it vacates and gives back its arrays when it
    drains: a fired payload is never reachable from the wheel, and a
    cancelled one only until a scan or cascade drops its entry.

    Unlike the heap, deadlines must not precede the time of the
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
    now precede pops, because its old deadline is the earlier one.
    {!take} and {!pop_choice} therefore see exactly what cancel + push
    would show them.

    An earlier or equal [time] falls back to cancel + push and returns
    the new handle.
    @raise Invalid_argument if [h] has fired or was cancelled, or (on
    the fallback) if [time] precedes the time of the most recently
    popped event. *)

val front_time : 'a t -> Time.t
(** Timestamp of the earliest live event.
    @raise Invalid_argument if the wheel is empty. *)

val take : 'a t -> 'a
(** Remove the earliest live event and return its payload; its time is
    what {!front_time} answered just before.  Neither call allocates.

    {b Same-timestamp ordering contract} (shared with the heap oracle,
    pinned by golden trace digests): every push is stamped with a
    global, monotonically increasing sequence number, and takes come
    out in strictly increasing [(time, seq)] — events with equal
    timestamps are delivered in push order, regardless of which slot,
    level, or overflow heap physically holds them.
    @raise Invalid_argument if the wheel is empty. *)

val pop_choice : 'a t -> (int -> int) -> 'a
(** [pop_choice t choose] removes one of the [n] live events sharing
    the earliest timestamp and returns its payload — the
    controlled-nondeterminism hook: a schedule explorer may deliver
    same-timestamp ties in any order, and every such order is legal for
    the protocols under test (see PROTOCOLS.md).

    When [n > 1] it takes the [choose n]-th tie, counting from 0 in
    global push order, so [0] is what {!take} would return; a lone front
    ([n = 1]) is taken without calling [choose].  The ties are gathered
    into buffers the wheel reuses, already in push order, so a call
    allocates nothing once those buffers have grown to the largest [n]
    seen, and they keep no reference to a popped entry.  Handles of
    unchosen ties stay live and cancellable.
    @raise Invalid_argument if the wheel is empty or [choose n] is
    outside [\[0, n)]. *)

val size : 'a t -> int
(** Number of live (non-cancelled) events. *)

val is_empty : 'a t -> bool

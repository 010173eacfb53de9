(** Priority queue of timestamped events with O(log n) insertion and
    extraction and O(1) cancellation (lazy deletion): the binary heap
    the simulator ran on before {!Engine.Wheel}, kept as the wheel's
    test oracle.

    {b Same-timestamp ordering contract} (shared with {!Engine.Wheel}, pinned
    by golden trace digests): every push is stamped with a global,
    monotonically increasing sequence number, and pops come out in
    strictly increasing [(time, seq)] — events with equal timestamps
    are delivered in insertion order.  {!pop_kth} is the only sanctioned
    way to deviate, and then only among same-timestamp ties.

    The queue does no hashing: a handle is a one-word lifecycle cell
    shared with the heap entry, so the schedule/fire cycle costs one
    record allocation and heap sifts, nothing else. *)

type 'a t

type handle
(** Identifies a scheduled event so it can be cancelled.  Handles are
    physical: a handle cancels exactly the event whose [push] returned
    it. *)

val create : unit -> 'a t

val push : 'a t -> Engine.Time.t -> 'a -> handle

val cancel : 'a t -> handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val is_cancelled : 'a t -> handle -> bool

val peek_time : 'a t -> Engine.Time.t option
(** Timestamp of the earliest live event, if any. *)

val pop : 'a t -> (Engine.Time.t * 'a) option
(** Remove and return the earliest live event.  Equivalent to
    [pop_kth t 0]. *)

val front_count : 'a t -> int
(** Number of live events sharing the earliest timestamp.  [0] iff the
    queue is empty; [1] means the next pop is forced. *)

val pop_kth : 'a t -> int -> (Engine.Time.t * 'a) option
(** [pop_kth t k] removes and returns the [k]-th event (0-based, in
    push order) among the live events sharing the earliest timestamp.
    [pop_kth t 0] behaves exactly like {!pop}.  Handles of unchosen
    ties stay live and cancellable.
    @raise Invalid_argument if [k < 0] or [k >= front_count t]. *)

val size : 'a t -> int
(** Number of live (non-cancelled) events. *)

val is_empty : 'a t -> bool

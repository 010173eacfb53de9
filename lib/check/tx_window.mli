(** The forwarding-loop counter: how many times each recent datagram
    crossed each (channel, link).

    A datagram is a (stream id, sequence number) pair of a channel
    ({!Net.Ids.Channel_id}).  Each (channel, link) keeps a ring of the
    {!size} datagrams that crossed it most recently, first crossings in
    order, with a count each; a datagram new to the ring takes the slot
    of the oldest.  A count is therefore exact as long as fewer than
    {!size} other datagrams first crossed the same (channel, link) since
    this one first did — a loop re-crosses its links within a few
    datagrams of the stream, and a copy that comes later starts a fresh
    count.  Memory is bounded by the (channel, link) pairs that carried
    data, not by the traffic volume. *)

type t

val size : int
(** Datagrams remembered per (channel, link). *)

val create : links:int -> t
(** An empty counter for link ids below [links] (higher ids grow it).
    Allocates nothing per channel until that channel's first crossing. *)

val bump : t -> chan:int -> link:int -> stream:int -> seq:int -> int
(** Count one crossing and return how many times the datagram crossed
    the link, this one included.  [chan] and [link] are non-negative. *)

val clear : t -> unit
(** Forget every count and release the rings. *)

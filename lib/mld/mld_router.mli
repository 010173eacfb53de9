(** Router side of MLD, one instance per router interface.

    Implements querier election (lowest link-local address wins),
    periodic General Queries, the listener database with its
    Multicast-Listener-Interval timers, and the Done /
    group-specific-query dance.  The multicast routing protocol is
    notified through {!callbacks} when the first listener for a group
    appears on the link or the last one times out — the notification
    boundary between MLD and PIM-DM that Section 3.2 of the paper
    describes. *)

open Ipv6

type callbacks = {
  listener_added : Addr.t -> unit;
  listener_removed : Addr.t -> unit;
}

type t

val create : Mld_env.t -> callbacks -> t

val start : t -> unit
(** Assume querier role and begin sending (startup) General Queries. *)

val stop : t -> unit
(** Cancel all timers and forget state (interface going down). *)

val handle : t -> src:Addr.t -> Mld_message.t -> unit
(** Process a received MLD message. *)

val groups : t -> Addr.t list
(** Groups with live listeners on this interface, sorted. *)

val has_listeners : t -> Addr.t -> bool

val is_querier : t -> bool

val is_running : t -> bool
(** Between {!start} and {!stop}. *)

val generation : t -> int
(** A counter that moves on every change to {!is_querier} or
    {!is_running}: {!start}, {!stop}, deferring to a lower-address
    querier and the Other-Querier-Present takeover.  While it stands
    still, both read as they did (the invariant monitor re-derives a
    link's querier set only when one of its routers' counters moved). *)

val listener_deadline : t -> Addr.t -> Engine.Time.t option
(** When the group's membership would expire absent further Reports
    (used by tests to check the leave-delay bound). *)

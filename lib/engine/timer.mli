(** Restartable one-shot timers.

    Protocol state machines (MLD group membership timers, PIM prune and
    (S,G) expiry timers, Mobile IPv6 binding lifetimes) are expressed as
    timers that are (re)started and stopped; restarting an armed timer
    replaces its previous expiry. *)

type t

val create : ?category:string -> Sim.t -> name:string -> on_expire:(unit -> unit) -> t
(** The timer starts disarmed.  [name] appears in traces and error
    messages; [category] (default ["timer"]) labels the expiry events
    for {!Sim.profile}. *)

val start : t -> Time.t -> unit
(** Arm (or re-arm) the timer to fire after the given duration.

    Re-arming an armed timer is exactly a stop followed by a fresh
    start: the expiry event takes the next scheduling sequence number,
    so it fires after every event already scheduled for the same
    instant and before every one scheduled later.  It is done with
    {!Sim.postpone}, which moves the pending event in place when the
    new expiry is later — the common case of a timeout refreshed by
    traffic, such as PIM's (S,G) data timeout on every datagram — so a
    restart allocates nothing beyond the new expiry time and leaves no
    dead event in the queue. *)

val stop : t -> unit
(** Disarm; a no-op if not armed. *)

val is_armed : t -> bool

val expiry : t -> Time.t option
(** Absolute expiry time when armed. *)

val remaining : t -> Time.t option
(** Time left until expiry when armed. *)

val name : t -> string

(** Deterministic fault injection.

    A fault {e schedule} is a declarative list of impairments — loss,
    duplication and reordering windows on links, link flaps, network
    partitions, and router crash/restart cycles — that {!install}
    compiles into simulator events.  The events flip the fault knobs of
    {!Net.Network} (and invoke caller-supplied crash handlers for
    nodes) at the scheduled times, so the protocols under test observe
    faults exactly as the RFCs assume: a lost PIM Graft is simply never
    delivered and the sender's Graft retry timer must recover it, a
    crashed router loses its RAM, a flapped link destroys frames in
    flight.

    {b Determinism.}  All fault randomness (which particular deliveries
    a loss window kills, etc.) draws from RNG streams derived from the
    simulation seed without perturbing the streams handed to protocol
    components ({!Engine.Rng.derive}), so a seeded fault scenario is
    bit-for-bit reproducible and comparable to its fault-free twin.

    The schedule also yields {!marks} — labelled instants at which a
    disruption begins or ends — which the recovery-metrics layer uses
    to measure time-to-reconverge per fault. *)

open Net

type spec =
  | Loss_window of {
      link : Ids.Link_id.t;
      rate : float;  (** per-delivery loss probability in [0,1] *)
      from_t : Engine.Time.t;
      until : Engine.Time.t;
    }
  | Duplicate_window of {
      link : Ids.Link_id.t;
      rate : float;
      from_t : Engine.Time.t;
      until : Engine.Time.t;
    }
  | Reorder_window of {
      link : Ids.Link_id.t;
      rate : float;
      jitter : Engine.Time.t;  (** max extra delivery delay *)
      from_t : Engine.Time.t;
      until : Engine.Time.t;
    }
  | Corrupt_window of {
      link : Ids.Link_id.t;
      rate : float;
          (** per-delivery probability that 1–3 bytes of the encoded
              frame are bit-flipped before the receiver decodes it *)
      from_t : Engine.Time.t;
      until : Engine.Time.t;
    }
  | Link_flap of {
      link : Ids.Link_id.t;
      down_at : Engine.Time.t;
      up_at : Engine.Time.t;
    }
  | Partition of {
      links : Ids.Link_id.t list;  (** all down together: a network split *)
      from_t : Engine.Time.t;
      until : Engine.Time.t;
    }
  | Crash of {
      node : Ids.Node_id.t;
      at : Engine.Time.t;
      recover_at : Engine.Time.t option;  (** [None]: stays dead *)
    }

type schedule = spec list

(* Constructors, for readable schedules. *)
val loss_window :
  link:Ids.Link_id.t -> rate:float -> from_t:Engine.Time.t -> until:Engine.Time.t -> spec

val duplicate_window :
  link:Ids.Link_id.t -> rate:float -> from_t:Engine.Time.t -> until:Engine.Time.t -> spec

val reorder_window :
  link:Ids.Link_id.t ->
  rate:float ->
  jitter:Engine.Time.t ->
  from_t:Engine.Time.t ->
  until:Engine.Time.t ->
  spec

val corrupt_window :
  link:Ids.Link_id.t -> rate:float -> from_t:Engine.Time.t -> until:Engine.Time.t -> spec

val link_flap : link:Ids.Link_id.t -> down_at:Engine.Time.t -> up_at:Engine.Time.t -> spec
val partition : links:Ids.Link_id.t list -> from_t:Engine.Time.t -> until:Engine.Time.t -> spec
val crash : ?recover_at:Engine.Time.t -> node:Ids.Node_id.t -> at:Engine.Time.t -> unit -> spec

val validate : schedule -> unit
(** @raise Invalid_argument on a rate outside [0,1], a negative time or
    jitter, an empty partition, or a window whose end does not follow
    its start. *)

(** A labelled instant a disruption begins or ends, e.g.
    ["loss(L3)+"], ["flap(L3) down"], ["crash(D) restart"].  Recovery
    metrics measure reconvergence from marks; repair marks (link back
    up, router restarted) are the usual anchors for protocol-recovery
    time, onset marks for outage time. *)
type mark = {
  fault_label : string;
  fault_at : Engine.Time.t;
  repair : bool;  (** true when the mark is the end of a disruption *)
}

val marks : Topology.t -> schedule -> mark list
(** Chronological; purely a function of the schedule (available before
    the simulation runs). *)

(** What to do to a node when a [Crash] fires; the core layer maps
    these to [Router_stack.fail]/[recover]. *)
type handlers = {
  crash_node : Ids.Node_id.t -> unit;
  recover_node : Ids.Node_id.t -> unit;
}

(** {1 Trace events}

    What {!install}'s scheduled changes record (category ["fault"]);
    links and nodes appear by name. *)

type window =
  | Loss
  | Duplication
  | Reordering of { jitter : string }
      (** the maximum extra delay, in seconds as ["%g"] renders it,
          rendered once by {!install} *)
  | Corruption

type Engine.Trace.event +=
  | Window_opened of { window : window; link : string; rate : float }
      (** "loss 0.20 on L", "duplication ...", "corruption ...", or
          "reordering 0.20 (max +0.05s) on L": the rate as ["%.2f"] *)
  | Window_closed of { window : window; link : string }
      (** "loss window on L closed", "duplication window ...", "reorder
          window ...", "corruption window ..." *)
  | Crashed of string  (** the node; "crash N" *)
  | Restarted of string  (** the node; "restart N" *)

type t

val install : Network.t -> handlers:handlers -> schedule -> t
(** Validates, then schedules every state change on the network's
    simulator.  Loss/duplication/reorder windows save the link's
    previous setting when they open and restore it when they close, so
    a window composes with an ambient rate set directly on the network.
    A schedule containing a [Corrupt_window] turns on the network's
    wire-check delivery mode for the whole run (corruption needs
    byte-exact frames to damage).  Every applied change is recorded in
    the network trace under category ["fault"].

    When the simulator has a decider installed
    ({!Engine.Sim.set_decider}), each [Crash] spec consults two [Fault]
    choice points at install time: one nudges the crash instant later
    (capped so it still precedes recovery), one stretches the outage.
    Slot 0 of both keeps the specified placement, so with no decider
    the schedule is applied exactly as written.
    @raise Invalid_argument if the schedule is invalid or starts in the
    simulator's past. *)

val schedule_of : t -> schedule
val marks_of : t -> mark list
val events_fired : t -> int
(** Fault state changes applied so far. *)

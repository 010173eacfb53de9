(** Link-layer packet delivery.

    Links are multi-access (Ethernet-like): a frame is addressed either
    to one attached node or to all of them.  IPv6 multicast and
    link-scope control traffic (MLD, PIM) map to {!constructor-To_all};
    routed unicast resolves the next hop to a node and uses
    {!constructor-To_node}.

    The network also keeps the address-ownership table.  Nodes claim
    addresses on links (their autoconfigured address, a mobile host's
    care-of address) and release them when they move away; a home agent
    defending a mobile host's home address claims it as a proxy, which
    is how interception of home-bound traffic is modelled.

    Per-link counters record every transmitted packet and its size, and
    an observer hook lets the metrics layer classify traffic without
    the protocol code knowing about metrics.

    The per-packet path is engineered for sweep throughput: counters
    are mutable records in an array by link id, receive handlers an
    array by node id, and a network on which no fault was ever
    installed skips the fault-condition machinery entirely.  Every
    data-bearing transmission carries a dense {!Ids.Channel_id}, which
    the observers and receivers index their own per-packet state by. *)

open Ipv6

type t

type l2_dest =
  | To_node of Ids.Node_id.t
  | To_all  (** every other node attached to the link *)

type link_stats = {
  packets : int;
  bytes : int;
  data_bytes : int;  (** application payload bytes (tunnels unwrapped) *)
}

val create : Engine.Sim.t -> Topology.t -> t

val sim : t -> Engine.Sim.t
val topology : t -> Topology.t
val routing : t -> Routing.t
val trace : t -> Engine.Trace.t

type handler =
  link:Ids.Link_id.t -> from:Ids.Node_id.t -> chan:Ids.Channel_id.t -> Packet.t -> unit
(** A node's receive callback.  [chan] is the received packet's
    {!channel}. *)

val set_handler : t -> Ids.Node_id.t -> handler -> unit
(** At most one handler per node; setting again replaces it. *)

val channel : t -> Packet.t -> Ids.Channel_id.t
(** The packet's channel: {!Ids.Channel_id.none} for a control message
    (an MLD, PIM, ND or empty payload), otherwise a network-wide dense
    id of its address part — (source, group) for a multicast
    destination, the destination for a unicast tunnelled packet, and
    (source, destination) for other unicast — interned on first sight.
    Transmission interns once per fan-out: a router's transmits of the
    packet it just received, or of a copy with the same addresses, read
    the channel from a memo; other calls hash the address part once. *)

val transmit : t -> from:Ids.Node_id.t -> link:Ids.Link_id.t -> l2_dest -> Packet.t -> unit
(** Put a packet on a link.  Delivery callbacks fire after the link's
    propagation delay plus the serialization time
    (8·bytes / bandwidth); nodes that detach in between miss the packet
    (a handoff drops in-flight frames).  Transmitting from a detached
    node is a silent drop, counted in {!drops}. *)

val group_attrs : t -> Addr.t -> (string * string) list
(** The lineage attribute list [[("group", address)]] of a multicast
    group, built once per network and group so that every span naming
    the group can share it.  Call it only while lineage is on. *)

(** {2 Fault injection}

    Per-link impairments, driven declaratively by the [Faults] library
    but also settable directly.  Fault randomness draws from streams
    that are {e derived} from (not split off) the root stream, so a run
    with faults enabled hands every protocol component the same RNG
    streams as the fault-free run with the same seed. *)

val set_loss_rate : t -> Ids.Link_id.t -> float -> unit
(** Failure injection: each delivery on the link is independently lost
    with this probability (per receiver, so one multicast frame may
    reach some listeners and miss others).  0 by default.
    @raise Invalid_argument outside [0, 1]. *)

val loss_rate : t -> Ids.Link_id.t -> float

val set_duplicate_rate : t -> Ids.Link_id.t -> float -> unit
(** Each (per-receiver) delivery is independently duplicated with this
    probability — both copies arrive, modelling L2 retransmit glitches.
    0 by default.  @raise Invalid_argument outside [0, 1]. *)

val duplicate_rate : t -> Ids.Link_id.t -> float

val set_reorder : t -> Ids.Link_id.t -> rate:float -> jitter:Engine.Time.t -> unit
(** Each delivery is independently delayed by an extra uniform draw
    from [(0, jitter)] with probability [rate], letting later frames
    overtake it.  @raise Invalid_argument for rate outside [0, 1] or
    negative jitter. *)

val set_corrupt_rate : t -> Ids.Link_id.t -> float -> unit
(** Each delivery is independently damaged with this probability: in
    wire-check mode 1–3 random bytes of the encoded frame are
    bit-flipped before the receiver decodes it.  Damage in a
    checksummed or length-checked region makes the decoder reject the
    frame (counted in {!malformed_drops}); damage elsewhere — e.g. the
    unprotected IPv6 header — silently alters the packet, as on a real
    wire.  Has no effect unless {!set_wire_check} is on.  0 by default.
    @raise Invalid_argument outside [0, 1]. *)

val corrupt_rate : t -> Ids.Link_id.t -> float

val set_wire_check : t -> bool -> unit
(** Wire-exactness mode: every delivery goes through a byte-exact
    [Codec.encode]/[Codec.decode] round trip (optionally corrupted in
    between, {!set_corrupt_rate}) before the receiver's handler runs —
    so receivers only ever see what the byte-exact frame decodes to,
    and frames the decoder rejects are dropped-and-counted like a real
    stack discarding a bad frame.  The round trip is interned per
    transmission ({!Codec.Frame}): one encode and one decode are shared
    by all receivers of an uncorrupted frame, while corruption
    injection copies the shared frame before damaging it.  Off by
    default (structural delivery, the fast path). *)

val wire_check : t -> bool

val malformed_drops : t -> Ids.Node_id.t -> int
(** Frames dropped at this receiver because [Codec.decode] rejected
    them (wire-check mode only). *)

val total_malformed_drops : t -> int

val set_delay_exploration : t -> slots:int -> max_extra:Engine.Time.t -> unit
(** Schedule exploration: when [slots > 1] {e and} the simulator has a
    decider installed ({!Engine.Sim.set_decider}), every per-receiver
    delivery consults a [Delay] choice point of arity [slots]; choosing
    slot [k] adds [k * max_extra / (slots - 1)] of extra latency on top
    of the computed link delay (slot 0 = the canonical delay).  With no
    decider, or [slots = 1] (the default), delivery timing is
    untouched.
    @raise Invalid_argument if [slots < 1] or [max_extra < 0]. *)

val set_link_up : t -> Ids.Link_id.t -> bool -> unit
(** Link flap: while a link is down, transmissions onto it are blocked
    (silently for the sender, as a real carrier loss would be to these
    protocols) and frames still in flight on it are destroyed.  State
    changes are recorded in the trace under category ["fault"]. *)

val link_is_up : t -> Ids.Link_id.t -> bool
(** True unless {!set_link_up} turned the link down. *)

val impaired_links : t -> int
(** Links currently down or with a non-zero loss, duplication,
    reordering or corruption rate; O(1).  Zero means every link
    behaves as an untouched one, so a reader polling link conditions
    can skip the per-link scan. *)

val losses : t -> int
(** Deliveries suppressed by loss injection so far. *)

val duplicates_injected : t -> int
(** Extra deliveries created by duplication injection so far. *)

val reordered : t -> int
(** Deliveries given extra reordering delay so far. *)

val blocked : t -> int
(** Transmissions and in-flight deliveries killed by a down link. *)

val claim_address : t -> Ids.Node_id.t -> link:Ids.Link_id.t -> Addr.t -> unit
(** Later claims replace earlier ones (a proxy claim by a home agent
    can be superseded by the host returning home and re-claiming). *)

val release_address : t -> Ids.Node_id.t -> link:Ids.Link_id.t -> Addr.t -> unit
(** Releases only if the node is the current owner. *)

val resolve : t -> link:Ids.Link_id.t -> Addr.t -> Ids.Node_id.t option
(** Who answers for this address on this link (neighbour discovery). *)

val addresses_of : t -> Ids.Node_id.t -> (Ids.Link_id.t * Addr.t) list

val link_stats : t -> Ids.Link_id.t -> link_stats
val total_stats : t -> link_stats
val drops : t -> int

val add_transmit_observer : t -> (Ids.Link_id.t -> Ids.Channel_id.t -> Packet.t -> unit) -> unit
(** Called synchronously on every transmit, with the packet's
    {!channel}, before delivery, in registration order.  Registration
    is O(1) amortized. *)

val add_frame_observer :
  t ->
  (link:Ids.Link_id.t -> from:Ids.Node_id.t -> dest:l2_dest -> Codec.Frame.t -> unit) ->
  unit
(** Like {!add_transmit_observer} but also sees the transmitting node
    and the L2 destination — the packet-capture layer's hook, whose
    per-node filters need the sender.  The observer receives the
    transmission's interned {!Codec.Frame} cell: forcing it shares the
    one encode with wire-check deliveries of the same transmission, and
    the shared bytes must not be mutated.  Zero per-packet cost while
    no frame observer is registered. *)

val reset_stats : t -> unit

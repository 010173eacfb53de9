(** PIM Dense Mode router (draft-ietf-pim-v2-dm-03 subset).

    Implements the broadcast-and-prune algorithm the paper describes in
    Section 3.1:

    {ul
    {- (S,G) state created on arrival of the first datagram, with the
       reverse-path interface as incoming interface and a data timeout
       (210 s) after which silent state is deleted;}
    {- flooding to all interfaces with PIM neighbours or MLD listeners
       (optionally also to empty leaf links for the first datagram, see
       {!Pim_config.t.flood_to_leaf_links});}
    {- Prunes from downstream routers, held for the Prune Delay Time
       TPruneDel so that other routers on the LAN can override with a
       Join;}
    {- Grafts (with Graft-Ack and retransmission) to re-attach pruned
       branches when a listener appears, cascading upstream;}
    {- the Assert process electing a single forwarder per LAN when a
       datagram is received on an outgoing interface.}}

    One instance per router; interfaces are the small integers of
    {!Pim_env.iface}. *)

open Ipv6

type t

val create : Pim_env.t -> t

val start : t -> unit
(** Send initial Hellos and begin periodic ones. *)

val stop : t -> unit

val handle_message : t -> iface:Pim_env.iface -> src:Addr.t -> Pim_message.t -> unit

val handle_data : t -> iface:Pim_env.iface -> chan:int -> Packet.t -> unit
(** Process a multicast data packet received on an interface.  The
    packet's source/destination define the (S,G) pair.  [chan] is the
    network's dense channel id of that pair ([Net.Network.channel]), or
    a negative number when the caller has none: the router keeps its
    entries in an array by channel, so the per-datagram lookup is an
    array read instead of a hash of the (S,G) key. *)

val local_members_changed : t -> iface:Pim_env.iface -> group:Addr.t -> present:bool -> unit
(** MLD notification hook (listener appeared / disappeared on a
    link). *)

val interface_added : t -> iface:Pim_env.iface -> unit
(** A new interface appeared after (S,G) state already existed (a home
    agent's virtual tunnel interface): add it to the outgoing lists of
    existing entries.  Idempotent. *)

(** Introspection for tests and for drawing distribution trees. *)

type oif_info = {
  oif : Pim_env.iface;
  forwarding : bool;  (** would data be replicated here right now? *)
  pruned : bool;
  assert_lost : bool;
}

type entry_info = {
  source : Addr.t;
  group : Addr.t;
  iif : Pim_env.iface;
  upstream : Addr.t option;
  oifs : oif_info list;
}

val entries : t -> (Addr.t * Addr.t) list
(** Live (S,G) pairs, sorted. *)

val entry_info : t -> source:Addr.t -> group:Addr.t -> entry_info option

val neighbors : t -> iface:Pim_env.iface -> Addr.t list
(** Live PIM neighbours on an interface, sorted. *)

val has_neighbors : t -> Pim_env.iface -> bool
(** [neighbors t ~iface <> []], in O(1): a per-interface count kept on
    neighbour discovery, expiry and {!stop}. *)

val is_forwarding : t -> source:Addr.t -> group:Addr.t -> iface:Pim_env.iface -> bool

(** {1 Read-only snapshots}

    Plain immutable values describing the router's assert / prune /
    graft state, extracted for the runtime invariant monitor
    ([Check.Monitor]).  Taking a snapshot never mutates protocol state
    and the returned values share no mutable structure with it. *)

type upstream_snapshot =
  | Up_joined  (** expecting data from upstream *)
  | Up_pruned  (** this router pruned itself off the tree *)
  | Up_grafting  (** Graft sent, Graft-Ack still outstanding *)

type oif_snapshot = {
  snap_oif : Pim_env.iface;
  snap_forwarding : bool;  (** would data be replicated here right now? *)
  snap_prune_pending : bool;  (** inside the TPruneDel override window *)
  snap_pruned : bool;
  snap_assert_winner : Addr.t option;
      (** address of the router this one lost the Assert to, if any *)
}

type entry_snapshot = {
  snap_source : Addr.t;
  snap_group : Addr.t;
  snap_iif : Pim_env.iface;
  snap_upstream : Addr.t option;
      (** current upstream neighbour (RPF choice, possibly
          assert-overridden) *)
  snap_upstream_state : upstream_snapshot;
  snap_oifs : oif_snapshot list;  (** sorted by interface *)
}

val snapshot : t -> entry_snapshot list
(** Every live (S,G) entry, sorted by (source, group). *)

val generation : t -> int
(** A counter that moves on every change {!snapshot} could observe:
    entry creation and expiry, prune, assert, leaf-flood and upstream
    transitions, neighbour discovery and expiry, interface addition,
    every {!local_members_changed} call, {!start} and {!stop}.  While it
    stands still, {!snapshot} returns an equal value, so a reader may
    keep the previous one; the router itself keeps each entry's
    outgoing-interface list the same way instead of recomputing it per
    datagram.  The environment must therefore report every change of
    {!Pim_env.t.has_local_members} through {!local_members_changed},
    removals included. *)

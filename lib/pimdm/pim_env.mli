(** Execution environment of a PIM-DM router.

    Interfaces are small integers assigned by the node stack (they map
    1:1 to the links the router is attached to).  All interaction with
    the outside — transmitting messages, forwarding data packets,
    unicast routing lookups, MLD membership — goes through these
    callbacks, keeping the state machine testable in isolation. *)

open Ipv6

type iface = int

type rpf_result = {
  rpf_iface : iface;
  upstream : Addr.t option;
      (** Link-local address of the next router toward the source;
          [None] when the source's subnet is directly attached. *)
  metric : int;  (** Unicast distance to the source, for Asserts. *)
}

type t = {
  sim : Engine.Sim.t;
  trace : Engine.Trace.t;
  rng : Engine.Rng.t;
  config : Pim_config.t;
  label : string;
  interfaces : unit -> iface list;
  local_address : iface -> Addr.t;
      (** This router's link-local address on an interface. *)
  send_message : iface -> Pim_message.t -> unit;
      (** Emit a PIM control message on an interface (link scope, to
          all PIM routers). *)
  forward_data : iface -> Packet.t -> unit;
      (** Replicate a multicast data packet onto an interface. *)
  rpf : source:Addr.t -> rpf_result option;
  has_local_members : iface -> Addr.t -> bool;
      (** MLD listener database lookup. *)
  flood_eligible : iface -> bool;
      (** Whether {!Pim_config.t.flood_to_leaf_links} applies to this
          interface.  Physical links say true; virtual tunnel
          interfaces towards mobile nodes say false, so the initial
          flood never enters a tunnel whose mobile node is not
          subscribed. *)
}

val trace : t -> Engine.Trace.event -> unit

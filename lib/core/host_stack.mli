(** A complete (mobile) host node.

    Combines an application endpoint (multicast sender/receiver), the
    host side of MLD, and Mobile IPv6 mobility.  The configured
    {!Approach.t} selects, per the paper's Table 1, how multicast
    datagrams are sent and received while the host is on a foreign
    link.

    Movement model (paper, section 4.3.1): {!move_to} reattaches the
    host at the link layer immediately, but the IP stack only learns of
    the movement after the configured movement-detection delay.  Until
    then a sender keeps using its previous source address — the
    "erroneous IPv6 source address" that triggers the unwanted Assert
    processes the paper analyses.  After detection the host forms its
    care-of address, registers with its home agent (including the
    Multicast Group List Sub-Option when the approach calls for it) and
    re-establishes its group memberships. *)

open Ipv6
open Net

type detection_mode =
  | Fixed_delay
      (** Movement is detected a fixed time after the link-layer
          handoff ({!Mipv6.Mipv6_config.t.movement_detection_delay}) —
          the paper's abstraction. *)
  | Router_advertisements
      (** Movement is detected when the first Router Advertisement of
          the new link arrives; requires routers configured with
          {!Router_stack.config.ra_interval}. *)

type config = {
  approach : Approach.t;
  mld : Mld.Mld_config.t;
  mipv6 : Mipv6.Mipv6_config.t;
  ha_mode : Router_stack.ha_mode;
      (** Must match the home agent's mode: selects whether tunnel
          receivers signal groups via Binding Updates or via MLD
          through the tunnel. *)
  detection : detection_mode;
  use_ha_service_address : bool;
      (** Register with the home link's well-known home-agents service
          address instead of a specific router — required when the
          network runs redundant home agents
          ({!Router_stack.config.ha_failover}). *)
}

val default_config : config

type t

val create :
  ?home_agent:Addr.t -> Network.t -> Ids.Node_id.t -> home_link:Ids.Link_id.t -> config -> t
(** The node must already be attached to its home link.  [home_agent]
    names the agent to register with; it defaults to the link's
    service address when [use_ha_service_address] is set, and to the
    lowest-numbered router on the home link otherwise (real networks
    advertise it; the scenario layer passes the serving router
    explicitly). *)

val start : t -> unit

val node_id : t -> Ids.Node_id.t
val name : t -> string
val load : t -> Load.t
val config : t -> config
val mobile : t -> Mipv6.Mobile_node.t

val home_address : t -> Addr.t
val home_link : t -> Ids.Link_id.t
val current_link : t -> Ids.Link_id.t
val current_source_address : t -> Addr.t
(** The address the host would use as source right now — stale during
    the movement-detection window. *)

val at_home : t -> bool

val subscribe : t -> Addr.t -> unit
(** Application-level group membership; survives movements. *)

val unsubscribe : t -> Addr.t -> unit

val subscriptions : t -> Addr.Set.t
(** The groups subscribed to, as the set the host keeps: an unchanged
    subscription reads back as the same set. *)

val send_data : t -> group:Addr.t -> bytes:int -> unit
(** Send one multicast datagram (stream id is derived from the node
    id, sequence numbers are automatic). *)

val move_to : t -> Ids.Link_id.t -> unit
(** Handoff to another link (possibly back home). *)

val set_on_data : t -> (group:Addr.t -> Packet.t -> unit) -> unit
(** The application's single receive callback; setting again replaces
    it. *)

val add_data_observer : t -> (group:Addr.t -> Packet.t -> unit) -> unit
(** Instrumentation hook: called on every fresh (non-duplicate)
    datagram, before and independently of {!set_on_data}.  Observers
    accumulate — the recovery-metrics layer uses this so it never
    steals the application callback. *)

(* Receiver-side instrumentation *)

val received_count : t -> group:Addr.t -> int
val duplicate_count : t -> group:Addr.t -> int
(** Datagrams that arrived more than once (e.g. both locally and
    through a tunnel). *)

val arrivals : t -> group:Addr.t -> int
(** [received_count + duplicate_count] from one lookup, allocating
    nothing. *)

val last_attach_time : t -> Engine.Time.t
val first_rx_after_attach : t -> group:Addr.t -> Engine.Time.t option
(** Time of the first datagram for the group since the last
    {!move_to} — [first_rx_after_attach - last_attach_time] is the
    paper's join delay. *)

val data_sent : t -> int

val stop : t -> unit

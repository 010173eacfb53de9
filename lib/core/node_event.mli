(** The host and router stacks' trace events (category ["node"]).

    Each carries the node's label and renders as ["label: message"];
    links appear by name. *)

open Ipv6

type Engine.Trace.event +=
  (* host *)
  | No_on_link_neighbour of { label : string; dst : Addr.t }
      (** "no on-link neighbour for ADDR" *)
  | No_router of { label : string; link : string }  (** "no router on L" *)
  | Movement_detected of { label : string; link : string }
      (** "movement detected via router advertisement on L" *)
  | Back_home of { label : string; link : string }  (** "back home on L" *)
  | Care_of_address of { label : string; care_of : Addr.t; link : string }
      (** "care-of address ADDR on L" *)
  | Handoff of { label : string; from_link : string; to_link : string }
      (** "handoff L1 -> L2" *)
  (* router *)
  | No_neighbour of { label : string; dst : Addr.t }  (** "no neighbour for ADDR, dropped" *)
  | Unreachable of { label : string; dst : Addr.t }  (** "unreachable ADDR, dropped" *)
  | Hop_limit_exceeded of { label : string; dst : Addr.t }  (** "hop limit exceeded for ADDR" *)
  | Reverse_tunnel_not_home of { label : string; src : Addr.t }
      (** "reverse-tunnelled packet from ADDR not for a local home link" *)
  | Mobile_host_provisioned of { label : string; home : Addr.t; iface : int }
      (** "provisioned mobile host ADDR on tunnel iface N" *)
  | Binding_added of { label : string; home : Addr.t; care_of : Addr.t; groups : int }
      (** "binding HOME -> COA (N groups)" *)
  | Binding_removed of { label : string; home : Addr.t }  (** "binding for ADDR removed" *)
  | Binding_request_sent of { label : string; care_of : Addr.t }
      (** "binding request sent to ADDR" *)
  | Update_without_home_address of string
      (** the label; "binding update without home address option, ignored" *)
  | Update_for_unserved_home of { label : string; home : Addr.t }
      (** "binding update for unserved home ADDR, ignored" *)
  | Home_agent_active of { label : string; link : string }  (** "active home agent for L" *)
  | Home_agent_standby of { label : string; link : string }  (** "standby home agent for L" *)
  | Home_agent_peer of { label : string; peer : Addr.t; priority : int }
      (** "home-agent peer ADDR (priority N)" *)
  | Home_agent_peer_timed_out of { label : string; peer : Addr.t }
      (** "home-agent peer ADDR timed out" *)
  | Crashed of string  (** the label; "crashed" *)
  | Recovered of string  (** the label; "recovered" *)

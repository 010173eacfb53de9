open Ipv6

type Engine.Trace.event +=
  | No_on_link_neighbour of { label : string; dst : Addr.t }
  | No_router of { label : string; link : string }
  | Movement_detected of { label : string; link : string }
  | Back_home of { label : string; link : string }
  | Care_of_address of { label : string; care_of : Addr.t; link : string }
  | Handoff of { label : string; from_link : string; to_link : string }
  | No_neighbour of { label : string; dst : Addr.t }
  | Unreachable of { label : string; dst : Addr.t }
  | Hop_limit_exceeded of { label : string; dst : Addr.t }
  | Reverse_tunnel_not_home of { label : string; src : Addr.t }
  | Mobile_host_provisioned of { label : string; home : Addr.t; iface : int }
  | Binding_added of { label : string; home : Addr.t; care_of : Addr.t; groups : int }
  | Binding_removed of { label : string; home : Addr.t }
  | Binding_request_sent of { label : string; care_of : Addr.t }
  | Update_without_home_address of string
  | Update_for_unserved_home of { label : string; home : Addr.t }
  | Home_agent_active of { label : string; link : string }
  | Home_agent_standby of { label : string; link : string }
  | Home_agent_peer of { label : string; peer : Addr.t; priority : int }
  | Home_agent_peer_timed_out of { label : string; peer : Addr.t }
  | Crashed of string
  | Recovered of string

module L = Engine.Line

let render l = function
  | No_on_link_neighbour { label; dst } ->
    L.add_label l label;
    L.add_string l "no on-link neighbour for ";
    Addr.render l dst;
    true
  | No_router { label; link } ->
    L.add_label l label;
    L.add_string l "no router on ";
    L.add_string l link;
    true
  | Movement_detected { label; link } ->
    L.add_label l label;
    L.add_string l "movement detected via router advertisement on ";
    L.add_string l link;
    true
  | Back_home { label; link } ->
    L.add_label l label;
    L.add_string l "back home on ";
    L.add_string l link;
    true
  | Care_of_address { label; care_of; link } ->
    L.add_label l label;
    L.add_string l "care-of address ";
    Addr.render l care_of;
    L.add_string l " on ";
    L.add_string l link;
    true
  | Handoff { label; from_link; to_link } ->
    L.add_label l label;
    L.add_string l "handoff ";
    L.add_string l from_link;
    L.add_string l " -> ";
    L.add_string l to_link;
    true
  | No_neighbour { label; dst } ->
    L.add_label l label;
    L.add_string l "no neighbour for ";
    Addr.render l dst;
    L.add_string l ", dropped";
    true
  | Unreachable { label; dst } ->
    L.add_label l label;
    L.add_string l "unreachable ";
    Addr.render l dst;
    L.add_string l ", dropped";
    true
  | Hop_limit_exceeded { label; dst } ->
    L.add_label l label;
    L.add_string l "hop limit exceeded for ";
    Addr.render l dst;
    true
  | Reverse_tunnel_not_home { label; src } ->
    L.add_label l label;
    L.add_string l "reverse-tunnelled packet from ";
    Addr.render l src;
    L.add_string l " not for a local home link";
    true
  | Mobile_host_provisioned { label; home; iface } ->
    L.add_label l label;
    L.add_string l "provisioned mobile host ";
    Addr.render l home;
    L.add_string l " on tunnel iface ";
    L.add_int l iface;
    true
  | Binding_added { label; home; care_of; groups } ->
    L.add_label l label;
    L.add_string l "binding ";
    Addr.render l home;
    L.add_string l " -> ";
    Addr.render l care_of;
    L.add_string l " (";
    L.add_int l groups;
    L.add_string l " groups)";
    true
  | Binding_removed { label; home } ->
    L.add_label l label;
    L.add_string l "binding for ";
    Addr.render l home;
    L.add_string l " removed";
    true
  | Binding_request_sent { label; care_of } ->
    L.add_label l label;
    L.add_string l "binding request sent to ";
    Addr.render l care_of;
    true
  | Update_without_home_address label ->
    L.add_label l label;
    L.add_string l "binding update without home address option, ignored";
    true
  | Update_for_unserved_home { label; home } ->
    L.add_label l label;
    L.add_string l "binding update for unserved home ";
    Addr.render l home;
    L.add_string l ", ignored";
    true
  | Home_agent_active { label; link } ->
    L.add_label l label;
    L.add_string l "active home agent for ";
    L.add_string l link;
    true
  | Home_agent_standby { label; link } ->
    L.add_label l label;
    L.add_string l "standby home agent for ";
    L.add_string l link;
    true
  | Home_agent_peer { label; peer; priority } ->
    L.add_label l label;
    L.add_string l "home-agent peer ";
    Addr.render l peer;
    L.add_string l " (priority ";
    L.add_int l priority;
    L.add_char l ')';
    true
  | Home_agent_peer_timed_out { label; peer } ->
    L.add_label l label;
    L.add_string l "home-agent peer ";
    Addr.render l peer;
    L.add_string l " timed out";
    true
  | Crashed label ->
    L.add_label l label;
    L.add_string l "crashed";
    true
  | Recovered label ->
    L.add_label l label;
    L.add_string l "recovered";
    true
  | _ -> false

let () = Engine.Trace.register render

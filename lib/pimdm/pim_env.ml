open Ipv6

type iface = int

type rpf_result = {
  rpf_iface : iface;
  upstream : Addr.t option;
  metric : int;
}

type t = {
  sim : Engine.Sim.t;
  trace : Engine.Trace.t;
  rng : Engine.Rng.t;
  config : Pim_config.t;
  label : string;
  interfaces : unit -> iface list;
  local_address : iface -> Addr.t;
  send_message : iface -> Pim_message.t -> unit;
  forward_data : iface -> Packet.t -> unit;
  rpf : source:Addr.t -> rpf_result option;
  has_local_members : iface -> Addr.t -> bool;
  flood_eligible : iface -> bool;
}

let trace t event = Engine.Trace.record t.trace ~category:"pim" event

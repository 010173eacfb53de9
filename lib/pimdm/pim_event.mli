(** The PIM-DM router's trace events (category ["pim"]).

    Each carries the router's {!Pim_env.label} and renders as
    ["label: message"]; [(S,G)] is the entry's source and group. *)

open Ipv6

type Engine.Trace.event +=
  | Neighbor of { label : string; addr : Addr.t; iface : int }
      (** "neighbor ADDR on iface N" *)
  | State_created of {
      label : string;
      source : Addr.t;
      group : Addr.t;
      iif : int;
      upstream : Addr.t option;
    }  (** "(S,G) state created, iif N upstream ADDR", or "upstream direct" *)
  | State_expired of { label : string; source : Addr.t; group : Addr.t }
  | State_refresh_originated of { label : string; source : Addr.t; group : Addr.t }
  | Pruned_upstream of { label : string; source : Addr.t; group : Addr.t; iface : int }
      (** "(S,G) pruned upstream via iface N" *)
  | Graft_sent of { label : string; source : Addr.t; group : Addr.t }
      (** "(S,G) graft sent upstream" *)
  | Graft_retransmitted of { label : string; source : Addr.t; group : Addr.t }
  | Graft_acknowledged of { label : string; source : Addr.t; group : Addr.t }
  | Grafted of { label : string; source : Addr.t; group : Addr.t; iface : int }
      (** "(S,G) grafted iface N" *)
  | Join_override_sent of { label : string; source : Addr.t; group : Addr.t }
  | Prune_pending of { label : string; source : Addr.t; group : Addr.t; iface : int }
      (** "(S,G) prune pending on iface N (TPruneDel window)" *)
  | Join_cancels_prune of { label : string; source : Addr.t; group : Addr.t; iface : int }
  | Assert_sent of { label : string; source : Addr.t; group : Addr.t; iface : int }
      (** "(S,G) assert sent on iface N" *)
  | Assert_winner_upstream of {
      label : string;
      source : Addr.t;
      group : Addr.t;
      winner : Addr.t;
    }  (** "(S,G) assert winner ADDR is new upstream" *)
  | Lost_assert of {
      label : string;
      source : Addr.t;
      group : Addr.t;
      iface : int;
      winner : Addr.t;
    }  (** "(S,G) lost assert on iface N to ADDR" *)
  | Unroutable_source of { label : string; source : Addr.t }
      (** "data from unroutable source ADDR dropped" *)

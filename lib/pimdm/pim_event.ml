open Ipv6

type Engine.Trace.event +=
  | Neighbor of { label : string; addr : Addr.t; iface : int }
  | State_created of {
      label : string;
      source : Addr.t;
      group : Addr.t;
      iif : int;
      upstream : Addr.t option;
    }
  | State_expired of { label : string; source : Addr.t; group : Addr.t }
  | State_refresh_originated of { label : string; source : Addr.t; group : Addr.t }
  | Pruned_upstream of { label : string; source : Addr.t; group : Addr.t; iface : int }
  | Graft_sent of { label : string; source : Addr.t; group : Addr.t }
  | Graft_retransmitted of { label : string; source : Addr.t; group : Addr.t }
  | Graft_acknowledged of { label : string; source : Addr.t; group : Addr.t }
  | Grafted of { label : string; source : Addr.t; group : Addr.t; iface : int }
  | Join_override_sent of { label : string; source : Addr.t; group : Addr.t }
  | Prune_pending of { label : string; source : Addr.t; group : Addr.t; iface : int }
  | Join_cancels_prune of { label : string; source : Addr.t; group : Addr.t; iface : int }
  | Assert_sent of { label : string; source : Addr.t; group : Addr.t; iface : int }
  | Assert_winner_upstream of {
      label : string;
      source : Addr.t;
      group : Addr.t;
      winner : Addr.t;
    }
  | Lost_assert of {
      label : string;
      source : Addr.t;
      group : Addr.t;
      iface : int;
      winner : Addr.t;
    }
  | Unroutable_source of { label : string; source : Addr.t }

module L = Engine.Line

(* "label: (S,G) " *)
let sg l lbl source group =
  L.add_label l lbl;
  L.add_char l '(';
  Addr.render l source;
  L.add_char l ',';
  Addr.render l group;
  L.add_string l ") "

let sg_then l lbl source group text =
  sg l lbl source group;
  L.add_string l text

let sg_iface l lbl source group text iface =
  sg_then l lbl source group text;
  L.add_int l iface

let render l = function
  | Neighbor { label; addr; iface } ->
    L.add_label l label;
    L.add_string l "neighbor ";
    Addr.render l addr;
    L.add_string l " on iface ";
    L.add_int l iface;
    true
  | State_created { label; source; group; iif; upstream } ->
    sg_iface l label source group "state created, iif " iif;
    L.add_string l " upstream ";
    (match upstream with
     | Some a -> Addr.render l a
     | None -> L.add_string l "direct");
    true
  | State_expired { label; source; group } ->
    sg_then l label source group "state expired";
    true
  | State_refresh_originated { label; source; group } ->
    sg_then l label source group "state refresh originated";
    true
  | Pruned_upstream { label; source; group; iface } ->
    sg_iface l label source group "pruned upstream via iface " iface;
    true
  | Graft_sent { label; source; group } ->
    sg_then l label source group "graft sent upstream";
    true
  | Graft_retransmitted { label; source; group } ->
    sg_then l label source group "graft retransmitted";
    true
  | Graft_acknowledged { label; source; group } ->
    sg_then l label source group "graft acknowledged";
    true
  | Grafted { label; source; group; iface } ->
    sg_iface l label source group "grafted iface " iface;
    true
  | Join_override_sent { label; source; group } ->
    sg_then l label source group "join override sent";
    true
  | Prune_pending { label; source; group; iface } ->
    sg_iface l label source group "prune pending on iface " iface;
    L.add_string l " (TPruneDel window)";
    true
  | Join_cancels_prune { label; source; group; iface } ->
    sg_iface l label source group "join cancels prune on iface " iface;
    true
  | Assert_sent { label; source; group; iface } ->
    sg_iface l label source group "assert sent on iface " iface;
    true
  | Assert_winner_upstream { label; source; group; winner } ->
    sg_then l label source group "assert winner ";
    Addr.render l winner;
    L.add_string l " is new upstream";
    true
  | Lost_assert { label; source; group; iface; winner } ->
    sg_iface l label source group "lost assert on iface " iface;
    L.add_string l " to ";
    Addr.render l winner;
    true
  | Unroutable_source { label; source } ->
    L.add_label l label;
    L.add_string l "data from unroutable source ";
    Addr.render l source;
    L.add_string l " dropped";
    true
  | _ -> false

let () = Engine.Trace.register render

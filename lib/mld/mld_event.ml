open Ipv6

type Engine.Trace.event +=
  | Joined of { label : string; group : Addr.t }
  | Left of { label : string; group : Addr.t }
  | Report_sent of { label : string; group : Addr.t }
  | Report_suppressed of { label : string; group : Addr.t }
  | Response_scheduled of { label : string; group : Addr.t; delay : Engine.Time.t }
  | Done_sent of { label : string; group : Addr.t }
  | General_query_sent of string
  | Group_query_sent of { label : string; group : Addr.t }
  | New_listener of { label : string; group : Addr.t }
  | No_listeners of { label : string; group : Addr.t }
  | Querier_resumed of string
  | Querier_deferred of string

module L = Engine.Line

(* "label: text G" *)
let about l label before group =
  L.add_label l label;
  L.add_string l before;
  Addr.render l group

let render l = function
  | Joined { label; group } -> about l label "joined " group; true
  | Left { label; group } -> about l label "left " group; true
  | Report_sent { label; group } -> about l label "sent report for " group; true
  | Report_suppressed { label; group } -> about l label "suppressed report for " group; true
  | Response_scheduled { label; group; delay } ->
    about l label "response for " group;
    L.add_string l " scheduled in ";
    Engine.Time.render l delay;
    true
  | Done_sent { label; group } -> about l label "sent done for " group; true
  | General_query_sent label ->
    L.add_label l label;
    L.add_string l "sent general query";
    true
  | Group_query_sent { label; group } ->
    about l label "sent group-specific query for " group;
    true
  | New_listener { label; group } -> about l label "new listener for " group; true
  | No_listeners { label; group } -> about l label "no more listeners for " group; true
  | Querier_resumed label ->
    L.add_label l label;
    L.add_string l "other querier timed out; resuming querier role";
    true
  | Querier_deferred label ->
    L.add_label l label;
    L.add_string l "deferring to lower-address querier";
    true
  | _ -> false

let () = Engine.Trace.register render

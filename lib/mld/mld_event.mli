(** MLD's trace events (category ["mld"]), host and router side.

    Each carries the node's {!Mld_env.label} and renders as
    ["label: message"]. *)

open Ipv6

type Engine.Trace.event +=
  | Joined of { label : string; group : Addr.t }  (** "joined G" *)
  | Left of { label : string; group : Addr.t }  (** "left G" *)
  | Report_sent of { label : string; group : Addr.t }  (** "sent report for G" *)
  | Report_suppressed of { label : string; group : Addr.t }
      (** "suppressed report for G" *)
  | Response_scheduled of { label : string; group : Addr.t; delay : Engine.Time.t }
      (** "response for G scheduled in DELAY", the delay as {!Engine.Time.pp} prints it *)
  | Done_sent of { label : string; group : Addr.t }  (** "sent done for G" *)
  | General_query_sent of string  (** the label; "sent general query" *)
  | Group_query_sent of { label : string; group : Addr.t }
      (** "sent group-specific query for G" *)
  | New_listener of { label : string; group : Addr.t }  (** "new listener for G" *)
  | No_listeners of { label : string; group : Addr.t }  (** "no more listeners for G" *)
  | Querier_resumed of string
      (** the label; "other querier timed out; resuming querier role" *)
  | Querier_deferred of string  (** the label; "deferring to lower-address querier" *)

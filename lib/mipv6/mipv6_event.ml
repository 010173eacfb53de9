open Ipv6

type Engine.Trace.event +=
  | Binding_update_sent of { label : string; sequence : int; care_of : Addr.t; groups : int }
  | Deregistration_sent of string
  | Binding_acknowledged of { label : string; sequence : int }
  | Binding_rejected of { label : string; sequence : int; status : int }

module L = Engine.Line

let render l = function
  | Binding_update_sent { label; sequence; care_of; groups } ->
    L.add_label l label;
    L.add_string l "binding update #";
    L.add_int l sequence;
    L.add_string l " (coa ";
    Addr.render l care_of;
    L.add_string l ", ";
    L.add_int l groups;
    L.add_string l " groups)";
    true
  | Deregistration_sent label ->
    L.add_label l label;
    L.add_string l "deregistration sent";
    true
  | Binding_acknowledged { label; sequence } ->
    L.add_label l label;
    L.add_string l "binding #";
    L.add_int l sequence;
    L.add_string l " acknowledged";
    true
  | Binding_rejected { label; sequence; status } ->
    L.add_label l label;
    L.add_string l "binding #";
    L.add_int l sequence;
    L.add_string l " rejected with status ";
    L.add_int l status;
    true
  | _ -> false

let () = Engine.Trace.register render

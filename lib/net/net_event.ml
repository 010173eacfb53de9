type Engine.Trace.event +=
  | Link_set of { link : string; up : bool }
  | Blocked of string
  | Not_attached of { node : string; link : string }
  | Malformed_frame of { node : string; link : string; reason : string }

module L = Engine.Line

let render l = function
  | Link_set { link; up } ->
    L.add_string l "link ";
    L.add_string l link;
    L.add_string l (if up then " up" else " down");
    true
  | Blocked link ->
    L.add_string l "blocked: ";
    L.add_string l link;
    L.add_string l " is down";
    true
  | Not_attached { node; link } ->
    L.add_string l "drop: ";
    L.add_string l node;
    L.add_string l " not attached to ";
    L.add_string l link;
    true
  | Malformed_frame { node; link; reason } ->
    L.add_string l node;
    L.add_string l " dropped malformed frame on ";
    L.add_string l link;
    L.add_string l ": ";
    L.add_string l reason;
    true
  | _ -> false

let () = Engine.Trace.register render

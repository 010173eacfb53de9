(** The network's own trace events: frames the links drop (category
    ["link"]) and link state set by fault injection (category
    ["fault"]).  Nodes and links appear by name. *)

type Engine.Trace.event +=
  | Link_set of { link : string; up : bool }  (** "link L up" / "link L down" *)
  | Blocked of string  (** the link; "blocked: L is down" *)
  | Not_attached of { node : string; link : string }  (** "drop: N not attached to L" *)
  | Malformed_frame of { node : string; link : string; reason : string }
      (** "N dropped malformed frame on L: REASON" *)

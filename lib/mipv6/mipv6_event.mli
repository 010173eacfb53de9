(** The mobile node's trace events (category ["mipv6"]).

    Each carries the node's label and renders as ["label: message"]. *)

open Ipv6

type Engine.Trace.event +=
  | Binding_update_sent of { label : string; sequence : int; care_of : Addr.t; groups : int }
      (** "binding update #SEQ (coa ADDR, N groups)" *)
  | Deregistration_sent of string  (** the label; "deregistration sent" *)
  | Binding_acknowledged of { label : string; sequence : int }
      (** "binding #SEQ acknowledged" *)
  | Binding_rejected of { label : string; sequence : int; status : int }
      (** "binding #SEQ rejected with status N" *)

(** Traffic generation helpers shared by the scenario runner, tests and
    examples. *)

val cbr :
  Scenario.t ->
  Host_stack.t ->
  group:Ipv6.Addr.t ->
  from_t:Engine.Time.t ->
  until:Engine.Time.t ->
  interval:Engine.Time.t ->
  bytes:int ->
  unit
(** Constant-bit-rate multicast source: one [bytes]-byte datagram every
    [interval] from [from_t] (exclusive at [until]). *)

val at : Scenario.t -> Engine.Time.t -> (unit -> unit) -> unit
(** Schedule a scenario event (a movement, a subscription change). *)

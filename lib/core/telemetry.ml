open Net

type t = {
  reg : Obs.Registry.t;
  join_delays : Engine.Stats.Summary.t;
  leave_delays : Engine.Stats.Summary.t;
}

let link_series reg metrics topo link =
  let name = Topology.link_name topo link in
  let series cls suffix =
    Obs.Registry.int_gauge reg ~unit_:"bytes"
      (Printf.sprintf "link.%s.%s" name suffix)
      (fun () -> Metrics.bytes ~link metrics cls)
  in
  series Metrics.Data_native "native_bytes";
  series Metrics.Data_tunnelled "tunnelled_bytes";
  series Metrics.Tunnel_overhead "tunnel_overhead_bytes"

let control_series reg metrics =
  let cls name cls =
    Obs.Registry.int_gauge reg ~unit_:"bytes" ("control." ^ name) (fun () ->
        Metrics.bytes metrics cls)
  in
  cls "mld_bytes" Metrics.Mld_signalling;
  cls "pim_bytes" Metrics.Pim_signalling;
  cls "mipv6_bytes" Metrics.Mipv6_signalling;
  cls "nd_bytes" Metrics.Nd_signalling;
  let census name read =
    Obs.Registry.int_gauge reg ~unit_:"messages" ("control." ^ name) (fun () ->
        read (Metrics.control_counts metrics))
  in
  census "hellos" (fun c -> c.Metrics.hellos);
  census "joins" (fun c -> c.Metrics.joins);
  census "prunes" (fun c -> c.Metrics.prunes);
  census "grafts" (fun c -> c.Metrics.grafts);
  census "graft_acks" (fun c -> c.Metrics.graft_acks);
  census "asserts" (fun c -> c.Metrics.asserts);
  census "state_refreshes" (fun c -> c.Metrics.state_refreshes);
  census "queries" (fun c -> c.Metrics.queries);
  census "reports" (fun c -> c.Metrics.reports);
  census "dones" (fun c -> c.Metrics.dones);
  census "binding_updates" (fun c -> c.Metrics.binding_updates);
  census "binding_acks" (fun c -> c.Metrics.binding_acks)

let host_series reg group (name, host) =
  Obs.Registry.int_gauge reg ~unit_:"datagrams"
    (Printf.sprintf "host.%s.received" name)
    (fun () -> Host_stack.received_count host ~group);
  Obs.Registry.int_gauge reg ~unit_:"datagrams"
    (Printf.sprintf "host.%s.duplicates" name)
    (fun () -> Host_stack.duplicate_count host ~group)

let router_series reg (name, router) =
  Obs.Registry.int_gauge reg ~unit_:"entries"
    (Printf.sprintf "router.%s.sg_entries" name)
    (fun () -> List.length (Pimdm.Pim_router.entries (Router_stack.pim router)));
  Obs.Registry.int_gauge reg ~unit_:"entries"
    (Printf.sprintf "router.%s.bindings" name)
    (fun () -> List.length (Router_stack.bindings router))

let attach ?(probe = true) ?profile ?(group = Scenario.group) reg scenario metrics =
  let topo = Network.topology scenario.Scenario.net in
  List.iter (link_series reg metrics topo) (Topology.links topo);
  control_series reg metrics;
  List.iter (host_series reg group) scenario.Scenario.hosts;
  List.iter (router_series reg) scenario.Scenario.routers;
  if probe then Obs.Probe.attach ?profile reg scenario.Scenario.sim;
  let join_delays = Engine.Stats.Summary.create ~name:"join_delay_s" () in
  let leave_delays = Engine.Stats.Summary.create ~name:"leave_delay_s" () in
  Obs.Registry.summary reg ~unit_:"s" "join_delay_s" join_delays;
  Obs.Registry.summary reg ~unit_:"s" "leave_delay_s" leave_delays;
  { reg; join_delays; leave_delays }

let record_join_delay t d = Engine.Stats.Summary.add t.join_delays (Engine.Time.seconds d)
let record_leave_delay t d = Engine.Stats.Summary.add t.leave_delays (Engine.Time.seconds d)

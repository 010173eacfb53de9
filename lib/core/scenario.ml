open Ipv6
open Net

type spec = {
  seed : int;
  mld : Mld.Mld_config.t;
  pim : Pimdm.Pim_config.t;
  mipv6 : Mipv6.Mipv6_config.t;
  approach : Approach.t;
  ha_mode : Router_stack.ha_mode;
  ra_interval : Engine.Time.t option;
  ha_failover : bool;
}

let default_spec =
  { seed = 42;
    mld = Mld.Mld_config.default;
    pim = Pimdm.Pim_config.default;
    mipv6 = Mipv6.Mipv6_config.default;
    approach = Approach.local_membership;
    ha_mode = Router_stack.Ha_bu_groups;
    ra_interval = None;
    ha_failover = false }

type t = {
  sim : Engine.Sim.t;
  net : Network.t;
  spec : spec;
  routers : (string * Router_stack.t) list;
  hosts : (string * Host_stack.t) list;
}

let group = Addr.of_string "ff0e::1:1"

let build ?on_trace spec ~links ~routers ~hosts =
  let sim = Engine.Sim.create ~seed:spec.seed () in
  let topo = Topology.create () in
  (* The first link of a name wins, as an association list has it. *)
  let link_ids = Hashtbl.create (List.length links) in
  List.iter
    (fun (name, prefix) ->
      let id = Topology.add_link topo ~name ~prefix:(Prefix.of_string prefix) () in
      if not (Hashtbl.mem link_ids name) then Hashtbl.replace link_ids name id)
    links;
  let find_link name =
    match Hashtbl.find_opt link_ids name with
    | Some l -> l
    | None -> invalid_arg (Printf.sprintf "Scenario.build: unknown link %s" name)
  in
  let router_nodes =
    List.map
      (fun (name, attached, ha) ->
        let node = Topology.add_node topo ~name ~kind:Topology.Router in
        List.iter (fun l -> Topology.attach topo node (find_link l)) attached;
        (name, node, List.map find_link ha))
      routers
  in
  let host_nodes =
    List.map
      (fun (name, home) ->
        let node = Topology.add_node topo ~name ~kind:Topology.Host in
        let home_link = find_link home in
        Topology.attach topo node home_link;
        (name, node, home_link))
      hosts
  in
  let net = Network.create sim topo in
  Option.iter (Engine.Trace.on_record (Network.trace net)) on_trace;
  let router_stacks =
    List.map
      (fun (name, node, ha_links) ->
        let config =
          { Router_stack.mld = spec.mld;
            pim = spec.pim;
            ha_mode = spec.ha_mode;
            ha_links;
            ra_interval = spec.ra_interval;
            ha_failover = spec.ha_failover;
            ha_heartbeat_interval = 1.0 }
        in
        (name, Router_stack.create net node config))
      router_nodes
  in
  let host_stacks =
    List.map
      (fun (name, node, home_link) ->
        let config =
          { Host_stack.approach = spec.approach;
            mld = spec.mld;
            mipv6 = spec.mipv6;
            ha_mode = spec.ha_mode;
            detection =
              (match spec.ra_interval with
               | Some _ -> Host_stack.Router_advertisements
               | None -> Host_stack.Fixed_delay);
            use_ha_service_address = spec.ha_failover }
        in
        (* The home agent is the router configured to serve the home
           link (with failover, the link's service address). *)
        let home_agent =
          if spec.ha_failover then Some (Router_stack.ha_service_address topo home_link)
          else
            List.find_map
              (fun (_, rnode, ha_links) ->
                if List.exists (Ids.Link_id.equal home_link) ha_links then
                  Some (Topology.address_on topo rnode home_link)
                else None)
              router_nodes
        in
        (name, Host_stack.create ?home_agent net node ~home_link config))
      host_nodes
  in
  List.iter (fun (_, r) -> Router_stack.start r) router_stacks;
  List.iter (fun (_, h) -> Host_stack.start h) host_stacks;
  (* Provision every mobile host at the home agent serving its home
     link. *)
  List.iter
    (fun (_, h) ->
      let home_link = Host_stack.home_link h in
      let serving =
        List.filter
          (fun (_, _, ha_links) -> List.exists (Ids.Link_id.equal home_link) ha_links)
          router_nodes
      in
      List.iter
        (fun (rname, _, _) ->
          let router = List.assoc rname router_stacks in
          Router_stack.provision_mobile_host router ~home:(Host_stack.home_address h))
        serving)
    host_stacks;
  { sim; net; spec; routers = router_stacks; hosts = host_stacks }

type layout = {
  lay_links : (string * string) list;
  lay_routers : (string * string list * string list) list;
  lay_hosts : (string * string) list;
}

let figure1 =
  { lay_links =
      [ ("L1", "2001:db8:1::/64");
        ("L2", "2001:db8:2::/64");
        ("L3", "2001:db8:3::/64");
        ("L4", "2001:db8:4::/64");
        ("L5", "2001:db8:5::/64");
        ("L6", "2001:db8:6::/64") ];
    lay_routers =
      [ ("A", [ "L1"; "L2" ], [ "L1" ]);
        ("B", [ "L2"; "L3" ], [ "L2" ]);
        ("C", [ "L2"; "L3" ], [ "L3" ]);
        ("D", [ "L3"; "L4"; "L5" ], [ "L4"; "L5" ]);
        ("E", [ "L3"; "L6" ], [ "L6" ]) ];
    lay_hosts = [ ("S", "L1"); ("R1", "L1"); ("R2", "L2"); ("R3", "L4") ] }

let paper_figure1 spec =
  build spec ~links:figure1.lay_links ~routers:figure1.lay_routers ~hosts:figure1.lay_hosts

let router t name =
  match List.assoc_opt name t.routers with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Scenario.router: unknown router %s" name)

let host t name =
  match List.assoc_opt name t.hosts with
  | Some h -> h
  | None -> invalid_arg (Printf.sprintf "Scenario.host: unknown host %s" name)

let link t name =
  match Topology.find_link_by_name (Network.topology t.net) name with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Scenario.link: unknown link %s" name)

let run_until t time = Engine.Sim.run ~until:time t.sim

let install_faults t schedule =
  let stack_of node =
    List.find_map
      (fun (_, r) -> if Ids.Node_id.equal (Router_stack.node_id r) node then Some r else None)
      t.routers
  in
  let on_node what f node =
    match stack_of node with
    | Some r -> f r
    | None ->
      invalid_arg
        (Printf.sprintf "Scenario.install_faults: cannot %s %s: not a router" what
           (Topology.node_name (Network.topology t.net) node))
  in
  (* Catch a crash aimed at a non-router now, not when the event fires. *)
  List.iter
    (function
      | Faults.Crash { node; _ } -> on_node "crash" ignore node
      | _ -> ())
    schedule;
  let handlers =
    { Faults.crash_node = on_node "crash" Router_stack.fail;
      recover_node = on_node "recover" Router_stack.recover }
  in
  Faults.install t.net ~handlers schedule

let subscribe_receivers t g =
  List.iter
    (fun (name, h) -> if String.length name > 0 && name.[0] = 'R' then Host_stack.subscribe h g)
    t.hosts

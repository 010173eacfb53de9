open Ipv6
open Net
module Node_id = Ids.Node_id
module Link_id = Ids.Link_id

type ha_mode =
  | Ha_bu_groups
  | Ha_pim_tunnel_mld

type config = {
  mld : Mld.Mld_config.t;
  pim : Pimdm.Pim_config.t;
  ha_mode : ha_mode;
  ha_links : Link_id.t list;
  ra_interval : Engine.Time.t option;
  ha_failover : bool;
  ha_heartbeat_interval : Engine.Time.t;
}

let default_config =
  { mld = Mld.Mld_config.default;
    pim = Pimdm.Pim_config.default;
    ha_mode = Ha_bu_groups;
    ha_links = [];
    ra_interval = None;
    ha_failover = false;
    ha_heartbeat_interval = 1.0 }

(* The interface identifier of the per-link home-agents service
   address; redundant home agents hand it over on failover. *)
let ha_service_iid = 0xfffeL

let ha_service_address topo link =
  Prefix.append_interface_id (Topology.link_prefix topo link) ha_service_iid

(* Virtual PIM interface numbers for home-agent tunnels start here;
   real interfaces use Link_id.to_int, which stays far below. *)
let viface_base = 1000

type tunnel = {
  tunnel_home : Addr.t;
  home_link : Link_id.t;
  viface : int;
  mutable tunnel_mld : Mld.Mld_router.t option;  (* Ha_pim_tunnel_mld mode *)
  mutable bu_groups : Addr.Set.t;  (* Ha_bu_groups mode *)
}

(* Failover state for one served home link. *)
type ha_peer = {
  mutable peer_priority : int;
  peer_expiry : Engine.Timer.t;
}

type ha_link_state = {
  hl_link : Link_id.t;
  mutable hl_active : bool;
  hl_peers : (Addr.t, ha_peer) Hashtbl.t;
  mutable hl_seq : int;
  mutable hl_timer : Engine.Timer.t option;
}

type t = {
  net : Network.t;
  node : Node_id.t;
  config : config;
  links : Link_id.t list;
  label : string;
  load : Load.t;
  link_ids : int array;  (* [links] as ints *)
  mld_routers : Mld.Mld_router.t option array;  (* by position in [links] *)
  mutable pim : Pimdm.Pim_router.t option;
  mutable cache : Mipv6.Binding_cache.t option;
  tunnels_by_home : (Addr.t, tunnel) Hashtbl.t;
  tunnels_by_viface : (int, tunnel) Hashtbl.t;
  mutable own_addrs : Addr.Set.t;
  mutable next_viface : int;
  mutable running : bool;
  mutable failed : bool;
  ha_states : (Link_id.t, ha_link_state) Hashtbl.t;
  mutable ra_timers : Engine.Timer.t list;
  mutable rng : Engine.Rng.t;
}

let node_id t = t.node
let name t = t.label
let load t = t.load

let sim t = Network.sim t.net
let topo t = Network.topology t.net

let pim t =
  match t.pim with
  | Some p -> p
  | None -> invalid_arg "Router_stack: not initialised"

let cache t =
  match t.cache with
  | Some c -> c
  | None -> invalid_arg "Router_stack: no binding cache"

(* A router has a handful of links: a scan of their ids beats hashing
   on the data path's membership test and the monitor's querier check. *)
let rec mld_at t l i =
  if i >= Array.length t.link_ids then None
  else if Array.unsafe_get t.link_ids i = l then Array.unsafe_get t.mld_routers i
  else mld_at t l (i + 1)

let mld_on t link = mld_at t (Link_id.to_int link) 0

(* In [links] order, as the routers were created. *)
let iter_mld t f = Array.iter (Option.iter f) t.mld_routers

let address_on t link = Topology.address_on (topo t) t.node link

let link_local t = Topology.link_local (topo t) t.node

let trace t event = Engine.Trace.record (Network.trace t.net) ~category:"node" event

let lineage t = Engine.Sim.lineage (sim t)

let ldrop t reason detail =
  match lineage t with
  | None -> ()
  | Some c ->
    ignore
      (Engine.Span.drop c ~at:(Engine.Sim.now (sim t)) ~node:t.label ~reason ~detail ())

let lmark t name attrs =
  match lineage t with
  | None -> ()
  | Some c ->
    Engine.Span.mark c ~at:(Engine.Sim.now (sim t)) ~name ~node:t.label ~attrs ()

(* An encap span's attributes, newest first: the care-of address,
   then the inner packet. *)
let encap_attrs entry packet =
  [ ("inner", Packet.label packet);
    ("care-of", Addr.to_string entry.Mipv6.Binding_cache.care_of) ]

(* ---- unicast origination and forwarding ---- *)

let transmit t ~link dest packet = Network.transmit t.net ~from:t.node ~link dest packet

let rec forward_unicast t packet =
  (* Routing decision at this node; used both for transit traffic and
     for locally originated packets (binding acks, tunnel packets). *)
  match Routing.decide (Network.routing t.net) ~at:t.node ~dst:packet.Packet.dst with
  | Routing.Deliver_on_link link -> (
    match Network.resolve t.net ~link packet.Packet.dst with
    | Some target -> transmit t ~link (Network.To_node target) packet
    | None ->
      ldrop t Engine.Span.No_route (Addr.to_string packet.Packet.dst);
      trace t (Node_event.No_neighbour { label = t.label; dst = packet.Packet.dst }))
  | Routing.Forward { out_link; next_hop } ->
    transmit t ~link:out_link (Network.To_node next_hop) packet
  | Routing.Unreachable ->
    ldrop t Engine.Span.No_route (Addr.to_string packet.Packet.dst);
    trace t (Node_event.Unreachable { label = t.label; dst = packet.Packet.dst })

and intercept_to_mobile t entry packet =
  (* Home-agent interception: tunnel the packet to the care-of
     address (Mobile IPv6 basic operation, paper section 2). *)
  t.load.Load.intercepted <- t.load.Load.intercepted + 1;
  t.load.Load.encapsulations <- t.load.Load.encapsulations + 1;
  let home_link =
    match Topology.link_of_address (topo t) entry.Mipv6.Binding_cache.home with
    | Some l -> l
    | None -> List.hd t.links
  in
  let outer =
    Mipv6.Tunnel.home_agent_to_mobile
      ~home_agent:(address_on t home_link)
      ~care_of:entry.Mipv6.Binding_cache.care_of packet
  in
  match lineage t with
  | None -> forward_unicast t outer
  | Some c ->
    let at = Engine.Sim.now (sim t) in
    let id =
      Engine.Span.open_span c ~at ~name:(Engine.Span.intern c "encap") ~node:t.label
        ~attrs:(encap_attrs entry packet) ()
    in
    Engine.Span.within c id (fun () -> forward_unicast t outer);
    Engine.Span.close_span c ~at id

(* ---- home agent ---- *)

let binding_for t home =
  match t.cache with
  | None -> None
  | Some c -> Mipv6.Binding_cache.lookup c home

let tunnel_iface_of t home =
  match Hashtbl.find_opt t.tunnels_by_home home with
  | Some tun -> Some tun.viface
  | None -> None

let tunnel_home_of t viface =
  match Hashtbl.find_opt t.tunnels_by_viface viface with
  | Some tun -> Some tun.tunnel_home
  | None -> None

let is_virtual_iface iface = iface >= viface_base

let send_through_tunnel t tunnel packet =
  match binding_for t tunnel.tunnel_home with
  | None -> ()
  | Some entry -> (
    t.load.Load.encapsulations <- t.load.Load.encapsulations + 1;
    let outer =
      Mipv6.Tunnel.home_agent_to_mobile
        ~home_agent:(address_on t tunnel.home_link)
        ~care_of:entry.Mipv6.Binding_cache.care_of packet
    in
    match lineage t with
    | None -> forward_unicast t outer
    | Some c ->
      let at = Engine.Sim.now (sim t) in
      let id =
        Engine.Span.open_span c ~at ~name:(Engine.Span.intern c "encap") ~node:t.label
          ~attrs:(encap_attrs entry packet) ()
      in
      Engine.Span.within c id (fun () -> forward_unicast t outer);
      Engine.Span.close_span c ~at id)

let start_tunnel_mld t tunnel =
  match tunnel.tunnel_mld with
  | Some _ -> ()
  | None ->
    let env =
      { Mld.Mld_env.sim = sim t;
        trace = Network.trace t.net;
        rng = Engine.Rng.split (Engine.Sim.rng (sim t));
        config = t.config.mld;
        local_address = (fun () -> address_on t tunnel.home_link);
        send = (fun packet -> send_through_tunnel t tunnel packet);
        label = Printf.sprintf "%s/tunnel-%s" t.label (Addr.to_string tunnel.tunnel_home) }
    in
    let callbacks =
      { Mld.Mld_router.listener_added =
          (fun group ->
            Pimdm.Pim_router.local_members_changed (pim t) ~iface:tunnel.viface ~group
              ~present:true);
        listener_removed =
          (fun group ->
            Pimdm.Pim_router.local_members_changed (pim t) ~iface:tunnel.viface ~group
              ~present:false) }
    in
    let mld = Mld.Mld_router.create env callbacks in
    tunnel.tunnel_mld <- Some mld;
    Mld.Mld_router.start mld

(* Tell PIM about listeners that vanish without an MLD callback (a
   replaced group list, a stopped tunnel MLD instance): the tunnel
   interface's forwarding state changes with them. *)
let listeners_gone t tunnel groups =
  match t.pim with
  | Some p ->
    List.iter
      (fun group ->
        Pimdm.Pim_router.local_members_changed p ~iface:tunnel.viface ~group ~present:false)
      groups
  | None -> ()

let stop_tunnel_mld t tunnel =
  match tunnel.tunnel_mld with
  | Some mld ->
    let groups = Mld.Mld_router.groups mld in
    Mld.Mld_router.stop mld;
    tunnel.tunnel_mld <- None;
    listeners_gone t tunnel groups
  | None -> ()

let set_bu_groups t tunnel groups =
  let next = Addr.Set.of_list groups in
  let added = Addr.Set.diff next tunnel.bu_groups in
  let removed = Addr.Set.diff tunnel.bu_groups next in
  tunnel.bu_groups <- next;
  Addr.Set.iter
    (fun group ->
      Pimdm.Pim_router.local_members_changed (pim t) ~iface:tunnel.viface ~group ~present:true)
    added;
  listeners_gone t tunnel (Addr.Set.elements removed)

let provision_mobile_host t ~home =
  if not (Hashtbl.mem t.tunnels_by_home home) then begin
    let home_link =
      match Topology.link_of_address (topo t) home with
      | Some l when List.exists (Link_id.equal l) t.config.ha_links -> l
      | Some _ | None ->
        invalid_arg
          (Printf.sprintf "Router_stack.provision_mobile_host: %s is not on a served link"
             (Addr.to_string home))
    in
    let viface = t.next_viface in
    t.next_viface <- viface + 1;
    let tunnel =
      { tunnel_home = home; home_link; viface; tunnel_mld = None; bu_groups = Addr.Set.empty }
    in
    Hashtbl.replace t.tunnels_by_home home tunnel;
    Hashtbl.replace t.tunnels_by_viface viface tunnel;
    (match t.pim with
     | Some p -> Pimdm.Pim_router.interface_added p ~iface:viface
     | None -> ());
    trace t (Node_event.Mobile_host_provisioned { label = t.label; home; iface = viface })
  end

(* Whether this router currently provides home-agent service for a
   link: without failover, serving implies active; with failover the
   heartbeat election decides. *)
let is_active_home_agent t link =
  List.exists (Link_id.equal link) t.config.ha_links
  && (not t.config.ha_failover
      ||
      match Hashtbl.find_opt t.ha_states link with
      | Some st -> st.hl_active
      | None -> false)

(* Side effects of holding a binding while active: defend the home
   address and subscribe the tunnel interface on the host's behalf. *)
let apply_binding_side_effects t tunnel (entry : Mipv6.Binding_cache.entry) =
  Network.claim_address t.net t.node ~link:tunnel.home_link entry.Mipv6.Binding_cache.home;
  match t.config.ha_mode with
  | Ha_bu_groups -> set_bu_groups t tunnel entry.Mipv6.Binding_cache.groups
  | Ha_pim_tunnel_mld -> start_tunnel_mld t tunnel

let clear_binding_side_effects t tunnel home =
  Network.release_address t.net t.node ~link:tunnel.home_link home;
  let groups = Addr.Set.elements tunnel.bu_groups in
  tunnel.bu_groups <- Addr.Set.empty;
  listeners_gone t tunnel groups;
  stop_tunnel_mld t tunnel

let on_binding_added t entry =
  let home = entry.Mipv6.Binding_cache.home in
  provision_mobile_host t ~home;
  let tunnel = Hashtbl.find t.tunnels_by_home home in
  trace t
    (Node_event.Binding_added
       { label = t.label;
         home;
         care_of = entry.Mipv6.Binding_cache.care_of;
         groups = List.length entry.Mipv6.Binding_cache.groups });
  lmark t "tunnel-up"
    [ ("home", Addr.to_string home);
      ("care-of", Addr.to_string entry.Mipv6.Binding_cache.care_of) ];
  if is_active_home_agent t tunnel.home_link then apply_binding_side_effects t tunnel entry

let on_binding_refreshed t ~previous:_ entry =
  let home = entry.Mipv6.Binding_cache.home in
  match Hashtbl.find_opt t.tunnels_by_home home with
  | None -> ()
  | Some tunnel ->
    if is_active_home_agent t tunnel.home_link then begin
      match t.config.ha_mode with
      | Ha_bu_groups -> set_bu_groups t tunnel entry.Mipv6.Binding_cache.groups
      | Ha_pim_tunnel_mld -> ()
    end

let on_binding_removed t entry =
  let home = entry.Mipv6.Binding_cache.home in
  match Hashtbl.find_opt t.tunnels_by_home home with
  | None -> ()
  | Some tunnel ->
    clear_binding_side_effects t tunnel home;
    trace t (Node_event.Binding_removed { label = t.label; home })

(* A binding is about to lapse without a refresh: probe the mobile
   node with a Binding Request (draft section 6.3); its answer is a
   fresh Binding Update. *)
let on_binding_expiring t (entry : Mipv6.Binding_cache.entry) =
  let home = entry.Mipv6.Binding_cache.home in
  match Topology.link_of_address (topo t) home with
  | Some home_link when is_active_home_agent t home_link ->
    let src =
      if t.config.ha_failover then ha_service_address (topo t) home_link
      else address_on t home_link
    in
    let request =
      Packet.make ~src ~dst:entry.Mipv6.Binding_cache.care_of
        ~dest_options:[ Packet.Binding_request; Packet.Home_address home ]
        Packet.Empty
    in
    trace t
      (Node_event.Binding_request_sent
         { label = t.label; care_of = entry.Mipv6.Binding_cache.care_of });
    forward_unicast t request
  | Some _ | None -> ()

let bindings t =
  match t.cache with
  | None -> []
  | Some c -> Mipv6.Binding_cache.entries c

let bindings_on t link =
  List.filter
    (fun (e : Mipv6.Binding_cache.entry) ->
      Topology.link_of_address (topo t) e.Mipv6.Binding_cache.home = Some link)
    (bindings t)

(* ---- home-agent redundancy (heartbeat election + binding sync) ---- *)

let remaining_lifetime t (entry : Mipv6.Binding_cache.entry) =
  int_of_float
    (Engine.Time.seconds
       (Engine.Time.sub entry.Mipv6.Binding_cache.expires_at (Engine.Sim.now (sim t))))

(* Replicate a binding to a standby peer as a copy of the Binding
   Update; the standby caches it without answering. *)
let sync_binding_to_peer t link peer_addr (entry : Mipv6.Binding_cache.entry) =
  let sub_options =
    match entry.Mipv6.Binding_cache.groups with
    | [] -> []
    | groups -> [ Packet.Multicast_group_list groups ]
  in
  let bu =
    { Packet.sequence = entry.Mipv6.Binding_cache.sequence;
      lifetime_s = max 1 (remaining_lifetime t entry);
      home_registration = true;
      care_of = entry.Mipv6.Binding_cache.care_of;
      sub_options }
  in
  let packet =
    Packet.make ~src:(address_on t link) ~dst:peer_addr
      ~dest_options:[ Packet.Binding_update bu; Packet.Home_address entry.Mipv6.Binding_cache.home ]
      Packet.Empty
  in
  forward_unicast t packet

let sync_bindings_to_peer t link peer_addr =
  List.iter (sync_binding_to_peer t link peer_addr) (bindings_on t link)

let activate_home_agent t st =
  if not st.hl_active then begin
    st.hl_active <- true;
    let service = ha_service_address (topo t) st.hl_link in
    Network.claim_address t.net t.node ~link:st.hl_link service;
    t.own_addrs <- Addr.Set.add service t.own_addrs;
    List.iter
      (fun (entry : Mipv6.Binding_cache.entry) ->
        match Hashtbl.find_opt t.tunnels_by_home entry.Mipv6.Binding_cache.home with
        | Some tunnel -> apply_binding_side_effects t tunnel entry
        | None -> ())
      (bindings_on t st.hl_link);
    trace t
      (Node_event.Home_agent_active
         { label = t.label; link = Topology.link_name (topo t) st.hl_link })
  end

let deactivate_home_agent t st =
  if st.hl_active then begin
    st.hl_active <- false;
    let service = ha_service_address (topo t) st.hl_link in
    Network.release_address t.net t.node ~link:st.hl_link service;
    t.own_addrs <- Addr.Set.remove service t.own_addrs;
    List.iter
      (fun (entry : Mipv6.Binding_cache.entry) ->
        match Hashtbl.find_opt t.tunnels_by_home entry.Mipv6.Binding_cache.home with
        | Some tunnel -> clear_binding_side_effects t tunnel entry.Mipv6.Binding_cache.home
        | None -> ())
      (bindings_on t st.hl_link);
    trace t
      (Node_event.Home_agent_standby
         { label = t.label; link = Topology.link_name (topo t) st.hl_link })
  end

let evaluate_ha_election t st =
  let mine = Node_id.to_int t.node in
  let lowest_peer =
    Hashtbl.fold (fun _ p acc -> min acc p.peer_priority) st.hl_peers max_int
  in
  if mine < lowest_peer then begin
    activate_home_agent t st;
    (* Re-assert ownership of the service address: a peer that started
       after us may have claimed it during its own brief
       assumed-active window. *)
    Network.claim_address t.net t.node ~link:st.hl_link
      (ha_service_address (topo t) st.hl_link)
  end
  else deactivate_home_agent t st

let handle_heartbeat t ~link ~src ~priority =
  if t.config.ha_failover then
    match Hashtbl.find_opt t.ha_states link with
    | None -> ()
    | Some st ->
      let holdtime = 3.5 *. t.config.ha_heartbeat_interval in
      (match Hashtbl.find_opt st.hl_peers src with
       | Some peer ->
         peer.peer_priority <- priority;
         Engine.Timer.start peer.peer_expiry holdtime
       | None ->
         let expiry =
           Engine.Timer.create ~category:"mipv6" (sim t)
             ~name:(Printf.sprintf "%s.hapeer.%s" t.label (Addr.to_string src))
             ~on_expire:(fun () ->
               Hashtbl.remove st.hl_peers src;
               trace t (Node_event.Home_agent_peer_timed_out { label = t.label; peer = src });
               if t.running then evaluate_ha_election t st)
         in
         Hashtbl.replace st.hl_peers src { peer_priority = priority; peer_expiry = expiry };
         Engine.Timer.start expiry holdtime;
         trace t (Node_event.Home_agent_peer { label = t.label; peer = src; priority });
         (* A newly seen peer may have just (re)started: replicate our
            bindings so its cache converges. *)
         sync_bindings_to_peer t link src);
      evaluate_ha_election t st

let send_heartbeat t st =
  st.hl_seq <- (st.hl_seq + 1) land 0xffff;
  let msg =
    Nd_message.Home_agent_heartbeat { priority = Node_id.to_int t.node; sequence = st.hl_seq }
  in
  transmit t ~link:st.hl_link Network.To_all
    (Packet.make ~hop_limit:1 ~src:(address_on t st.hl_link) ~dst:Addr.all_routers
       (Packet.Nd msg))

let serves_home_address t home =
  match Topology.link_of_address (topo t) home with
  | Some l -> List.exists (Link_id.equal l) t.config.ha_links
  | None -> false

let process_binding_update t packet (bu : Packet.binding_update) =
  t.load.Load.control_messages <- t.load.Load.control_messages + 1;
  match Packet.find_home_address packet with
  | None -> trace t (Node_event.Update_without_home_address t.label)
  | Some home ->
    if serves_home_address t home then begin
      let home_link =
        match Topology.link_of_address (topo t) home with
        | Some l -> l
        | None -> List.hd t.links
      in
      (* With failover enabled, a Binding Update addressed to our own
         unicast address (rather than the link's service address) is a
         replica from the active peer: cache it silently. *)
      let is_sync =
        t.config.ha_failover
        && not (Addr.equal packet.Packet.dst (ha_service_address (topo t) home_link))
      in
      let status, lifetime =
        match Mipv6.Binding_cache.process_update (cache t) ~home bu with
        | Ok entry ->
          (Mipv6.Binding_cache.status_accepted, max 0 (remaining_lifetime t entry))
        | Error status -> (status, 0)
      in
      if not is_sync then begin
        if status = Mipv6.Binding_cache.status_accepted then
          lmark t "bu-received"
            [ ("home", Addr.to_string home);
              ("care-of", Addr.to_string bu.Packet.care_of) ];
        let src =
          if t.config.ha_failover then ha_service_address (topo t) home_link
          else address_on t home_link
        in
        let ack =
          Packet.make ~src ~dst:bu.Packet.care_of
            ~dest_options:
              [ Packet.Binding_acknowledgement
                  { status; ack_sequence = bu.Packet.sequence; ack_lifetime_s = lifetime } ]
            Packet.Empty
        in
        forward_unicast t ack;
        (* Replicate to the standby peers. *)
        if t.config.ha_failover && status = Mipv6.Binding_cache.status_accepted then
          match (Hashtbl.find_opt t.ha_states home_link, binding_for t home) with
          | Some st, Some entry ->
            Hashtbl.iter
              (fun peer_addr _ -> sync_binding_to_peer t home_link peer_addr entry)
              st.hl_peers
          | _, _ -> ()
      end
    end
    else trace t (Node_event.Update_for_unserved_home { label = t.label; home })

(* ---- receive paths ---- *)

let handle_tunnelled_mld t inner =
  (* An MLD message from a mobile host through its tunnel
     (Ha_pim_tunnel_mld mode): dispatch to the virtual interface's MLD
     router instance, keyed by the inner source (the home address). *)
  match Hashtbl.find_opt t.tunnels_by_home inner.Packet.src with
  | None -> ()
  | Some tunnel -> (
    match (tunnel.tunnel_mld, inner.Packet.payload) with
    | Some mld, Packet.Mld msg ->
      t.load.Load.control_messages <- t.load.Load.control_messages + 1;
      Mld.Mld_router.handle mld ~src:inner.Packet.src msg
    | (Some _ | None), _ -> ())

let reinject_from_reverse_tunnel t inner =
  (* Paper, section 4.2.2 B: decapsulate and forward on the home link;
     from there normal PIM-DM distribution applies. *)
  match Topology.link_of_address (topo t) inner.Packet.src with
  | Some home_link when Topology.is_attached (topo t) t.node home_link ->
    transmit t ~link:home_link Network.To_all inner;
    (match t.pim with
     | Some p ->
       let chan = (Network.channel t.net inner :> int) in
       Pimdm.Pim_router.handle_data p ~iface:(Link_id.to_int home_link) ~chan inner
     | None -> ())
  | Some _ | None ->
    trace t (Node_event.Reverse_tunnel_not_home { label = t.label; src = inner.Packet.src })

let dispatch_decapsulated t inner =
  match inner.Packet.payload with
  | Packet.Mld _ -> handle_tunnelled_mld t inner
  | Packet.Data _ | Packet.Encapsulated _ | Packet.Empty | Packet.Pim _ | Packet.Nd _ ->
    if Packet.is_multicast_dst inner then reinject_from_reverse_tunnel t inner
    else forward_unicast t inner

let local_process t packet =
  (match Packet.find_binding_update packet with
   | Some bu -> process_binding_update t packet bu
   | None -> ());
  match packet.Packet.payload with
  | Packet.Encapsulated inner -> (
    t.load.Load.decapsulations <- t.load.Load.decapsulations + 1;
    match lineage t with
    | None -> dispatch_decapsulated t inner
    | Some c ->
      let at = Engine.Sim.now (sim t) in
      let id =
        Engine.Span.open_span c ~at ~name:(Engine.Span.intern c "decap") ~node:t.label
          ~attrs:[ ("inner", Packet.label inner) ] ()
      in
      Engine.Span.within c id (fun () -> dispatch_decapsulated t inner);
      Engine.Span.close_span c ~at id)
  | Packet.Data _ | Packet.Mld _ | Packet.Pim _ | Packet.Nd _ | Packet.Empty -> ()

let handle_unicast t packet =
  if Addr.Set.mem packet.Packet.dst t.own_addrs then local_process t packet
  else
    match binding_for t packet.Packet.dst with
    | Some entry -> intercept_to_mobile t entry packet
    | None ->
      if packet.Packet.hop_limit <= 1 then begin
        t.load.Load.hop_limit_expired <- t.load.Load.hop_limit_expired + 1;
        ldrop t Engine.Span.Hop_limit (Addr.to_string packet.Packet.dst);
        trace t (Node_event.Hop_limit_exceeded { label = t.label; dst = packet.Packet.dst })
      end
      else forward_unicast t { packet with Packet.hop_limit = packet.Packet.hop_limit - 1 }

let handle_multicast t ~link ~chan packet =
  match packet.Packet.payload with
  | Packet.Mld msg -> (
    t.load.Load.control_messages <- t.load.Load.control_messages + 1;
    match mld_on t link with
    | Some mld -> Mld.Mld_router.handle mld ~src:packet.Packet.src msg
    | None -> ())
  | Packet.Pim msg ->
    t.load.Load.control_messages <- t.load.Load.control_messages + 1;
    (match t.pim with
     | Some p ->
       Pimdm.Pim_router.handle_message p ~iface:(Link_id.to_int link) ~src:packet.Packet.src
         msg
     | None -> ())
  | Packet.Nd msg -> (
    t.load.Load.control_messages <- t.load.Load.control_messages + 1;
    match msg with
    | Nd_message.Home_agent_heartbeat { priority; _ } ->
      handle_heartbeat t ~link ~src:packet.Packet.src ~priority
    | Nd_message.Router_advertisement _ -> ())
  | Packet.Data _ | Packet.Encapsulated _ | Packet.Empty -> (
    (* Only globally scoped groups are routed; link-scope traffic stays
       on its link. *)
    match Addr.multicast_scope packet.Packet.dst with
    | Some scope when scope > 2 -> (
      match t.pim with
      | Some p ->
        Pimdm.Pim_router.handle_data p ~iface:(Link_id.to_int link)
          ~chan:(chan : Ids.Channel_id.t :> int)
          packet
      | None -> ())
    | Some _ | None -> ())

let on_receive t ~link ~from:_ ~chan packet =
  if t.running then begin
    t.load.Load.packets_processed <- t.load.Load.packets_processed + 1;
    if Packet.is_multicast_dst packet then handle_multicast t ~link ~chan packet
    else handle_unicast t packet
  end

(* ---- construction ---- *)

let create net node config =
  let topo = Network.topology net in
  let label = Topology.node_name topo node in
  let links = Topology.links_of_node topo node in
  { net;
    node;
    config;
    links;
    label;
    load = Load.create ();
    link_ids = Array.of_list (List.map Link_id.to_int links);
    mld_routers = Array.make (List.length links) None;
    pim = None;
    cache = None;
    tunnels_by_home = Hashtbl.create 4;
    tunnels_by_viface = Hashtbl.create 4;
    own_addrs = Addr.Set.empty;
    next_viface = viface_base;
    running = false;
    failed = false;
    ha_states = Hashtbl.create 2;
    ra_timers = [];
    rng = Engine.Rng.split (Engine.Sim.rng (Network.sim net)) }

let make_pim_env t =
  let real_ifaces () = List.map Link_id.to_int t.links in
  let vifaces () = Hashtbl.fold (fun v _ acc -> v :: acc) t.tunnels_by_viface [] in
  let link_of_iface iface = Link_id.of_int iface in
  { Pimdm.Pim_env.sim = sim t;
    trace = Network.trace t.net;
    rng = Engine.Rng.split (Engine.Sim.rng (sim t));
    config = t.config.pim;
    label = t.label;
    interfaces = (fun () -> real_ifaces () @ List.sort Int.compare (vifaces ()));
    local_address =
      (fun iface -> if iface >= viface_base then address_on t (List.hd t.links) else link_local t);
    send_message =
      (fun iface msg ->
        if iface < viface_base then
          let packet =
            Packet.make ~hop_limit:1 ~src:(link_local t) ~dst:Addr.all_pim_routers
              (Packet.Pim msg)
          in
          transmit t ~link:(link_of_iface iface) Network.To_all packet);
    forward_data =
      (fun iface packet ->
        if iface >= viface_base then begin
          match Hashtbl.find_opt t.tunnels_by_viface iface with
          | Some tunnel -> send_through_tunnel t tunnel packet
          | None -> ()
        end
        else transmit t ~link:(link_of_iface iface) Network.To_all packet);
    rpf =
      (fun ~source ->
        match Routing.rpf (Network.routing t.net) ~at:t.node ~source with
        | None -> None
        | Some (link, upstream_node, metric) ->
          Some
            { Pimdm.Pim_env.rpf_iface = Link_id.to_int link;
              upstream = Option.map (Topology.link_local (topo t)) upstream_node;
              metric });
    has_local_members =
      (fun iface group ->
        if iface >= viface_base then
          match Hashtbl.find_opt t.tunnels_by_viface iface with
          | None -> false
          | Some tunnel -> (
            match t.config.ha_mode with
            | Ha_bu_groups -> Addr.Set.mem group tunnel.bu_groups
            | Ha_pim_tunnel_mld -> (
              match tunnel.tunnel_mld with
              | Some mld -> Mld.Mld_router.has_listeners mld group
              | None -> false))
        else
          match mld_on t (link_of_iface iface) with
          | Some mld -> Mld.Mld_router.has_listeners mld group
          | None -> false);
    flood_eligible = (fun iface -> iface < viface_base) }

let make_mld_router t link =
  let iface = Link_id.to_int link in
  let env =
    { Mld.Mld_env.sim = sim t;
      trace = Network.trace t.net;
      rng = Engine.Rng.split (Engine.Sim.rng (sim t));
      config = t.config.mld;
      local_address = (fun () -> link_local t);
      send = (fun packet -> transmit t ~link Network.To_all packet);
      label = Printf.sprintf "%s/%s" t.label (Topology.link_name (topo t) link) }
  in
  let callbacks =
    { Mld.Mld_router.listener_added =
        (fun group ->
          match t.pim with
          | Some p -> Pimdm.Pim_router.local_members_changed p ~iface ~group ~present:true
          | None -> ());
      listener_removed =
        (fun group ->
          match t.pim with
          | Some p -> Pimdm.Pim_router.local_members_changed p ~iface ~group ~present:false
          | None -> ()) }
  in
  Mld.Mld_router.create env callbacks

let start_heartbeats t =
  if t.config.ha_failover then
    List.iter
      (fun link ->
        let st =
          match Hashtbl.find_opt t.ha_states link with
          | Some st -> st
          | None ->
            let st =
              { hl_link = link;
                hl_active = false;
                hl_peers = Hashtbl.create 2;
                hl_seq = 0;
                hl_timer = None }
            in
            Hashtbl.replace t.ha_states link st;
            st
        in
        let rec tick () =
          if t.running then begin
            send_heartbeat t st;
            let timer =
              match st.hl_timer with
              | Some timer -> timer
              | None ->
                let timer =
                  Engine.Timer.create ~category:"mipv6" (sim t)
                    ~name:(Printf.sprintf "%s.hb.%s" t.label
                             (Topology.link_name (topo t) link))
                    ~on_expire:(fun () -> tick ())
                in
                st.hl_timer <- Some timer;
                timer
            in
            Engine.Timer.start timer t.config.ha_heartbeat_interval
          end
        in
        tick ();
        (* Alone until proven otherwise: assume service immediately. *)
        evaluate_ha_election t st)
      t.config.ha_links

let start_router_advertisements t =
  match t.config.ra_interval with
  | None -> ()
  | Some interval ->
    t.ra_timers <-
      List.map
        (fun link ->
          let prefix = Topology.link_prefix (topo t) link in
          let rec timer =
            lazy
              (Engine.Timer.create ~category:"mipv6" (sim t)
                 ~name:(Printf.sprintf "%s.ra.%s" t.label (Topology.link_name (topo t) link))
                 ~on_expire:(fun () -> tick ()))
          and tick () =
            if t.running then begin
              transmit t ~link Network.To_all
                (Packet.make ~hop_limit:1 ~src:(link_local t) ~dst:Addr.all_nodes
                   (Packet.Nd
                      (Nd_message.Router_advertisement
                         { prefix;
                           router_lifetime_s = 1800;
                           interval_ms =
                             int_of_float (Engine.Time.milliseconds interval) })));
              (* +-10% jitter desynchronises the advertisers. *)
              Engine.Timer.start (Lazy.force timer)
                (Engine.Rng.uniform t.rng (0.9 *. interval) (1.1 *. interval))
            end
          in
          tick ();
          Lazy.force timer)
        t.links

let start t =
  if not t.running then begin
    t.running <- true;
    t.failed <- false;
    (* Claim our addresses so neighbour resolution finds us. *)
    List.iter
      (fun link ->
        let addr = address_on t link in
        Network.claim_address t.net t.node ~link addr;
        Network.claim_address t.net t.node ~link (link_local t);
        t.own_addrs <- Addr.Set.add addr t.own_addrs)
      t.links;
    t.own_addrs <- Addr.Set.add (link_local t) t.own_addrs;
    t.pim <- Some (Pimdm.Pim_router.create (make_pim_env t));
    if t.config.ha_links <> [] then
      t.cache <-
        Some
          (Mipv6.Binding_cache.create (sim t)
             { Mipv6.Binding_cache.added = (fun entry -> on_binding_added t entry);
               refreshed = (fun ~previous entry -> on_binding_refreshed t ~previous entry);
               removed = (fun entry -> on_binding_removed t entry);
               expiring = (fun entry -> on_binding_expiring t entry) });
    List.iteri (fun i link -> t.mld_routers.(i) <- Some (make_mld_router t link)) t.links;
    Network.set_handler t.net t.node (fun ~link ~from ~chan packet ->
        on_receive t ~link ~from ~chan packet);
    Pimdm.Pim_router.start (pim t);
    iter_mld t Mld.Mld_router.start;
    (* When failover is off, a served link's agent is always active. *)
    start_heartbeats t;
    start_router_advertisements t
  end

let stop t =
  if t.running then begin
    t.running <- false;
    (match t.pim with
     | Some p -> Pimdm.Pim_router.stop p
     | None -> ());
    iter_mld t Mld.Mld_router.stop;
    Hashtbl.iter (fun _ tunnel -> stop_tunnel_mld t tunnel) t.tunnels_by_home;
    List.iter Engine.Timer.stop t.ra_timers;
    Hashtbl.iter
      (fun _ st ->
        (match st.hl_timer with
         | Some timer -> Engine.Timer.stop timer
         | None -> ());
        Hashtbl.iter (fun _ p -> Engine.Timer.stop p.peer_expiry) st.hl_peers;
        Hashtbl.reset st.hl_peers)
      t.ha_states
  end

(* ---- crash injection ---- *)

let is_failed t = t.failed

let fail t =
  if t.running then begin
    stop t;
    t.failed <- true;
    (* RAM is gone: the binding cache empties without farewell
       side effects (the dangling address claims stay, black-holing
       traffic like a dead box would). *)
    (match t.cache with
     | Some c -> Mipv6.Binding_cache.clear c
     | None -> ());
    Hashtbl.iter
      (fun _ tunnel -> tunnel.bu_groups <- Addr.Set.empty)
      t.tunnels_by_home;
    Hashtbl.iter (fun _ st -> st.hl_active <- false) t.ha_states;
    trace t (Node_event.Crashed t.label)
  end

let recover t =
  if t.failed then begin
    t.failed <- false;
    t.running <- true;
    Pimdm.Pim_router.start (pim t);
    iter_mld t Mld.Mld_router.start;
    start_heartbeats t;
    start_router_advertisements t;
    trace t (Node_event.Recovered t.label)
  end

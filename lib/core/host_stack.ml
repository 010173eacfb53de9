open Ipv6
open Net
module Node_id = Ids.Node_id
module Link_id = Ids.Link_id
module Channel_id = Ids.Channel_id

type detection_mode =
  | Fixed_delay
  | Router_advertisements

type config = {
  approach : Approach.t;
  mld : Mld.Mld_config.t;
  mipv6 : Mipv6.Mipv6_config.t;
  ha_mode : Router_stack.ha_mode;
  detection : detection_mode;
  use_ha_service_address : bool;
}

let default_config =
  { approach = Approach.local_membership;
    mld = Mld.Mld_config.default;
    mipv6 = Mipv6.Mipv6_config.default;
    ha_mode = Router_stack.Ha_bu_groups;
    detection = Fixed_delay;
    use_ha_service_address = false }

type detected_location =
  | Home
  | Foreign of Addr.t  (* care-of address *)

type rx_stats = {
  mutable count : int;
  mutable dups : int;
  mutable first_after_attach : Engine.Time.t option;
}

(* Stream ids and sequence numbers: hashed without a C call. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash i = i land max_int
end)

module Addr_tbl = Hashtbl.Make (Addr)

(* The seqs delivered of one stream, as bitmap pages of 4096 seqs keyed
   by [seq lsr page_bits].  A stream's seqs climb, so one page serves
   4096 deliveries and the page in use is remembered: marking a seq is
   a bit test, and the set costs a bit per seq instead of a hash-table
   binding. *)
type seqs = {
  pages : Bytes.t Int_tbl.t;
  mutable page_no : int;  (* [page]'s key; -1 = none yet *)
  mutable page : Bytes.t;
}

let page_bits = 12

let new_seqs () = { pages = Int_tbl.create 4; page_no = -1; page = Bytes.empty }

(* Mark [seq] delivered; whether it already was. *)
let seen_before s seq =
  let no = seq lsr page_bits in
  if no <> s.page_no then begin
    let page =
      match Int_tbl.find_opt s.pages no with
      | Some page -> page
      | None ->
        let page = Bytes.make (1 lsl (page_bits - 3)) '\000' in
        Int_tbl.replace s.pages no page;
        page
    in
    s.page_no <- no;
    s.page <- page
  end;
  let bit = seq land ((1 lsl page_bits) - 1) in
  let byte = Char.code (Bytes.unsafe_get s.page (bit lsr 3)) in
  let mask = 1 lsl (bit land 7) in
  byte land mask <> 0
  || begin
    Bytes.unsafe_set s.page (bit lsr 3) (Char.unsafe_chr (byte lor mask));
    false
  end

type t = {
  net : Network.t;
  node : Node_id.t;
  cfg : config;
  home_link : Link_id.t;
  home_address : Addr.t;
  home_agent : Addr.t;
  label : string;
  load : Load.t;
  mutable mobile : Mipv6.Mobile_node.t option;
  mutable current_link : Link_id.t;
  mutable detected : detected_location;
  mutable pending_detection : Engine.Sim.handle option;
  mutable awaiting_detection : bool;
  mutable mld_local : Mld.Mld_host.t option;
  mutable mld_tunnel : Mld.Mld_host.t option;
  mutable subscriptions : Addr.Set.t;
  mutable on_data : (group:Addr.t -> Packet.t -> unit) option;
  mutable data_observers : (group:Addr.t -> Packet.t -> unit) list;
  rx : rx_stats Addr_tbl.t;  (* by group *)
  mutable rx_by_chan : rx_stats option array;
      (* by the network's channel id of the datagrams' (S,G): several
         sources' channels share their group's record *)
  seen : seqs Int_tbl.t;  (* by stream id *)
  mutable last_stream : int;  (* the stream of [last_seqs]; -1 = none *)
  mutable last_seqs : seqs;
  mutable attached_at : Engine.Time.t;
  mutable seq : int;
  mutable sent : int;
  mutable running : bool;
}

let node_id t = t.node
let name t = t.label
let load t = t.load
let config t = t.cfg

let mobile t =
  match t.mobile with
  | Some m -> m
  | None -> invalid_arg "Host_stack: not started"

let home_address t = t.home_address
let home_link t = t.home_link
let current_link t = t.current_link

let sim t = Network.sim t.net
let topo t = Network.topology t.net

let trace t event = Engine.Trace.record (Network.trace t.net) ~category:"node" event

let lineage t = Engine.Sim.lineage (sim t)

let lmark t name attrs =
  match lineage t with
  | None -> ()
  | Some c ->
    Engine.Span.mark c ~at:(Engine.Sim.now (sim t)) ~name ~node:t.label ~attrs ()

let current_source_address t =
  match t.detected with
  | Home -> t.home_address
  | Foreign coa -> coa

let at_home t = t.detected = Home

let subscriptions t = t.subscriptions

(* ---- sending ---- *)

let gateway t =
  match Topology.routers_on_link (topo t) t.current_link with
  | [] -> None
  | r :: _ -> Some r

let send_unicast t packet =
  (* Off-link traffic goes to the default router; on-link traffic is
     delivered directly. *)
  let on_link =
    match Topology.link_of_address (topo t) packet.Packet.dst with
    | Some l -> Link_id.equal l t.current_link
    | None -> false
  in
  if on_link then begin
    match Network.resolve t.net ~link:t.current_link packet.Packet.dst with
    | Some target ->
      Network.transmit t.net ~from:t.node ~link:t.current_link (Network.To_node target) packet
    | None -> trace t (Node_event.No_on_link_neighbour { label = t.label; dst = packet.Packet.dst })
  end
  else
    match gateway t with
    | Some router ->
      Network.transmit t.net ~from:t.node ~link:t.current_link (Network.To_node router) packet
    | None -> trace t
        (Node_event.No_router
           { label = t.label; link = Topology.link_name (topo t) t.current_link })

let send_data t ~group ~bytes =
  if t.running then begin
    t.seq <- t.seq + 1;
    t.sent <- t.sent + 1;
    let payload =
      Packet.Data { stream_id = Node_id.to_int t.node; seq = t.seq; bytes }
    in
    match (t.detected, t.cfg.approach.Approach.send) with
    | Home, _ | Foreign _, Approach.Send_local -> (
      (* Local sending; during the movement-detection window the source
         address is the stale one (paper, section 4.3.1). *)
      let packet = Packet.make ~src:(current_source_address t) ~dst:group payload in
      let send () =
        Network.transmit t.net ~from:t.node ~link:t.current_link Network.To_all packet
      in
      match lineage t with
      | None -> send ()
      | Some c ->
        (* The injection span roots this packet's trace; everything the
           engine does with the packet hangs off it. *)
        let at = Engine.Sim.now (sim t) in
        let id =
          Engine.Span.open_span c ~at ~name:(Network.span_name c Engine.Span.Inject packet)
            ~node:t.label ()
        in
        Engine.Span.within c id send;
        Engine.Span.close_span c ~at id)
    | Foreign coa, Approach.Send_tunnel -> (
      (* Reverse tunnel: home address inside, care-of outside
         (Figure 4). *)
      let inner = Packet.make ~src:t.home_address ~dst:group payload in
      let outer = Mipv6.Tunnel.mobile_to_home_agent ~care_of:coa ~home_agent:t.home_agent inner in
      t.load.Load.encapsulations <- t.load.Load.encapsulations + 1;
      match lineage t with
      | None -> send_unicast t outer
      | Some c ->
        let at = Engine.Sim.now (sim t) in
        let id =
          Engine.Span.open_span c ~at ~name:(Network.span_name c Engine.Span.Inject inner)
            ~node:t.label ()
        in
        let enc =
          Engine.Span.open_span c ~at ~name:(Engine.Span.intern c "encap") ~node:t.label
            ~parent:id
            ~attrs:[ ("inner", Packet.label inner); ("care-of", Addr.to_string coa) ]
            ()
        in
        Engine.Span.within c enc (fun () -> send_unicast t outer);
        Engine.Span.close_span c ~at enc;
        Engine.Span.close_span c ~at id)
  end

(* ---- MLD host instances ---- *)

let make_local_mld t =
  let env =
    { Mld.Mld_env.sim = sim t;
      trace = Network.trace t.net;
      rng = Engine.Rng.split (Engine.Sim.rng (sim t));
      config = t.cfg.mld;
      local_address = (fun () -> current_source_address t);
      send =
        (fun packet ->
          Network.transmit t.net ~from:t.node ~link:t.current_link Network.To_all packet);
      label = t.label ^ "/local" }
  in
  Mld.Mld_host.create env

let make_tunnel_mld t =
  let env =
    { Mld.Mld_env.sim = sim t;
      trace = Network.trace t.net;
      rng = Engine.Rng.split (Engine.Sim.rng (sim t));
      config = t.cfg.mld;
      local_address = (fun () -> t.home_address);
      send =
        (fun packet ->
          match t.detected with
          | Foreign coa ->
            t.load.Load.encapsulations <- t.load.Load.encapsulations + 1;
            send_unicast t
              (Mipv6.Tunnel.mobile_to_home_agent ~care_of:coa ~home_agent:t.home_agent packet)
          | Home -> ());
      label = t.label ^ "/tunnel" }
  in
  Mld.Mld_host.create env

(* Router-advertisement-based movement detection needs to call
   [finalize_attach], which is defined later; wired through this
   forward reference. *)
let finalize_hook : (t -> unit) ref = ref (fun _ -> ())

let handle_nd t ~link (msg : Ipv6.Nd_message.t) =
  match msg with
  | Ipv6.Nd_message.Router_advertisement { prefix; _ } ->
    (* The first advertisement heard on a new link reveals the
       movement (and carries the prefix for the care-of address). *)
    if
      t.cfg.detection = Router_advertisements
      && t.awaiting_detection
      && Link_id.equal link t.current_link
      && Prefix.equal prefix (Topology.link_prefix (topo t) t.current_link)
    then begin
      trace t
        (Node_event.Movement_detected
           { label = t.label; link = Topology.link_name (topo t) link });
      !finalize_hook t
    end
  | Ipv6.Nd_message.Home_agent_heartbeat _ -> ()

(* ---- application receive ---- *)

let rx_stats t group =
  match Addr_tbl.find_opt t.rx group with
  | Some s -> s
  | None ->
    let s = { count = 0; dups = 0; first_after_attach = None } in
    Addr_tbl.replace t.rx group s;
    s

(* The group's record through the channel of a received datagram: an
   array read after the channel's first datagram. *)
let rx_stats_of_chan t ~chan group =
  let c = (chan : Channel_id.t :> int) in
  if c < 0 then rx_stats t group
  else begin
    let len = Array.length t.rx_by_chan in
    if c >= len then begin
      let grown = Array.make (max (c + 1) (2 * len)) None in
      Array.blit t.rx_by_chan 0 grown 0 len;
      t.rx_by_chan <- grown
    end;
    match Array.unsafe_get t.rx_by_chan c with
    | Some s -> s
    | None ->
      let s = rx_stats t group in
      t.rx_by_chan.(c) <- Some s;
      s
  end

let seen_of_stream t stream_id =
  if stream_id = t.last_stream then t.last_seqs
  else begin
    let seen =
      match Int_tbl.find_opt t.seen stream_id with
      | Some seen -> seen
      | None ->
        let seen = new_seqs () in
        Int_tbl.replace t.seen stream_id seen;
        seen
    in
    t.last_stream <- stream_id;
    t.last_seqs <- seen;
    seen
  end

let deliver_app t ~chan ~group packet =
  match packet.Packet.payload with
  | Packet.Data { stream_id; seq; _ } ->
    let s = rx_stats_of_chan t ~chan group in
    if seen_before (seen_of_stream t stream_id) seq then s.dups <- s.dups + 1
    else begin
      s.count <- s.count + 1;
      let first = s.first_after_attach = None in
      if first then s.first_after_attach <- Some (Engine.Sim.now (sim t));
      (match lineage t with
       | None -> ()
       | Some c ->
         let at = Engine.Sim.now (sim t) in
         let attrs = Network.group_attrs t.net group in
         ignore
           (Engine.Span.event c ~at ~name:(Network.span_name c Engine.Span.Deliver packet)
              ~node:t.label ~attrs ());
         if first then Engine.Span.mark c ~at ~name:"first-delivery" ~node:t.label ~attrs ());
      List.iter (fun observe -> observe ~group packet) t.data_observers;
      match t.on_data with
      | Some f -> f ~group packet
      | None -> ()
    end
  | Packet.Mld _ | Packet.Pim _ | Packet.Nd _ | Packet.Encapsulated _ | Packet.Empty -> ()

let handle_encapsulated_inner t inner =
  match inner.Packet.payload with
  | Packet.Mld msg -> (
    t.load.Load.control_messages <- t.load.Load.control_messages + 1;
    match t.mld_tunnel with
    | Some mld -> Mld.Mld_host.handle mld ~src:inner.Packet.src msg
    | None -> ())
  | Packet.Data _ | Packet.Encapsulated _ | Packet.Empty | Packet.Pim _ | Packet.Nd _ ->
    if Packet.is_multicast_dst inner && Addr.Set.mem inner.Packet.dst t.subscriptions then
      deliver_app t ~chan:Channel_id.none ~group:inner.Packet.dst inner

let handle_encapsulated t inner =
  t.load.Load.decapsulations <- t.load.Load.decapsulations + 1;
  match lineage t with
  | None -> handle_encapsulated_inner t inner
  | Some c ->
    let at = Engine.Sim.now (sim t) in
    let id =
      Engine.Span.open_span c ~at ~name:(Engine.Span.intern c "decap") ~node:t.label
        ~attrs:[ ("inner", Packet.label inner) ] ()
    in
    Engine.Span.within c id (fun () -> handle_encapsulated_inner t inner);
    Engine.Span.close_span c ~at id

let on_receive t ~link ~from:_ ~chan packet =
  if t.running then begin
    t.load.Load.packets_processed <- t.load.Load.packets_processed + 1;
    if Packet.is_multicast_dst packet then begin
      match packet.Packet.payload with
      | Packet.Mld msg -> (
        t.load.Load.control_messages <- t.load.Load.control_messages + 1;
        match t.mld_local with
        | Some mld when Link_id.equal link t.current_link ->
          Mld.Mld_host.handle mld ~src:packet.Packet.src msg
        | Some _ | None -> ())
      | Packet.Data _ -> (
        (* The IP stack only hands multicast to the application for
           groups joined on this interface. *)
        match t.mld_local with
        | Some mld when Mld.Mld_host.is_joined mld packet.Packet.dst ->
          deliver_app t ~chan ~group:packet.Packet.dst packet
        | Some _ | None -> (
          match lineage t with
          | None -> ()
          | Some c ->
            ignore
              (Engine.Span.drop c ~at:(Engine.Sim.now (sim t)) ~node:t.label
                 ~reason:Engine.Span.Not_joined
                 ~detail:(Addr.to_string packet.Packet.dst) ())))
      | Packet.Nd msg -> handle_nd t ~link msg
      | Packet.Pim _ | Packet.Encapsulated _ | Packet.Empty -> ()
    end
    else begin
      (match
         List.find_map
           (function
             | Packet.Binding_acknowledgement ack -> Some ack
             | Packet.Binding_update _ | Packet.Binding_request | Packet.Home_address _ ->
               None)
           packet.Packet.dest_options
       with
       | Some ack ->
         t.load.Load.control_messages <- t.load.Load.control_messages + 1;
         if ack.Packet.status = 0 then lmark t "bu-acked" [];
         (match t.mobile with
          | Some m -> Mipv6.Mobile_node.handle_ack m ack
          | None -> ())
       | None -> ());
      (* A Binding Request from the home agent asks for a fresh
         registration. *)
      if List.mem Packet.Binding_request packet.Packet.dest_options then begin
        t.load.Load.control_messages <- t.load.Load.control_messages + 1;
        match t.mobile with
        | Some m -> Mipv6.Mobile_node.refresh_now m
        | None -> ()
      end;
      match packet.Packet.payload with
      | Packet.Encapsulated inner -> handle_encapsulated t inner
      | Packet.Data _ | Packet.Mld _ | Packet.Pim _ | Packet.Nd _ | Packet.Empty -> ()
    end
  end

(* ---- group management per approach ---- *)

let join_local t group =
  match t.mld_local with
  | Some mld -> Mld.Mld_host.join mld group
  | None -> ()

let establish_receive_paths t =
  let groups = Addr.Set.elements t.subscriptions in
  match t.detected with
  | Home -> List.iter (join_local t) groups
  | Foreign _ -> (
    match t.cfg.approach.Approach.receive with
    | Approach.Receive_local -> List.iter (join_local t) groups
    | Approach.Receive_tunnel -> (
      match t.cfg.ha_mode with
      | Router_stack.Ha_bu_groups ->
        (* Carried by the Binding Update's Multicast Group List
           Sub-Option; nothing further to do here. *)
        ()
      | Router_stack.Ha_pim_tunnel_mld -> (
        match t.mld_tunnel with
        | Some mld -> List.iter (Mld.Mld_host.join mld) groups
        | None -> ())))

let subscribe t group =
  if not (Addr.Set.mem group t.subscriptions) then begin
    t.subscriptions <- Addr.Set.add group t.subscriptions;
    match t.detected with
    | Home -> join_local t group
    | Foreign _ -> (
      match t.cfg.approach.Approach.receive with
      | Approach.Receive_local -> join_local t group
      | Approach.Receive_tunnel -> (
        match t.cfg.ha_mode with
        | Router_stack.Ha_bu_groups ->
          Mipv6.Mobile_node.set_advertised_groups (mobile t) (Addr.Set.elements t.subscriptions)
        | Router_stack.Ha_pim_tunnel_mld -> (
          match t.mld_tunnel with
          | Some mld -> Mld.Mld_host.join mld group
          | None -> ())))
  end

let unsubscribe t group =
  if Addr.Set.mem group t.subscriptions then begin
    t.subscriptions <- Addr.Set.remove group t.subscriptions;
    (match t.mld_local with
     | Some mld -> Mld.Mld_host.leave mld group
     | None -> ());
    (match t.mld_tunnel with
     | Some mld -> Mld.Mld_host.leave mld group
     | None -> ());
    match (t.detected, t.cfg.approach.Approach.receive, t.cfg.ha_mode) with
    | Foreign _, Approach.Receive_tunnel, Router_stack.Ha_bu_groups ->
      Mipv6.Mobile_node.set_advertised_groups (mobile t) (Addr.Set.elements t.subscriptions)
    | _, _, _ -> ()
  end

(* ---- movement ---- *)

let reset_rx_marks t =
  Addr_tbl.iter (fun _ s -> s.first_after_attach <- None) t.rx

let finalize_attach t =
  t.pending_detection <- None;
  t.awaiting_detection <- false;
  lmark t "attach" [ ("link", Topology.link_name (topo t) t.current_link) ];
  let is_home = Link_id.equal t.current_link t.home_link in
  if is_home then begin
    t.detected <- Home;
    Network.claim_address t.net t.node ~link:t.current_link t.home_address;
    Network.claim_address t.net t.node ~link:t.current_link
      (Topology.link_local (topo t) t.node);
    Mipv6.Mobile_node.attach_home (mobile t);
    (match t.mld_tunnel with
     | Some mld ->
       Mld.Mld_host.stop mld;
       t.mld_tunnel <- None
     | None -> ());
    t.mld_local <- Some (make_local_mld t);
    establish_receive_paths t;
    trace t
      (Node_event.Back_home { label = t.label; link = Topology.link_name (topo t) t.current_link })
  end
  else begin
    let coa = Topology.address_on (topo t) t.node t.current_link in
    t.detected <- Foreign coa;
    Network.claim_address t.net t.node ~link:t.current_link coa;
    Network.claim_address t.net t.node ~link:t.current_link
      (Topology.link_local (topo t) t.node);
    (* Register with the home agent; when the approach receives through
       the home agent and signalling is BU-based, the registration
       itself carries the Multicast Group List Sub-Option (Figure 5). *)
    let advertise =
      t.cfg.approach.Approach.receive = Approach.Receive_tunnel
      && t.cfg.ha_mode = Router_stack.Ha_bu_groups
    in
    Mipv6.Mobile_node.set_advertised_groups ~notify:false (mobile t)
      (if advertise then Addr.Set.elements t.subscriptions else []);
    Mipv6.Mobile_node.attach_foreign (mobile t) ~care_of:coa;
    lmark t "bu-sent" [ ("care-of", Addr.to_string coa) ];
    if
      t.cfg.approach.Approach.receive = Approach.Receive_tunnel
      && t.cfg.ha_mode = Router_stack.Ha_pim_tunnel_mld
      && t.mld_tunnel = None
    then t.mld_tunnel <- Some (make_tunnel_mld t);
    (match t.cfg.approach.Approach.receive with
     | Approach.Receive_local -> t.mld_local <- Some (make_local_mld t)
     | Approach.Receive_tunnel -> ());
    establish_receive_paths t;
    trace t
      (Node_event.Care_of_address
         { label = t.label; care_of = coa; link = Topology.link_name (topo t) t.current_link })
  end

let () = finalize_hook := fun t -> if t.running then finalize_attach t

let move_to t link =
  if t.running && not (Link_id.equal link t.current_link) then begin
    (* Link-layer handoff is immediate; IP-layer reaction waits for
       movement detection. *)
    let old_link = t.current_link in
    (match t.detected with
     | Home -> Network.release_address t.net t.node ~link:old_link t.home_address
     | Foreign coa -> Network.release_address t.net t.node ~link:old_link coa);
    Network.release_address t.net t.node ~link:old_link (Topology.link_local (topo t) t.node);
    (match t.mld_local with
     | Some mld ->
       Mld.Mld_host.stop mld;
       t.mld_local <- None
     | None -> ());
    (match t.pending_detection with
     | Some h -> Engine.Sim.cancel (sim t) h
     | None -> ());
    Topology.detach (topo t) t.node old_link;
    Topology.attach (topo t) t.node link;
    t.current_link <- link;
    t.attached_at <- Engine.Sim.now (sim t);
    reset_rx_marks t;
    lmark t "handoff"
      [ ("from", Topology.link_name (topo t) old_link);
        ("to", Topology.link_name (topo t) link) ];
    trace t
      (Node_event.Handoff
         { label = t.label;
           from_link = Topology.link_name (topo t) old_link;
           to_link = Topology.link_name (topo t) link });
    t.awaiting_detection <- true;
    match t.cfg.detection with
    | Fixed_delay ->
      t.pending_detection <-
        Some
          (Engine.Sim.schedule_after ~category:"mipv6" (sim t)
             t.cfg.mipv6.Mipv6.Mipv6_config.movement_detection_delay (fun () ->
               if t.running then finalize_attach t))
    | Router_advertisements ->
      (* Wait for the first advertisement of the new link. *)
      ()
  end

(* ---- instrumentation ---- *)

let set_on_data t f = t.on_data <- Some f

let add_data_observer t f = t.data_observers <- t.data_observers @ [ f ]

let received_count t ~group = (rx_stats t group).count
let duplicate_count t ~group = (rx_stats t group).dups

let arrivals t ~group =
  match Addr_tbl.find t.rx group with
  | s -> s.count + s.dups
  | exception Not_found -> 0
let last_attach_time t = t.attached_at

let first_rx_after_attach t ~group = (rx_stats t group).first_after_attach

let data_sent t = t.sent

(* ---- lifecycle ---- *)

let create ?home_agent net node ~home_link cfg =
  let topo = Network.topology net in
  if not (Topology.is_attached topo node home_link) then
    invalid_arg "Host_stack.create: node must start attached to its home link";
  let home_address = Topology.address_on topo node home_link in
  let home_agent =
    match home_agent with
    | Some addr -> addr
    | None ->
      if cfg.use_ha_service_address then Router_stack.ha_service_address topo home_link
      else (
        match Topology.routers_on_link topo home_link with
        | [] -> invalid_arg "Host_stack.create: no router (home agent) on the home link"
        | r :: _ -> Topology.address_on topo r home_link)
  in
  { net;
    node;
    cfg;
    home_link;
    home_address;
    home_agent;
    label = Topology.node_name topo node;
    load = Load.create ();
    mobile = None;
    current_link = home_link;
    detected = Home;
    pending_detection = None;
    awaiting_detection = false;
    mld_local = None;
    mld_tunnel = None;
    subscriptions = Addr.Set.empty;
    on_data = None;
    data_observers = [];
    rx = Addr_tbl.create 4;
    rx_by_chan = [||];
    seen = Int_tbl.create 4;
    last_stream = -1;
    last_seqs = new_seqs ();
    attached_at = Engine.Time.zero;
    seq = 0;
    sent = 0;
    running = false }

let start t =
  if not t.running then begin
    t.running <- true;
    let env =
      { Mipv6.Mobile_node.sim = sim t;
        trace = Network.trace t.net;
        config = t.cfg.mipv6;
        send = (fun packet -> send_unicast t packet);
        label = t.label }
    in
    t.mobile <-
      Some (Mipv6.Mobile_node.create env ~home_address:t.home_address ~home_agent:t.home_agent);
    Network.claim_address t.net t.node ~link:t.home_link t.home_address;
    Network.claim_address t.net t.node ~link:t.home_link (Topology.link_local (topo t) t.node);
    t.mld_local <- Some (make_local_mld t);
    Network.set_handler t.net t.node (fun ~link ~from ~chan packet ->
        on_receive t ~link ~from ~chan packet);
    t.attached_at <- Engine.Sim.now (sim t)
  end

let stop t =
  if t.running then begin
    t.running <- false;
    (match t.pending_detection with
     | Some h -> Engine.Sim.cancel (sim t) h
     | None -> ());
    (match t.mld_local with
     | Some mld -> Mld.Mld_host.stop mld
     | None -> ());
    (match t.mld_tunnel with
     | Some mld -> Mld.Mld_host.stop mld
     | None -> ());
    match t.mobile with
    | Some m -> Mipv6.Mobile_node.stop m
    | None -> ()
  end

open Ipv6
open Net
module Link_id = Ids.Link_id

type cls =
  | Data_native
  | Data_tunnelled
  | Tunnel_overhead
  | Mld_signalling
  | Pim_signalling
  | Mipv6_signalling
  | Nd_signalling

let all_classes =
  [ Data_native; Data_tunnelled; Tunnel_overhead; Mld_signalling; Pim_signalling;
    Mipv6_signalling; Nd_signalling ]

let class_name = function
  | Data_native -> "data"
  | Data_tunnelled -> "data(tunnel)"
  | Tunnel_overhead -> "tunnel-ovh"
  | Mld_signalling -> "mld"
  | Pim_signalling -> "pim"
  | Mipv6_signalling -> "mipv6"
  | Nd_signalling -> "nd"

type cell = { mutable bytes : int; mutable packets : int }

type control_counts = {
  hellos : int;
  joins : int;
  prunes : int;
  grafts : int;
  graft_acks : int;
  asserts : int;
  state_refreshes : int;
  queries : int;
  reports : int;
  dones : int;
  binding_updates : int;
  binding_acks : int;
  router_advertisements : int;
  heartbeats : int;
}

type mutable_counts = {
  mutable m_hellos : int;
  mutable m_joins : int;
  mutable m_prunes : int;
  mutable m_grafts : int;
  mutable m_graft_acks : int;
  mutable m_asserts : int;
  mutable m_state_refreshes : int;
  mutable m_queries : int;
  mutable m_reports : int;
  mutable m_dones : int;
  mutable m_bus : int;
  mutable m_backs : int;
  mutable m_ras : int;
  mutable m_heartbeats : int;
}

type t = {
  sim : Engine.Sim.t;
  cells : (Link_id.t * cls, cell) Hashtbl.t;
  last_data : (Link_id.t * Addr.t, Engine.Time.t) Hashtbl.t;
  counts : mutable_counts;
}

let cell t link cls =
  match Hashtbl.find_opt t.cells (link, cls) with
  | Some c -> c
  | None ->
    let c = { bytes = 0; packets = 0 } in
    Hashtbl.replace t.cells (link, cls) c;
    c

let account t link cls ~bytes =
  let c = cell t link cls in
  c.bytes <- c.bytes + bytes;
  c.packets <- c.packets + 1

(* Unwrap tunnels to find the semantic payload; charge the wrapper
   headers to Tunnel_overhead. *)
let rec innermost (p : Packet.t) =
  match p.Packet.payload with
  | Packet.Encapsulated inner -> innermost inner
  | Packet.Data _ | Packet.Mld _ | Packet.Pim _ | Packet.Nd _ | Packet.Empty -> p

let census t (p : Packet.t) =
  let c = t.counts in
  List.iter
    (fun opt ->
      match (opt : Packet.dest_option) with
      | Packet.Binding_update _ -> c.m_bus <- c.m_bus + 1
      | Packet.Binding_acknowledgement _ -> c.m_backs <- c.m_backs + 1
      | Packet.Binding_request | Packet.Home_address _ -> ())
    p.Packet.dest_options;
  match (innermost p).Packet.payload with
  | Packet.Pim (Pim_message.Hello _) -> c.m_hellos <- c.m_hellos + 1
  | Packet.Pim (Pim_message.Join_prune { joins; prunes; _ }) ->
    if joins <> [] then c.m_joins <- c.m_joins + 1;
    if prunes <> [] then c.m_prunes <- c.m_prunes + 1
  | Packet.Pim (Pim_message.Graft _) -> c.m_grafts <- c.m_grafts + 1
  | Packet.Pim (Pim_message.Graft_ack _) -> c.m_graft_acks <- c.m_graft_acks + 1
  | Packet.Pim (Pim_message.Assert _) -> c.m_asserts <- c.m_asserts + 1
  | Packet.Pim (Pim_message.State_refresh _) ->
    c.m_state_refreshes <- c.m_state_refreshes + 1
  | Packet.Mld (Mld_message.Query _) -> c.m_queries <- c.m_queries + 1
  | Packet.Mld (Mld_message.Report _) -> c.m_reports <- c.m_reports + 1
  | Packet.Mld (Mld_message.Done _) -> c.m_dones <- c.m_dones + 1
  | Packet.Nd (Nd_message.Router_advertisement _) -> c.m_ras <- c.m_ras + 1
  | Packet.Nd (Nd_message.Home_agent_heartbeat _) -> c.m_heartbeats <- c.m_heartbeats + 1
  | Packet.Data _ | Packet.Empty | Packet.Encapsulated _ -> ()

let classify t link (p : Packet.t) =
  census t p;
  let depth = Packet.tunnel_depth p in
  if depth > 0 then account t link Tunnel_overhead ~bytes:(Packet.header_size * depth);
  let inner = innermost p in
  let inner_size = Packet.size inner in
  match inner.Packet.payload with
  | Packet.Data _ ->
    let cls = if depth > 0 then Data_tunnelled else Data_native in
    account t link cls ~bytes:inner_size;
    if Packet.is_multicast_dst inner then
      Hashtbl.replace t.last_data (link, inner.Packet.dst) (Engine.Sim.now t.sim)
  | Packet.Mld _ -> account t link Mld_signalling ~bytes:inner_size
  | Packet.Pim _ -> account t link Pim_signalling ~bytes:inner_size
  | Packet.Nd _ -> account t link Nd_signalling ~bytes:inner_size
  | Packet.Empty | Packet.Encapsulated _ ->
    (* Empty payloads are Mobile IPv6 signalling (Binding Updates ride
       in destination options). *)
    account t link Mipv6_signalling ~bytes:inner_size

let attach net =
  let t =
    { sim = Network.sim net;
      cells = Hashtbl.create 32;
      last_data = Hashtbl.create 16;
      counts =
        { m_hellos = 0;
          m_joins = 0;
          m_prunes = 0;
          m_grafts = 0;
          m_graft_acks = 0;
          m_asserts = 0;
          m_state_refreshes = 0;
          m_queries = 0;
          m_reports = 0;
          m_dones = 0;
          m_bus = 0;
          m_backs = 0;
          m_ras = 0;
          m_heartbeats = 0 } }
  in
  Network.add_transmit_observer net (fun link _ packet -> classify t link packet);
  t

let control_counts t =
  let c = t.counts in
  { hellos = c.m_hellos;
    joins = c.m_joins;
    prunes = c.m_prunes;
    grafts = c.m_grafts;
    graft_acks = c.m_graft_acks;
    asserts = c.m_asserts;
    state_refreshes = c.m_state_refreshes;
    queries = c.m_queries;
    reports = c.m_reports;
    dones = c.m_dones;
    binding_updates = c.m_bus;
    binding_acks = c.m_backs;
    router_advertisements = c.m_ras;
    heartbeats = c.m_heartbeats }

let fold t ?link f init =
  Hashtbl.fold
    (fun (l, cls) c acc ->
      match link with
      | Some wanted when not (Link_id.equal l wanted) -> acc
      | Some _ | None -> f acc cls c)
    t.cells init

let bytes ?link t wanted =
  fold t ?link (fun acc cls c -> if cls = wanted then acc + c.bytes else acc) 0

let packets ?link t wanted =
  fold t ?link (fun acc cls c -> if cls = wanted then acc + c.packets else acc) 0

let signalling_bytes t =
  bytes t Mld_signalling + bytes t Pim_signalling + bytes t Mipv6_signalling
  + bytes t Nd_signalling

let data_bytes_on t link = bytes ~link t Data_native + bytes ~link t Data_tunnelled

let last_data_tx t link ~group = Hashtbl.find_opt t.last_data (link, group)

let reset t =
  Hashtbl.reset t.cells;
  Hashtbl.reset t.last_data;
  let c = t.counts in
  c.m_hellos <- 0;
  c.m_joins <- 0;
  c.m_prunes <- 0;
  c.m_grafts <- 0;
  c.m_graft_acks <- 0;
  c.m_asserts <- 0;
  c.m_state_refreshes <- 0;
  c.m_queries <- 0;
  c.m_reports <- 0;
  c.m_dones <- 0;
  c.m_bus <- 0;
  c.m_backs <- 0;
  c.m_ras <- 0;
  c.m_heartbeats <- 0

let join_delay host ~group =
  match Host_stack.first_rx_after_attach host ~group with
  | None -> None
  | Some first -> Some (Engine.Time.sub first (Host_stack.last_attach_time host))

let pp_summary ppf t =
  List.iter
    (fun cls ->
      Format.fprintf ppf "%-14s %8d B %6d pkts@." (class_name cls) (bytes t cls)
        (packets t cls))
    all_classes

let pp_links t net ppf () =
  let topo = Network.topology net in
  List.iter
    (fun link ->
      Format.fprintf ppf "%-4s" (Topology.link_name topo link);
      List.iter
        (fun cls -> Format.fprintf ppf " %s=%d" (class_name cls) (bytes ~link t cls))
        all_classes;
      Format.fprintf ppf "@.")
    (Topology.links topo)

(* Unit and property tests for the topology / routing / link-layer
   substrate. *)

open Ipv6
open Net
module Node_id = Ids.Node_id
module Link_id = Ids.Link_id

(* A small fixture mirroring the paper's network shape:
   L1{A} - L2{A,B,C} - L3{B,C,D,E} - L4{D} L5{D} L6{E}, hosts s on L1,
   h4 on L4. *)
type fixture = {
  topo : Topology.t;
  a : Node_id.t;
  b : Node_id.t;
  c : Node_id.t;
  d : Node_id.t;
  e : Node_id.t;
  s : Node_id.t;
  h4 : Node_id.t;
  l1 : Link_id.t;
  l2 : Link_id.t;
  l3 : Link_id.t;
  l4 : Link_id.t;
  l5 : Link_id.t;
  l6 : Link_id.t;
}

let make_fixture () =
  let topo = Topology.create () in
  let link n = Topology.add_link topo ~name:(Printf.sprintf "L%d" n)
      ~prefix:(Prefix.of_string (Printf.sprintf "2001:db8:%d::/64" n)) () in
  let l1 = link 1 and l2 = link 2 and l3 = link 3 in
  let l4 = link 4 and l5 = link 5 and l6 = link 6 in
  let router n = Topology.add_node topo ~name:n ~kind:Topology.Router in
  let a = router "A" and b = router "B" and c = router "C" in
  let d = router "D" and e = router "E" in
  let s = Topology.add_node topo ~name:"S" ~kind:Topology.Host in
  let h4 = Topology.add_node topo ~name:"H4" ~kind:Topology.Host in
  List.iter (fun (n, l) -> Topology.attach topo n l)
    [ (a, l1); (a, l2); (b, l2); (b, l3); (c, l2); (c, l3);
      (d, l3); (d, l4); (d, l5); (e, l3); (e, l6); (s, l1); (h4, l4) ];
  { topo; a; b; c; d; e; s; h4; l1; l2; l3; l4; l5; l6 }

let topology_tests =
  [ Alcotest.test_case "names and kinds" `Quick (fun () ->
        let f = make_fixture () in
        Alcotest.(check string) "name" "A" (Topology.node_name f.topo f.a);
        Alcotest.(check bool) "router" true (Topology.node_kind f.topo f.a = Topology.Router);
        Alcotest.(check bool) "host" true (Topology.node_kind f.topo f.s = Topology.Host);
        Alcotest.(check string) "link name" "L3" (Topology.link_name f.topo f.l3));
    Alcotest.test_case "find by name" `Quick (fun () ->
        let f = make_fixture () in
        Alcotest.(check bool) "node" true (Topology.find_node_by_name f.topo "D" = Some f.d);
        Alcotest.(check bool) "missing node" true
          (Topology.find_node_by_name f.topo "Z" = None);
        Alcotest.(check bool) "link" true (Topology.find_link_by_name f.topo "L5" = Some f.l5));
    Alcotest.test_case "attachment queries" `Quick (fun () ->
        let f = make_fixture () in
        Alcotest.(check bool) "attached" true (Topology.is_attached f.topo f.d f.l4);
        Alcotest.(check bool) "not attached" false (Topology.is_attached f.topo f.a f.l4);
        Alcotest.(check int) "nodes on L3" 4 (List.length (Topology.nodes_on_link f.topo f.l3));
        Alcotest.(check int) "routers on L2" 3
          (List.length (Topology.routers_on_link f.topo f.l2));
        Alcotest.(check int) "links of D" 3 (List.length (Topology.links_of_node f.topo f.d)));
    Alcotest.test_case "routers_on_link excludes hosts" `Quick (fun () ->
        let f = make_fixture () in
        let routers = Topology.routers_on_link f.topo f.l1 in
        Alcotest.(check (list string)) "only A" [ "A" ]
          (List.map (Topology.node_name f.topo) routers));
    Alcotest.test_case "detach then attach elsewhere (handoff)" `Quick (fun () ->
        let f = make_fixture () in
        let v0 = Topology.version f.topo in
        Topology.detach f.topo f.h4 f.l4;
        Topology.attach f.topo f.h4 f.l6;
        Alcotest.(check bool) "off old" false (Topology.is_attached f.topo f.h4 f.l4);
        Alcotest.(check bool) "on new" true (Topology.is_attached f.topo f.h4 f.l6);
        Alcotest.(check bool) "version bumped" true (Topology.version f.topo > v0));
    Alcotest.test_case "attach/detach idempotent" `Quick (fun () ->
        let f = make_fixture () in
        Topology.attach f.topo f.h4 f.l4;
        let v = Topology.version f.topo in
        Topology.attach f.topo f.h4 f.l4;
        Alcotest.(check int) "no version change" v (Topology.version f.topo);
        Topology.detach f.topo f.h4 f.l6;
        Alcotest.(check int) "detach of unattached is a no-op" v (Topology.version f.topo));
    Alcotest.test_case "autoconfigured addresses" `Quick (fun () ->
        let f = make_fixture () in
        let addr = Topology.address_on f.topo f.d f.l4 in
        Alcotest.(check bool) "on the link prefix" true
          (Prefix.contains (Topology.link_prefix f.topo f.l4) addr);
        (* Same interface id on every link. *)
        let addr5 = Topology.address_on f.topo f.d f.l5 in
        Alcotest.(check bool) "same iid" true
          (Int64.equal (Addr.lo addr) (Addr.lo addr5));
        let ll = Topology.link_local f.topo f.d in
        Alcotest.(check bool) "link local prefix" true (Addr.is_link_local_unicast ll));
    Alcotest.test_case "link_of_address" `Quick (fun () ->
        let f = make_fixture () in
        Alcotest.(check bool) "L4 address" true
          (Topology.link_of_address f.topo (Addr.of_string "2001:db8:4::42") = Some f.l4);
        Alcotest.(check bool) "unknown prefix" true
          (Topology.link_of_address f.topo (Addr.of_string "2001:dead::1") = None));
    Alcotest.test_case "duplicate prefix rejected" `Quick (fun () ->
        let f = make_fixture () in
        match
          Topology.add_link f.topo ~name:"dup" ~prefix:(Prefix.of_string "2001:db8:4::/64") ()
        with
        | _ -> Alcotest.fail "expected rejection"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "prefix longer than /64 rejected" `Quick (fun () ->
        let f = make_fixture () in
        match
          Topology.add_link f.topo ~name:"long" ~prefix:(Prefix.of_string "2001:db8:9::/96") ()
        with
        | _ -> Alcotest.fail "expected rejection"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "distinct interface ids" `Quick (fun () ->
        let f = make_fixture () in
        let iids =
          List.map (Topology.interface_id f.topo) (Topology.nodes f.topo)
          |> List.sort_uniq Int64.compare
        in
        Alcotest.(check int) "all unique" (List.length (Topology.nodes f.topo))
          (List.length iids))
  ]

let routing_tests =
  [ Alcotest.test_case "distances from a host" `Quick (fun () ->
        let f = make_fixture () in
        let r = Routing.create f.topo in
        let dist l = Routing.distance_to_link r ~from:f.s l in
        Alcotest.(check (option int)) "own link" (Some 0) (dist f.l1);
        Alcotest.(check (option int)) "L2" (Some 1) (dist f.l2);
        Alcotest.(check (option int)) "L3" (Some 2) (dist f.l3);
        Alcotest.(check (option int)) "L4" (Some 3) (dist f.l4);
        Alcotest.(check (option int)) "L6" (Some 3) (dist f.l6));
    Alcotest.test_case "decide: deliver, forward, unreachable" `Quick (fun () ->
        let f = make_fixture () in
        let r = Routing.create f.topo in
        (match Routing.decide r ~at:f.a ~dst:(Topology.address_on f.topo f.s f.l1) with
         | Routing.Deliver_on_link l -> Alcotest.(check bool) "on L1" true (Link_id.equal l f.l1)
         | Routing.Forward _ | Routing.Unreachable -> Alcotest.fail "expected delivery");
        (match Routing.decide r ~at:f.a ~dst:(Addr.of_string "2001:db8:4::99") with
         | Routing.Forward { out_link; next_hop } ->
           Alcotest.(check bool) "via L2" true (Link_id.equal out_link f.l2);
           Alcotest.(check bool) "via B or C" true
             (Node_id.equal next_hop f.b || Node_id.equal next_hop f.c)
         | Routing.Deliver_on_link _ | Routing.Unreachable -> Alcotest.fail "expected forward");
        match Routing.decide r ~at:f.a ~dst:(Addr.of_string "2001:dead::1") with
        | Routing.Unreachable -> ()
        | Routing.Deliver_on_link _ | Routing.Forward _ -> Alcotest.fail "expected unreachable");
    Alcotest.test_case "next hop is never the deciding node" `Quick (fun () ->
        let f = make_fixture () in
        let r = Routing.create f.topo in
        List.iter
          (fun at ->
            List.iter
              (fun link ->
                let dst = Prefix.append_interface_id (Topology.link_prefix f.topo link) 99L in
                match Routing.decide r ~at ~dst with
                | Routing.Forward { next_hop; _ } ->
                  Alcotest.(check bool) "not self" false (Node_id.equal next_hop at)
                | Routing.Deliver_on_link _ | Routing.Unreachable -> ())
              (Topology.links f.topo))
          (Topology.nodes f.topo));
    Alcotest.test_case "path_to_link structure" `Quick (fun () ->
        let f = make_fixture () in
        let r = Routing.create f.topo in
        Alcotest.(check (option (list string))) "attached: empty" (Some [])
          (Option.map
             (List.map (Topology.link_name f.topo))
             (Routing.path_to_link r ~from:f.s f.l1));
        Alcotest.(check (option (list string))) "S to L4" (Some [ "L1"; "L2"; "L3"; "L4" ])
          (Option.map
             (List.map (Topology.link_name f.topo))
             (Routing.path_to_link r ~from:f.s f.l4)));
    Alcotest.test_case "path length = distance + 1" `Quick (fun () ->
        let f = make_fixture () in
        let r = Routing.create f.topo in
        List.iter
          (fun from ->
            List.iter
              (fun link ->
                match (Routing.distance_to_link r ~from link, Routing.path_to_link r ~from link) with
                | Some 0, Some [] -> ()
                | Some d, Some path when d >= 1 ->
                  Alcotest.(check int)
                    (Format.asprintf "%a -> %a" Node_id.pp from Link_id.pp link)
                    (d + 1) (List.length path)
                | None, None -> ()
                | _, _ -> Alcotest.fail "distance and path disagree")
              (Topology.links f.topo))
          (Topology.nodes f.topo));
    Alcotest.test_case "rpf toward a source" `Quick (fun () ->
        let f = make_fixture () in
        let r = Routing.create f.topo in
        let source = Topology.address_on f.topo f.s f.l1 in
        (match Routing.rpf r ~at:f.a ~source with
         | Some (l, None, metric) ->
           Alcotest.(check bool) "direct on L1" true (Link_id.equal l f.l1);
           Alcotest.(check int) "attached: metric 0" 0 metric
         | Some (_, Some _, _) | None -> Alcotest.fail "A should reach S directly");
        (match Routing.rpf r ~at:f.d ~source with
         | Some (l, Some up, metric) ->
           Alcotest.(check bool) "via L3" true (Link_id.equal l f.l3);
           Alcotest.(check bool) "via B or C" true
             (Node_id.equal up f.b || Node_id.equal up f.c);
           Alcotest.(check int) "L1 two links away" 2 metric
         | Some (_, None, _) | None -> Alcotest.fail "D should go via L3");
        match Routing.rpf r ~at:f.d ~source:(Addr.of_string "2001:dead::1") with
        | None -> ()
        | Some _ -> Alcotest.fail "unroutable source");
    Alcotest.test_case "tables follow topology changes" `Quick (fun () ->
        let f = make_fixture () in
        let r = Routing.create f.topo in
        Alcotest.(check (option int)) "L6 at 3 hops" (Some 3)
          (Routing.distance_to_link r ~from:f.s f.l6);
        (* Link E off L3: L6 becomes unreachable. *)
        Topology.detach f.topo f.e f.l3;
        Alcotest.(check (option int)) "L6 unreachable" None
          (Routing.distance_to_link r ~from:f.s f.l6);
        Topology.attach f.topo f.e f.l3;
        Alcotest.(check (option int)) "L6 back" (Some 3)
          (Routing.distance_to_link r ~from:f.s f.l6));
    Alcotest.test_case "hosts do not provide transit" `Quick (fun () ->
        let topo = Topology.create () in
        let la = Topology.add_link topo ~name:"A" ~prefix:(Prefix.of_string "2001:db8:a::/64") () in
        let lb = Topology.add_link topo ~name:"B" ~prefix:(Prefix.of_string "2001:db8:b::/64") () in
        let h = Topology.add_node topo ~name:"h" ~kind:Topology.Host in
        let x = Topology.add_node topo ~name:"x" ~kind:Topology.Host in
        Topology.attach topo h la;
        Topology.attach topo h lb;
        Topology.attach topo x la;
        let r = Routing.create topo in
        (* x can only reach B through h, but h is a host. *)
        Alcotest.(check (option int)) "no transit through host" None
          (Routing.distance_to_link r ~from:x lb))
  ]

(* ---- link layer ---- *)

let data ~bytes = Packet.Data { stream_id = 0; seq = 0; bytes }

let make_net () =
  let sim = Engine.Sim.create () in
  let f = make_fixture () in
  (sim, f, Network.create sim f.topo)

let network_tests =
  [ Alcotest.test_case "delivery after link delay" `Quick (fun () ->
        let sim, f, net = make_net () in
        let got = ref [] in
        Network.set_handler net f.b (fun ~link ~from ~chan:_ p ->
            got := (Engine.Sim.now sim, link, from, p) :: !got);
        let p = Packet.make ~src:Addr.loopback ~dst:Addr.loopback (data ~bytes:100) in
        Network.transmit net ~from:f.a ~link:f.l2 (Network.To_node f.b) p;
        Engine.Sim.run sim;
        match !got with
        | [ (at, link, from, _) ] ->
          (* 5 ms propagation + 140 B * 8 / 10 Mbit/s serialization. *)
          Alcotest.(check (float 1e-9)) "after 5 ms + tx time" 0.005112 at;
          Alcotest.(check bool) "on L2" true (Link_id.equal link f.l2);
          Alcotest.(check bool) "from A" true (Node_id.equal from f.a)
        | other -> Alcotest.failf "expected one delivery, got %d" (List.length other));
    Alcotest.test_case "To_all excludes the sender" `Quick (fun () ->
        let sim, f, net = make_net () in
        let hits = ref [] in
        List.iter
          (fun n ->
            Network.set_handler net n (fun ~link:_ ~from:_ ~chan:_ _ ->
                hits := Topology.node_name f.topo n :: !hits))
          [ f.a; f.b; f.c ];
        let p = Packet.make ~src:Addr.loopback ~dst:Addr.all_nodes (data ~bytes:64) in
        Network.transmit net ~from:f.a ~link:f.l2 Network.To_all p;
        Engine.Sim.run sim;
        Alcotest.(check (list string)) "B and C only" [ "B"; "C" ]
          (List.sort String.compare !hits));
    Alcotest.test_case "unicast reaches only the target" `Quick (fun () ->
        let sim, f, net = make_net () in
        let hits = ref 0 in
        Network.set_handler net f.b (fun ~link:_ ~from:_ ~chan:_ _ -> incr hits);
        Network.set_handler net f.c (fun ~link:_ ~from:_ ~chan:_ _ ->
            Alcotest.fail "C got unicast to B");
        let p = Packet.make ~src:Addr.loopback ~dst:Addr.loopback (data ~bytes:64) in
        Network.transmit net ~from:f.a ~link:f.l2 (Network.To_node f.b) p;
        Engine.Sim.run sim;
        Alcotest.(check int) "one delivery" 1 !hits);
    Alcotest.test_case "transmit from a detached node is dropped" `Quick (fun () ->
        let sim, f, net = make_net () in
        let p = Packet.make ~src:Addr.loopback ~dst:Addr.loopback (data ~bytes:64) in
        Network.transmit net ~from:f.a ~link:f.l4 (Network.To_node f.d) p;
        Engine.Sim.run sim;
        Alcotest.(check int) "drop counted" 1 (Network.drops net);
        Alcotest.(check int) "nothing on the wire" 0 (Network.link_stats net f.l4).Network.packets);
    Alcotest.test_case "receiver that detaches in flight misses the frame" `Quick (fun () ->
        let sim, f, net = make_net () in
        let hits = ref 0 in
        Network.set_handler net f.h4 (fun ~link:_ ~from:_ ~chan:_ _ -> incr hits);
        let p = Packet.make ~src:Addr.loopback ~dst:Addr.all_nodes (data ~bytes:64) in
        Network.transmit net ~from:f.d ~link:f.l4 Network.To_all p;
        (* Detach before the 5 ms delivery. *)
        ignore
          (Engine.Sim.schedule_at sim 0.001 (fun () -> Topology.detach f.topo f.h4 f.l4));
        Engine.Sim.run sim;
        Alcotest.(check int) "missed" 0 !hits);
    Alcotest.test_case "byte accounting per link" `Quick (fun () ->
        let sim, f, net = make_net () in
        let p = Packet.make ~src:Addr.loopback ~dst:Addr.all_nodes (data ~bytes:500) in
        Network.transmit net ~from:f.a ~link:f.l2 Network.To_all p;
        Network.transmit net ~from:f.a ~link:f.l2 Network.To_all p;
        Engine.Sim.run sim;
        let stats = Network.link_stats net f.l2 in
        Alcotest.(check int) "packets" 2 stats.Network.packets;
        Alcotest.(check int) "bytes include headers" (2 * 540) stats.Network.bytes;
        Alcotest.(check int) "data bytes" 1000 stats.Network.data_bytes;
        let total = Network.total_stats net in
        Alcotest.(check int) "total packets" 2 total.Network.packets;
        Network.reset_stats net;
        Alcotest.(check int) "reset" 0 (Network.link_stats net f.l2).Network.packets);
    Alcotest.test_case "address claims: replace and owner-only release" `Quick (fun () ->
        let _, f, net = make_net () in
        let addr = Addr.of_string "2001:db8:4::10" in
        Network.claim_address net f.h4 ~link:f.l4 addr;
        Alcotest.(check bool) "host owns" true
          (Network.resolve net ~link:f.l4 addr = Some f.h4);
        (* Home agent takes over (proxy). *)
        Network.claim_address net f.d ~link:f.l4 addr;
        Alcotest.(check bool) "router owns" true
          (Network.resolve net ~link:f.l4 addr = Some f.d);
        (* The host's release must not evict the router's claim. *)
        Network.release_address net f.h4 ~link:f.l4 addr;
        Alcotest.(check bool) "router still owns" true
          (Network.resolve net ~link:f.l4 addr = Some f.d);
        Network.release_address net f.d ~link:f.l4 addr;
        Alcotest.(check bool) "gone" true (Network.resolve net ~link:f.l4 addr = None));
    Alcotest.test_case "addresses_of lists a node's claims" `Quick (fun () ->
        let _, f, net = make_net () in
        Network.claim_address net f.d ~link:f.l4 (Addr.of_string "2001:db8:4::1");
        Network.claim_address net f.d ~link:f.l5 (Addr.of_string "2001:db8:5::1");
        Alcotest.(check int) "two claims" 2 (List.length (Network.addresses_of net f.d)));
    Alcotest.test_case "transmit observers see every packet" `Quick (fun () ->
        let sim, f, net = make_net () in
        let seen = ref 0 in
        Network.add_transmit_observer net (fun _ _ _ -> incr seen);
        Network.add_transmit_observer net (fun _ _ _ -> incr seen);
        let p = Packet.make ~src:Addr.loopback ~dst:Addr.all_nodes (data ~bytes:64) in
        Network.transmit net ~from:f.a ~link:f.l2 Network.To_all p;
        Engine.Sim.run sim;
        Alcotest.(check int) "both observers fired" 2 !seen);
    Alcotest.test_case "channels name the address part of data-bearing packets" `Quick
      (fun () ->
        let sim, f, net = make_net () in
        let a = Addr.of_string "2001:db8:1::a" and b = Addr.of_string "2001:db8:2::b" in
        let g = Addr.of_string "ff1e::1" and g' = Addr.of_string "ff1e::2" in
        let chan p = Ids.Channel_id.to_int (Network.channel net p) in
        let mk ?(hop_limit = 64) src dst payload = Packet.make ~hop_limit ~src ~dst payload in
        let sg = chan (mk a g (data ~bytes:64)) in
        Alcotest.(check int) "dense from 0" 0 sg;
        Alcotest.(check int) "same (S,G), other datagram and hop limit" sg
          (chan (mk ~hop_limit:3 a g (data ~bytes:100)));
        Alcotest.(check bool) "another group" true (chan (mk a g' (data ~bytes:64)) <> sg);
        let uc = chan (mk a b (data ~bytes:64)) in
        Alcotest.(check bool) "unicast is its own channel" true (uc <> sg);
        let tunnel src = mk src b (Packet.Encapsulated (mk a g (data ~bytes:64))) in
        Alcotest.(check int) "a tunnel is keyed by its destination" (chan (tunnel a))
          (chan (tunnel (Addr.of_string "2001:db8:3::c")));
        Alcotest.(check bool) "tunnel and unicast differ" true (chan (tunnel a) <> uc);
        Alcotest.(check bool) "control has none" true
          (chan (mk a Addr.all_nodes Packet.Empty) < 0);
        (* Receivers and observers get the packet's channel. *)
        let seen = ref [] in
        Network.add_transmit_observer net (fun _ c _ -> seen := Ids.Channel_id.to_int c :: !seen);
        Network.set_handler net f.b (fun ~link:_ ~from:_ ~chan:c _ ->
            seen := Ids.Channel_id.to_int c :: !seen);
        Network.transmit net ~from:f.a ~link:f.l2 (Network.To_node f.b) (mk a g (data ~bytes:64));
        Engine.Sim.run sim;
        Alcotest.(check (list int)) "observer and receiver" [ sg; sg ] !seen)
  ]

(* ---- properties over random topologies ---- *)

let gen_topo_seed = QCheck.Gen.int_bound 10_000

let routing_properties =
  let reachability =
    QCheck.Test.make ~name:"random connected tree: every link reachable from every router"
      ~count:50
      (QCheck.make gen_topo_seed)
      (fun seed ->
        let rng = Engine.Rng.create seed in
        let topo = Topology.create () in
        let n = 2 + Engine.Rng.int rng 8 in
        let links =
          Array.init n (fun i ->
              Topology.add_link topo ~name:(Printf.sprintf "l%d" i)
                ~prefix:(Prefix.of_string (Printf.sprintf "2001:db8:%d::/64" (i + 1)))
                ())
        in
        let routers =
          Array.init n (fun i -> Topology.add_node topo ~name:(Printf.sprintf "r%d" i)
              ~kind:Topology.Router)
        in
        (* Router i owns link i and also attaches to the link of a
           random earlier router: a connected tree. *)
        Array.iteri (fun i r -> Topology.attach topo r links.(i)) routers;
        for i = 1 to n - 1 do
          Topology.attach topo routers.(i) links.(Engine.Rng.int rng i)
        done;
        let r = Routing.create topo in
        Array.for_all
          (fun from ->
            Array.for_all
              (fun link -> Routing.distance_to_link r ~from link <> None)
              links)
          routers)
  in
  let forward_progress =
    QCheck.Test.make
      ~name:"random tree: following next hops reaches the destination link" ~count:50
      (QCheck.make gen_topo_seed)
      (fun seed ->
        let rng = Engine.Rng.create seed in
        let topo = Topology.create () in
        let n = 2 + Engine.Rng.int rng 8 in
        let links =
          Array.init n (fun i ->
              Topology.add_link topo ~name:(Printf.sprintf "l%d" i)
                ~prefix:(Prefix.of_string (Printf.sprintf "2001:db8:%d::/64" (i + 1)))
                ())
        in
        let routers =
          Array.init n (fun i -> Topology.add_node topo ~name:(Printf.sprintf "r%d" i)
              ~kind:Topology.Router)
        in
        Array.iteri (fun i r -> Topology.attach topo r links.(i)) routers;
        for i = 1 to n - 1 do
          Topology.attach topo routers.(i) links.(Engine.Rng.int rng i)
        done;
        let r = Routing.create topo in
        let dst_link = links.(Engine.Rng.int rng n) in
        let dst = Prefix.append_interface_id (Topology.link_prefix topo dst_link) 4242L in
        let rec walk at steps =
          if steps > 2 * n then false
          else
            match Routing.decide r ~at ~dst with
            | Routing.Deliver_on_link l -> Link_id.equal l dst_link
            | Routing.Forward { next_hop; _ } -> walk next_hop (steps + 1)
            | Routing.Unreachable -> false
        in
        Array.for_all (fun from -> walk from 0) routers)
  in
  List.map QCheck_alcotest.to_alcotest [ reachability; forward_progress ]

(* ---- reference model ----

   The map-based BFS that array-indexed routing tables replaced, kept
   verbatim as the oracle, with the linear-scan prefix lookup it used. *)
module Oracle = struct
  type link_route = {
    dist : int;
    via : (Link_id.t * Node_id.t) option;
  }

  let table topo ~from =
    let queue = Queue.create () in
    let table = ref Link_id.Map.empty in
    let discover link route =
      if not (Link_id.Map.mem link !table) then begin
        table := Link_id.Map.add link route !table;
        Queue.add link queue
      end
    in
    List.iter (fun l -> discover l { dist = 0; via = None }) (Topology.links_of_node topo from);
    while not (Queue.is_empty queue) do
      let current = Queue.pop queue in
      let { dist; _ } = Link_id.Map.find current !table in
      let transit =
        List.filter
          (fun r -> not (Node_id.equal r from))
          (Topology.routers_on_link topo current)
      in
      List.iter
        (fun router ->
          List.iter
            (fun next ->
              if not (Link_id.equal next current) then
                discover next { dist = dist + 1; via = Some (current, router) })
            (Topology.links_of_node topo router))
        transit
    done;
    !table

  let rec trace_path table link acc =
    match Link_id.Map.find_opt link table with
    | None -> None
    | Some { via = None; _ } -> Some acc
    | Some { via = Some (prev, router); _ } -> trace_path table prev ((link, router) :: acc)

  let distance_to_link tbl link =
    match Link_id.Map.find_opt link tbl with
    | None -> None
    | Some { dist; _ } -> Some dist

  let path_to_link tbl link =
    match Link_id.Map.find_opt link tbl with
    | None -> None
    | Some { via = None; _ } -> Some []
    | Some _ -> (
      match trace_path tbl link [] with
      | None | Some [] -> None
      | Some ((first_traversed, _) :: _ as steps) ->
        let start =
          match Link_id.Map.find_opt first_traversed tbl with
          | Some { via = Some (prev, _); _ } -> prev
          | Some { via = None; _ } | None -> first_traversed
        in
        Some (start :: List.map fst steps))

  let link_of_address topo addr =
    List.fold_left
      (fun acc l -> if Prefix.contains (Topology.link_prefix topo l) addr then Some l else acc)
      None (Topology.links topo)

  let decide topo tbl ~at ~dst =
    match link_of_address topo dst with
    | None -> Routing.Unreachable
    | Some dst_link ->
      if Topology.is_attached topo at dst_link then Routing.Deliver_on_link dst_link
      else (
        match trace_path tbl dst_link [] with
        | None | Some [] -> Routing.Unreachable
        | Some ((first_traversed, first_router) :: _) ->
          let out_link =
            match Link_id.Map.find_opt first_traversed tbl with
            | Some { via = Some (prev, _); _ } -> prev
            | Some { via = None; _ } | None -> first_traversed
          in
          Routing.Forward { out_link; next_hop = first_router })

  (* With the hop metric [Router_stack] derived beside it: the source
     link's distance, 0 for an unknown one. *)
  let rpf topo tbl ~at ~source =
    let metric =
      match link_of_address topo source with
      | None -> 0
      | Some l -> Option.value ~default:0 (distance_to_link tbl l)
    in
    match decide topo tbl ~at ~dst:source with
    | Routing.Deliver_on_link l -> Some (l, None, metric)
    | Routing.Forward { out_link; next_hop } -> Some (out_link, Some next_hop, metric)
    | Routing.Unreachable -> None
end

(* A generated router graph as a bare topology: a stub LAN per router,
   a backbone link per edge, a few LANs shared by three random routers,
   one /48 umbrella link overlapping every
   stub's /64 (so prefix lookup must pick the highest link id), and
   hosts on random stubs. *)
let oracle_topology ~pref ~seed ~routers ~hosts =
  let edges =
    if pref then Scale.Gen.pref_attach_edges ~seed ~routers ()
    else Scale.Gen.waxman_edges ~seed ~routers ()
  in
  let topo = Topology.create () in
  let rng = Engine.Rng.create seed in
  let link name prefix = Topology.add_link topo ~name ~prefix:(Prefix.of_string prefix) () in
  let stub i = link (Printf.sprintf "S%d" i) (Printf.sprintf "2001:db8:0:%x::/64" i) in
  let half = Array.init (routers / 2) stub in
  (* Added between the two halves of the stubs: it covers the first
     half's addresses, the second half covers their own. *)
  let umbrella = link "U" "2001:db8::/48" in
  let stubs = Array.append half (Array.init (routers - (routers / 2)) (fun i -> stub (i + (routers / 2)))) in
  let rnodes =
    Array.init routers (fun i ->
        Topology.add_node topo ~name:(Printf.sprintf "N%d" i) ~kind:Topology.Router)
  in
  Array.iteri (fun i r -> Topology.attach topo r stubs.(i)) rnodes;
  List.iteri
    (fun k (u, v) ->
      let l = link (Printf.sprintf "B%d" k) (Printf.sprintf "2001:db8:1:%x::/64" k) in
      Topology.attach topo rnodes.(u) l;
      Topology.attach topo rnodes.(v) l)
    edges;
  Topology.attach topo rnodes.(Engine.Rng.int rng routers) umbrella;
  (* Multi-router LANs give equal-length paths through different
     routers: the BFS visiting order decides the next hop. *)
  for k = 0 to routers / 3 do
    let lan = link (Printf.sprintf "M%d" k) (Printf.sprintf "2001:db8:2:%x::/64" k) in
    for _ = 1 to 3 do
      Topology.attach topo rnodes.(Engine.Rng.int rng routers) lan
    done
  done;
  let hnodes =
    Array.init hosts (fun j ->
        let h = Topology.add_node topo ~name:(Printf.sprintf "H%d" j) ~kind:Topology.Host in
        Topology.attach topo h stubs.(Engine.Rng.int rng routers);
        h)
  in
  (topo, rng, stubs, hnodes)

(* Move, detach or multi-home a random host. *)
let churn_host topo rng stubs hnodes =
  let h = hnodes.(Engine.Rng.int rng (Array.length hnodes)) in
  let target = stubs.(Engine.Rng.int rng (Array.length stubs)) in
  match Engine.Rng.int rng 3 with
  | 0 -> List.iter (Topology.detach topo h) (Topology.links_of_node topo h)
  | 1 -> Topology.attach topo h target
  | _ ->
    List.iter (Topology.detach topo h) (Topology.links_of_node topo h);
    Topology.attach topo h target

(* [decide_at] picks the nodes whose forwarding decisions are checked
   too: the oracle's linear prefix lookup makes them the dominant cost
   on large graphs. *)
let agrees_with_oracle ?(decide_at = fun _ -> true) topo r =
  let links = Topology.links topo in
  let addrs =
    Addr.of_string "2001:dead::1"
    :: List.map (fun l -> Prefix.append_interface_id (Topology.link_prefix topo l) 4242L) links
  in
  List.for_all
    (fun node ->
      let tbl = Oracle.table topo ~from:node in
      List.for_all
        (fun l ->
          Routing.distance_to_link r ~from:node l = Oracle.distance_to_link tbl l
          && Routing.path_to_link r ~from:node l = Oracle.path_to_link tbl l)
        links
      && ((not (decide_at node))
          || List.for_all
               (fun a ->
                 Routing.decide r ~at:node ~dst:a = Oracle.decide topo tbl ~at:node ~dst:a
                 && Routing.rpf r ~at:node ~source:a = Oracle.rpf topo tbl ~at:node ~source:a)
               addrs))
    (Topology.nodes topo)

(* One routing instance against the oracle on a generated graph, then
   after each of [moves] host moves. *)
let agrees_under_churn ?decide_at ~pref ~seed ~routers ~moves () =
  let topo, rng, stubs, hnodes = oracle_topology ~pref ~seed ~routers ~hosts:6 in
  let r = Routing.create topo in
  let rec steps k =
    k = 0
    || begin
      churn_host topo rng stubs hnodes;
      agrees_with_oracle ?decide_at topo r && steps (k - 1)
    end
  in
  agrees_with_oracle ?decide_at topo r && steps moves

let routing_oracle_property =
  QCheck.Test.make ~count:30
    ~name:"array routing tables answer as the map-based BFS under host churn"
    QCheck.(make Gen.(triple bool gen_topo_seed (int_range 2 24)))
    (fun (pref, seed, routers) -> agrees_under_churn ~pref ~seed ~routers ~moves:4 ())

(* At the scale cell's size and density ([Gen.scenario]'s Waxman
   defaults), where routers on many links are reached from several of
   them in one search but expanded once.  Every node's distances and
   paths are checked, and every eighth node's decisions. *)
let routing_oracle_large_property =
  QCheck.Test.make ~count:2
    ~name:"array routing tables answer as the map-based BFS on 60-100-router Waxman graphs"
    QCheck.(make Gen.(pair gen_topo_seed (int_range 60 100)))
    (fun (seed, routers) ->
      agrees_under_churn ~pref:false ~seed ~routers ~moves:1
        ~decide_at:(fun n -> Node_id.to_int n mod 8 = 0)
        ())

(* A table is built into one fresh array; the search's queue and marks
   are kept from one build to the next.  The first query after a
   topology bump also rebuilds the graph arrays, so the build measured
   is the next one. *)
let warm_rebuild_test =
  Alcotest.test_case "a table build after a topology bump allocates one table" `Quick
    (fun () ->
      let topo, _, stubs, hnodes = oracle_topology ~pref:false ~seed:42 ~routers:100 ~hosts:6 in
      let r = Routing.create topo in
      let routers = List.filter (fun n -> Topology.node_kind topo n = Topology.Router)
          (Topology.nodes topo) in
      let target = List.hd (Topology.links topo) in
      let route from = ignore (Sys.opaque_identity (Routing.distance_to_link r ~from target)) in
      List.iter route routers;
      let h = hnodes.(0) in
      List.iter (Topology.detach topo h) (Topology.links_of_node topo h);
      Topology.attach topo h stubs.(1);
      route (List.nth routers 0);
      let before = Gc.allocated_bytes () in
      route (List.nth routers 1);
      let words = int_of_float ((Gc.allocated_bytes () -. before) /. float (Sys.word_size / 8)) in
      let table_words = 1 + List.length (Topology.links topo) in
      Alcotest.(check bool)
        (Printf.sprintf "%d words for a %d-word table" words table_words)
        true (words <= table_words + 16))

let () =
  Alcotest.run "net"
    [ ("topology", topology_tests);
      ("routing",
       routing_tests @ routing_properties
       @ List.map QCheck_alcotest.to_alcotest
           [ routing_oracle_property; routing_oracle_large_property ]
       @ [ warm_rebuild_test ]);
      ("network", network_tests)
    ]

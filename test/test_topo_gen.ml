(* Generated topologies as networks: routability and host attachment
   of Gen's trees and meshes, and whole-system delivery and mobility
   liveness properties run on them. *)

module Desc = Scale.Desc
module Gen = Scale.Gen
module Runner = Scale.Runner

let group = Mmcast.Scenario.group

(* A generated descriptor's network, built the way Runner builds it. *)
let network_of (d : Desc.t) =
  Mmcast.Scenario.build
    (Runner.spec_for d Mmcast.Approach.local_membership)
    ~links:d.Desc.d_links ~routers:d.Desc.d_routers ~hosts:d.Desc.d_hosts

(* [m = 1] preferential attachment is a random tree. *)
let random_tree ~seed ~routers ~hosts =
  network_of (Gen.scenario ~model:`Pref ~m:1 ~routers ~hosts ~seed ())

let unreachable_links scenario ~from =
  let topo = Net.Network.topology scenario.Mmcast.Scenario.net in
  let routing = Net.Network.routing scenario.Mmcast.Scenario.net in
  List.filter
    (fun link -> Net.Routing.distance_to_link routing ~from link = None)
    (Net.Topology.links topo)

let topo_gen_tests =
  [ Alcotest.test_case "random tree is fully routable" `Quick (fun () ->
        List.iter
          (fun seed ->
            let s = random_tree ~seed ~routers:8 ~hosts:5 in
            let topo = Net.Network.topology s.Mmcast.Scenario.net in
            List.iter
              (fun from ->
                match unreachable_links s ~from with
                | [] -> ()
                | link :: _ ->
                  Alcotest.failf "seed %d: %s cannot reach %s" seed
                    (Net.Topology.node_name topo from) (Net.Topology.link_name topo link))
              (List.filter
                 (fun n -> Net.Topology.node_kind topo n = Net.Topology.Router)
                 (Net.Topology.nodes topo)))
          [ 1; 2; 3; 42 ]);
    Alcotest.test_case "hosts are attached to their home links" `Quick (fun () ->
        let s = random_tree ~seed:9 ~routers:5 ~hosts:6 in
        let topo = Net.Network.topology s.Mmcast.Scenario.net in
        Alcotest.(check int) "six hosts" 6 (List.length s.Mmcast.Scenario.hosts);
        List.iter
          (fun (_, h) ->
            Alcotest.(check bool) "attached" true
              (Net.Topology.is_attached topo (Mmcast.Host_stack.node_id h)
                 (Mmcast.Host_stack.home_link h)))
          s.Mmcast.Scenario.hosts);
    Alcotest.test_case "mesh keeps extra cross links routable" `Quick (fun () ->
        let d = Gen.scenario ~model:`Pref ~m:2 ~routers:6 ~hosts:3 ~seed:4 () in
        Alcotest.(check bool) "has cycles" true
          (List.length d.Desc.d_links > 2 * List.length d.Desc.d_routers - 1);
        let s = network_of d in
        let topo = Net.Network.topology s.Mmcast.Scenario.net in
        match unreachable_links s ~from:(Option.get (Net.Topology.find_node_by_name topo "N0")) with
        | [] -> ()
        | link :: _ -> Alcotest.failf "unreachable %s" (Net.Topology.link_name topo link));
    Alcotest.test_case "invalid sizes rejected" `Quick (fun () ->
        List.iter
          (fun (what, f) ->
            match f () with
            | _ -> Alcotest.failf "%s accepted" what
            | exception Invalid_argument _ -> ())
          [ ("zero routers", fun () -> ignore (Gen.pref_attach_edges ~seed:1 ~routers:0 ()));
            ("zero routers", fun () -> ignore (Gen.waxman_edges ~seed:1 ~routers:0 ()));
            ("m = 0", fun () -> ignore (Gen.pref_attach_edges ~m:0 ~seed:1 ~routers:3 ()));
            ("one router", fun () -> ignore (Gen.scenario ~routers:1 ~seed:1 ()));
            ("negative hosts", fun () -> ignore (Gen.scenario ~routers:3 ~hosts:(-1) ~seed:1 ()))
          ]) ]

(* ---- whole-system properties on generated networks ---- *)

let delivery_property ~mesh =
  let name =
    if mesh then "random mesh: all subscribers receive the stream (duplicates only transient)"
    else "random tree: all subscribers receive the full stream with no duplicates"
  in
  QCheck.Test.make ~name ~count:15
    QCheck.(int_range 1 500)
    (fun seed ->
      let scenario =
        if mesh then
          network_of (Gen.scenario ~model:`Pref ~m:2 ~routers:5 ~hosts:4 ~seed ())
        else random_tree ~seed ~routers:6 ~hosts:4
      in
      match scenario.Mmcast.Scenario.hosts with
      | [] -> true
      | (_, sender) :: receivers ->
        List.iter (fun (_, h) -> Mmcast.Host_stack.subscribe h group) receivers;
        (* Let hellos/queries settle, then stream. *)
        ignore
          (Mmcast.Traffic.cbr scenario sender ~group ~from_t:30.0 ~until:60.0 ~interval:0.5
             ~bytes:200);
        Mmcast.Scenario.run_until scenario 70.0;
        let sent = Mmcast.Host_stack.data_sent sender in
        sent > 0
        && List.for_all
             (fun (_, h) ->
               (* Receivers sharing the sender's link hear it directly;
                  everyone must get every datagram after the first (the
                  flood itself delivers the first). *)
               Mmcast.Host_stack.received_count h ~group >= sent - 1
               &&
               if mesh then Mmcast.Host_stack.duplicate_count h ~group <= 5
               else Mmcast.Host_stack.duplicate_count h ~group = 0)
             receivers)

(* Liveness under arbitrary mobility: whatever sequence of handoffs a
   receiver performs, once it settles anywhere for a while it receives
   the stream again — under every delivery approach. *)
let mobility_liveness =
  QCheck.Test.make ~name:"receiver liveness after arbitrary move sequences" ~count:20
    QCheck.(pair (int_range 1 4) (list_of_size (QCheck.Gen.int_range 0 5) (int_range 0 5)))
    (fun (approach_n, move_seeds) ->
      let spec =
        { Mmcast.Scenario.default_spec with
          approach = Mmcast.Approach.of_number approach_n;
          seed = 100 + approach_n }
      in
      let s = Mmcast.Scenario.paper_figure1 spec in
      let r3 = Mmcast.Scenario.host s "R3" in
      Mmcast.Host_stack.subscribe r3 group;
      ignore
        (Mmcast.Traffic.cbr s (Mmcast.Scenario.host s "S") ~group ~from_t:10.0
           ~until:400.0 ~interval:0.5 ~bytes:300);
      (* One handoff every 30 s to a link chosen by the seed (possibly
         the home link, possibly a repeat). *)
      let links = [| "L1"; "L2"; "L3"; "L4"; "L5"; "L6" |] in
      List.iteri
        (fun i seed ->
          let when_ = 40.0 +. (30.0 *. float_of_int i) in
          Mmcast.Traffic.at s when_ (fun () ->
              Mmcast.Host_stack.move_to r3 (Mmcast.Scenario.link s links.(seed))))
        move_seeds;
      (* Settle for at least 100 s after the last move, then check the
         stream is flowing. *)
      let settle = 40.0 +. (30.0 *. float_of_int (List.length move_seeds)) +. 40.0 in
      Mmcast.Scenario.run_until s (settle +. 60.0);
      let mid = Mmcast.Host_stack.received_count r3 ~group in
      Mmcast.Scenario.run_until s (settle +. 100.0);
      let fin = Mmcast.Host_stack.received_count r3 ~group in
      fin > mid)

let system_properties =
  List.map QCheck_alcotest.to_alcotest
    [ delivery_property ~mesh:false; delivery_property ~mesh:true; mobility_liveness ]

let () =
  Alcotest.run "topo_gen"
    [ ("topo_gen", topo_gen_tests); ("system properties", system_properties) ]

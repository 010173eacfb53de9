(* Tests for the extension features: ND messages on the wire, link
   loss injection, router-advertisement-based movement detection, and
   home-agent redundancy with failover (the paper's cited further
   work). *)

open Ipv6
open Mmcast

let group = Scenario.group

(* ---- ND codec ---- *)

let nd_codec_tests =
  let roundtrip name p =
    Alcotest.test_case name `Quick (fun () ->
        let wire = Codec.encode p in
        Alcotest.(check int) "size = wire length" (Packet.size p) (Bytes.length wire);
        match Codec.decode wire with
        | Ok decoded -> Alcotest.(check bool) "round trip" true (Packet.equal p decoded)
        | Error e -> Alcotest.failf "decode failed: %s" e)
  in
  [ roundtrip "router advertisement"
      (Packet.make ~hop_limit:1
         ~src:(Addr.of_string "fe80::1")
         ~dst:Addr.all_nodes
         (Packet.Nd
            (Nd_message.Router_advertisement
               { prefix = Prefix.of_string "2001:db8:6::/64";
                 router_lifetime_s = 1800;
                 interval_ms = 1000 })));
    roundtrip "home agent heartbeat"
      (Packet.make ~hop_limit:1
         ~src:(Addr.of_string "2001:db8:4::1")
         ~dst:Addr.all_routers
         (Packet.Nd (Nd_message.Home_agent_heartbeat { priority = 3; sequence = 77 })));
    Alcotest.test_case "ra size is 48 bytes of ICMPv6" `Quick (fun () ->
        let m =
          Nd_message.Router_advertisement
            { prefix = Prefix.of_string "2001:db8:1::/64";
              router_lifetime_s = 60;
              interval_ms = 500 }
        in
        Alcotest.(check int) "48" 48 (Nd_message.size m))
  ]

(* ---- loss injection ---- *)

let loss_tests =
  [ Alcotest.test_case "loss rate bounds checked" `Quick (fun () ->
        let s = Scenario.paper_figure1 Scenario.default_spec in
        match Net.Network.set_loss_rate s.Scenario.net (Scenario.link s "L1") 1.5 with
        | _ -> Alcotest.fail "accepted rate > 1"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "full loss blocks delivery, zero loss restores it" `Quick (fun () ->
        let s = Scenario.paper_figure1 Scenario.default_spec in
        Traffic.at s 5.0 (fun () -> Scenario.subscribe_receivers s group);
        ignore
          (Traffic.cbr s (Scenario.host s "S") ~group ~from_t:30.0 ~until:120.0
             ~interval:0.5 ~bytes:500);
        (* Kill L2 from t=50 to t=80. *)
        Traffic.at s 50.0 (fun () ->
            Net.Network.set_loss_rate s.Scenario.net (Scenario.link s "L2") 1.0);
        let r2_rx_at_loss = ref 0 in
        Traffic.at s 51.0 (fun () ->
            r2_rx_at_loss := Host_stack.received_count (Scenario.host s "R2") ~group);
        Traffic.at s 79.0 (fun () ->
            Alcotest.(check int) "nothing delivered during blackout" !r2_rx_at_loss
              (Host_stack.received_count (Scenario.host s "R2") ~group));
        Traffic.at s 80.0 (fun () ->
            Net.Network.set_loss_rate s.Scenario.net (Scenario.link s "L2") 0.0);
        Scenario.run_until s 120.0;
        Alcotest.(check bool) "losses counted" true (Net.Network.losses s.Scenario.net > 0);
        Alcotest.(check bool) "delivery resumed" true
          (Host_stack.received_count (Scenario.host s "R2") ~group > !r2_rx_at_loss));
    Alcotest.test_case "binding updates survive a lossy path (retransmission)" `Quick
      (fun () ->
        let spec = { Scenario.default_spec with approach = Approach.bidirectional_tunnel } in
        let s = Scenario.paper_figure1 spec in
        (* 40% loss on the foreign link: the first BU or its Ack may
           vanish; exponential-backoff retransmission must converge. *)
        Net.Network.set_loss_rate s.Scenario.net (Scenario.link s "L6") 0.4;
        let r3 = Scenario.host s "R3" in
        Traffic.at s 5.0 (fun () -> Host_stack.subscribe r3 group);
        Traffic.at s 10.0 (fun () -> Host_stack.move_to r3 (Scenario.link s "L6"));
        Scenario.run_until s 60.0;
        Alcotest.(check bool) "registered despite loss" true
          (Mipv6.Mobile_node.is_registered (Host_stack.mobile r3));
        Alcotest.(check bool) "took retransmissions" true
          (Mipv6.Mobile_node.binding_updates_sent (Host_stack.mobile r3) >= 1));
    Alcotest.test_case "mld robustness: membership survives moderate loss" `Quick (fun () ->
        let s = Scenario.paper_figure1 Scenario.default_spec in
        Net.Network.set_loss_rate s.Scenario.net (Scenario.link s "L4") 0.3;
        Traffic.at s 5.0 (fun () -> Scenario.subscribe_receivers s group);
        ignore
          (Traffic.cbr s (Scenario.host s "S") ~group ~from_t:30.0 ~until:590.0
             ~interval:1.0 ~bytes:200);
        Scenario.run_until s 560.0;
        let before = Host_stack.received_count (Scenario.host s "R3") ~group in
        Scenario.run_until s 590.0;
        (* Reports answer the periodic queries; with robustness 2 the
           membership must never lapse, so R3 keeps receiving. *)
        Alcotest.(check bool) "still receiving at t=590" true
          (Host_stack.received_count (Scenario.host s "R3") ~group > before))
  ]

let binding_request_tests =
  [ Alcotest.test_case "home agent probes a lazy mobile node" `Quick (fun () ->
        (* A mobile node that would only refresh at 99% of the lifetime
           (well past the home agent's 75% warning) survives because
           the Binding Request triggers an immediate re-registration. *)
        let mipv6 = { Mipv6.Mipv6_config.default with refresh_fraction = 0.99 } in
        let spec =
          { Scenario.default_spec with
            approach = Approach.bidirectional_tunnel;
            mipv6 }
        in
        let s = Scenario.paper_figure1 spec in
        let r3 = Scenario.host s "R3" in
        let d = Scenario.router s "D" in
        Traffic.at s 5.0 (fun () -> Host_stack.subscribe r3 group);
        Traffic.at s 10.0 (fun () -> Host_stack.move_to r3 (Scenario.link s "L6"));
        (* 75% of 256 s = 192 s: the probe lands around t = 202. *)
        Scenario.run_until s 230.0;
        Alcotest.(check bool) "binding survived" true
          (Router_stack.binding_for d (Host_stack.home_address r3) <> None);
        Alcotest.(check bool) "probe-triggered update happened" true
          (Mipv6.Mobile_node.binding_updates_sent (Host_stack.mobile r3) >= 2);
        (* And it keeps surviving over several lifetimes. *)
        Scenario.run_until s 800.0;
        Alcotest.(check bool) "still bound at t=800" true
          (Router_stack.binding_for d (Host_stack.home_address r3) <> None))
  ]

(* ---- router-advertisement movement detection ---- *)

let ra_tests =
  [ Alcotest.test_case "movement detected by the first advertisement" `Quick (fun () ->
        let spec = { Scenario.default_spec with ra_interval = Some 0.5 } in
        let s = Scenario.paper_figure1 spec in
        let r3 = Scenario.host s "R3" in
        Traffic.at s 5.0 (fun () -> Scenario.subscribe_receivers s group);
        ignore
          (Traffic.cbr s (Scenario.host s "S") ~group ~from_t:10.0 ~until:100.0
             ~interval:0.25 ~bytes:200);
        Traffic.at s 40.0 (fun () -> Host_stack.move_to r3 (Scenario.link s "L6"));
        (* Shortly after the move, still undetected (stale state). *)
        Traffic.at s 40.001 (fun () ->
            Alcotest.(check bool) "stale right after handoff" true (Host_stack.at_home r3));
        (* Within ~1.2 advertisement intervals the care-of address is
           configured. *)
        Traffic.at s 41.5 (fun () ->
            Alcotest.(check bool) "detected via RA" false (Host_stack.at_home r3);
            Alcotest.(check bool) "coa on L6" true
              (Prefix.contains (Prefix.of_string "2001:db8:6::/64")
                 (Host_stack.current_source_address r3)));
        Scenario.run_until s 100.0;
        (match Metrics.join_delay r3 ~group with
         | Some d -> Alcotest.(check bool) "join delay ~ RA interval" true (d < 3.0)
         | None -> Alcotest.fail "no data after move");
        Alcotest.(check bool) "receiving on L6" true
          (Host_stack.received_count r3 ~group > 100));
    Alcotest.test_case "advertisements are classified as ND signalling" `Quick (fun () ->
        let spec = { Scenario.default_spec with ra_interval = Some 1.0 } in
        let s = Scenario.paper_figure1 spec in
        let metrics = Metrics.attach s.Scenario.net in
        Scenario.run_until s 30.0;
        Alcotest.(check bool) "nd bytes counted" true
          (Metrics.bytes metrics Metrics.Nd_signalling > 0);
        Alcotest.(check bool) "ras in the census" true
          ((Metrics.control_counts metrics).Metrics.router_advertisements > 50));
    Alcotest.test_case "returning home detected by the home advertisement" `Quick (fun () ->
        let spec = { Scenario.default_spec with ra_interval = Some 0.5 } in
        let s = Scenario.paper_figure1 spec in
        let r3 = Scenario.host s "R3" in
        Traffic.at s 10.0 (fun () -> Host_stack.move_to r3 (Scenario.link s "L6"));
        Traffic.at s 30.0 (fun () -> Host_stack.move_to r3 (Scenario.link s "L4"));
        Scenario.run_until s 35.0;
        Alcotest.(check bool) "back home" true (Host_stack.at_home r3);
        (* Deregistration happened. *)
        Alcotest.(check bool) "binding gone" true
          (Router_stack.binding_for (Scenario.router s "D") (Host_stack.home_address r3)
           = None))
  ]

(* ---- home-agent redundancy ---- *)

(* A home link L1 served by two home agents, a backbone, and a foreign
   link; the mobile host MH is homed on L1, the sender streams from
   L2. *)
let failover_scenario ?(spec = Scenario.default_spec) () =
  let spec = { spec with Scenario.ha_failover = true; approach = Approach.bidirectional_tunnel } in
  Scenario.build spec
    ~links:
      [ ("L1", "2001:db8:1::/64"); ("LB", "2001:db8:b::/64"); ("L2", "2001:db8:2::/64") ]
    ~routers:
      [ ("HA1", [ "L1"; "LB" ], [ "L1" ]);
        ("HA2", [ "L1"; "LB" ], [ "L1" ]);
        ("R", [ "LB"; "L2" ], [ "L2" ]) ]
    ~hosts:[ ("S", "L2"); ("MH", "L1") ]

let failover_tests =
  [ Alcotest.test_case "lowest router becomes the active agent" `Quick (fun () ->
        let s = failover_scenario () in
        Scenario.run_until s 5.0;
        let l1 = Scenario.link s "L1" in
        Alcotest.(check bool) "HA1 active" true
          (Router_stack.is_active_home_agent (Scenario.router s "HA1") l1);
        Alcotest.(check bool) "HA2 standby" false
          (Router_stack.is_active_home_agent (Scenario.router s "HA2") l1);
        (* The service address resolves to the active agent. *)
        let service =
          Router_stack.ha_service_address (Net.Network.topology s.Scenario.net) l1
        in
        Alcotest.(check bool) "service address owned by HA1" true
          (Net.Network.resolve s.Scenario.net ~link:l1 service
           = Some (Router_stack.node_id (Scenario.router s "HA1"))));
    Alcotest.test_case "bindings replicate to the standby" `Quick (fun () ->
        let s = failover_scenario () in
        let mh = Scenario.host s "MH" in
        Traffic.at s 5.0 (fun () -> Host_stack.subscribe mh group);
        Traffic.at s 10.0 (fun () -> Host_stack.move_to mh (Scenario.link s "L2"));
        Scenario.run_until s 20.0;
        let home = Host_stack.home_address mh in
        (match Router_stack.binding_for (Scenario.router s "HA1") home with
         | Some _ -> ()
         | None -> Alcotest.fail "active has no binding");
        match Router_stack.binding_for (Scenario.router s "HA2") home with
        | Some entry ->
          Alcotest.(check bool) "standby knows the care-of address" true
            (Addr.equal entry.Mipv6.Binding_cache.care_of
               (Host_stack.current_source_address mh));
          Alcotest.(check int) "groups replicated" 1
            (List.length entry.Mipv6.Binding_cache.groups)
        | None -> Alcotest.fail "standby has no binding");
    Alcotest.test_case "delivery survives the active agent crashing" `Quick (fun () ->
        let s = failover_scenario () in
        let mh = Scenario.host s "MH" in
        let ha1 = Scenario.router s "HA1" in
        Traffic.at s 5.0 (fun () -> Host_stack.subscribe mh group);
        ignore
          (Traffic.cbr s (Scenario.host s "S") ~group ~from_t:20.0 ~until:200.0
             ~interval:0.5 ~bytes:400);
        Traffic.at s 30.0 (fun () -> Host_stack.move_to mh (Scenario.link s "L2"));
        (* Tunnel established via HA1; crash it at t=60. *)
        let rx_at_crash = ref 0 in
        Traffic.at s 60.0 (fun () ->
            Alcotest.(check bool) "receiving before crash" true
              (Host_stack.received_count mh ~group > 10);
            rx_at_crash := Host_stack.received_count mh ~group;
            Router_stack.fail ha1);
        (* Failover completes within ~3.5 heartbeat intervals; give the
           takeover and the tunnel a little time. *)
        Traffic.at s 75.0 (fun () ->
            Alcotest.(check bool) "HA2 took over" true
              (Router_stack.is_active_home_agent (Scenario.router s "HA2")
                 (Scenario.link s "L1")));
        Scenario.run_until s 120.0;
        Alcotest.(check bool) "delivery resumed through HA2" true
          (Host_stack.received_count mh ~group > !rx_at_crash + 50);
        Alcotest.(check bool) "HA1 reported failed" true (Router_stack.is_failed ha1));
    Alcotest.test_case "fail-back when the primary recovers" `Quick (fun () ->
        let s = failover_scenario () in
        let mh = Scenario.host s "MH" in
        let ha1 = Scenario.router s "HA1" in
        let ha2 = Scenario.router s "HA2" in
        let l1 = Scenario.link s "L1" in
        Traffic.at s 5.0 (fun () -> Host_stack.subscribe mh group);
        ignore
          (Traffic.cbr s (Scenario.host s "S") ~group ~from_t:20.0 ~until:300.0
             ~interval:0.5 ~bytes:400);
        Traffic.at s 30.0 (fun () -> Host_stack.move_to mh (Scenario.link s "L2"));
        Traffic.at s 60.0 (fun () -> Router_stack.fail ha1);
        Traffic.at s 120.0 (fun () -> Router_stack.recover ha1);
        let rx_after_failback = ref 0 in
        Traffic.at s 140.0 (fun () ->
            Alcotest.(check bool) "HA1 active again" true
              (Router_stack.is_active_home_agent ha1 l1);
            Alcotest.(check bool) "HA2 standby again" false
              (Router_stack.is_active_home_agent ha2 l1);
            (* The recovered primary got the bindings back via sync. *)
            Alcotest.(check bool) "binding restored at HA1" true
              (Router_stack.binding_for ha1 (Host_stack.home_address mh) <> None);
            rx_after_failback := Host_stack.received_count mh ~group);
        Scenario.run_until s 200.0;
        Alcotest.(check bool) "delivery continues after fail-back" true
          (Host_stack.received_count mh ~group > !rx_after_failback + 50));
    Alcotest.test_case "crashed router black-holes until takeover" `Quick (fun () ->
        let s = failover_scenario () in
        let mh = Scenario.host s "MH" in
        let ha1 = Scenario.router s "HA1" in
        Traffic.at s 5.0 (fun () -> Host_stack.subscribe mh group);
        ignore
          (Traffic.cbr s (Scenario.host s "S") ~group ~from_t:20.0 ~until:100.0
             ~interval:0.1 ~bytes:200);
        Traffic.at s 30.0 (fun () -> Host_stack.move_to mh (Scenario.link s "L2"));
        Traffic.at s 60.0 (fun () -> Router_stack.fail ha1);
        Scenario.run_until s 100.0;
        (* Some datagrams are lost in the takeover gap: the sender sent
           more than MH received. *)
        let sent = Host_stack.data_sent (Scenario.host s "S") in
        let got = Host_stack.received_count mh ~group in
        Alcotest.(check bool) "some takeover loss" true (got < sent);
        Alcotest.(check bool) "but bounded (a few seconds at 10 Hz)" true
          (sent - got < 120))
  ]

(* ---- PIM-DM State Refresh ---- *)

(* A pruned router-to-router branch: router B has nothing behind it and
   prunes; without State Refresh the branch re-floods every prune
   holdtime. *)
let pruned_branch_scenario ~state_refresh =
  let pim =
    { Pimdm.Pim_config.default with
      state_refresh_interval = (if state_refresh then Some 60.0 else None) }
  in
  let spec = { Scenario.default_spec with Scenario.pim } in
  Scenario.build spec
    ~links:
      [ ("L1", "2001:db8:1::/64"); ("L2", "2001:db8:2::/64"); ("L3", "2001:db8:3::/64") ]
    ~routers:[ ("A", [ "L1"; "L2" ], [ "L1" ]); ("B", [ "L2"; "L3" ], []) ]
    ~hosts:[ ("S", "L1"); ("R1", "L1") ]

let run_pruned_branch ~state_refresh =
  let s = pruned_branch_scenario ~state_refresh in
  let m = Metrics.attach s.Scenario.net in
  Traffic.at s 5.0 (fun () -> Scenario.subscribe_receivers s group);
  ignore
    (Traffic.cbr s (Scenario.host s "S") ~group ~from_t:30.0 ~until:700.0 ~interval:0.5
       ~bytes:500);
  Scenario.run_until s 700.0;
  (Metrics.data_bytes_on m (Scenario.link s "L2"),
   (Metrics.control_counts m).Metrics.state_refreshes,
   Host_stack.received_count (Scenario.host s "R1") ~group)

let state_refresh_tests =
  [ Alcotest.test_case "codec round trip" `Quick (fun () ->
        let p =
          Packet.make ~hop_limit:1
            ~src:(Addr.of_string "fe80::1")
            ~dst:Addr.all_pim_routers
            (Packet.Pim
               (Pim_message.State_refresh
                  { refresh_source = Addr.of_string "2001:db8:1::10";
                    refresh_group = group;
                    interval_s = 60;
                    prune_indicator = false }))
        in
        let wire = Codec.encode p in
        Alcotest.(check int) "size" (Packet.size p) (Bytes.length wire);
        match Codec.decode wire with
        | Ok decoded -> Alcotest.(check bool) "equal" true (Packet.equal p decoded)
        | Error e -> Alcotest.failf "decode: %s" e);
    Alcotest.test_case "suppresses periodic re-floods on pruned branches" `Quick (fun () ->
        let without, refreshes_without, rx_without = run_pruned_branch ~state_refresh:false in
        let with_, refreshes_with, rx_with = run_pruned_branch ~state_refresh:true in
        Alcotest.(check int) "no refreshes when disabled" 0 refreshes_without;
        Alcotest.(check bool) "refreshes flow when enabled" true (refreshes_with >= 5);
        (* Re-floods every 210 s make the pruned branch carry several
           times the traffic of the single initial flood. *)
        Alcotest.(check bool) "re-flood traffic without the extension" true
          (without > 3 * with_);
        (* Delivery to the real receiver is unaffected either way. *)
        Alcotest.(check bool) "receiver unaffected" true
          (abs (rx_without - rx_with) <= 2));
    Alcotest.test_case "state survives on refresh alone (no data timeout)" `Quick (fun () ->
        let s = pruned_branch_scenario ~state_refresh:true in
        Traffic.at s 5.0 (fun () -> Scenario.subscribe_receivers s group);
        ignore
          (Traffic.cbr s (Scenario.host s "S") ~group ~from_t:30.0 ~until:600.0
             ~interval:0.5 ~bytes:500);
        Scenario.run_until s 600.0;
        (* B has been pruned (receiving no data) for ~570 s, far beyond
           the 210 s data timeout, yet the refreshes kept its (S,G)
           state alive. *)
        let b = Scenario.router s "B" in
        Alcotest.(check int) "B still has the (S,G) entry" 1
          (List.length (Pimdm.Pim_router.entries (Router_stack.pim b))))
  ]

(* All features enabled at once: RA detection, failover, state refresh,
   loss injection, tunnel-MLD signalling, random churn. *)
let soak_tests =
  [ Alcotest.test_case "everything-on soak: delivery survives" `Slow (fun () ->
        let pim =
          { Pimdm.Pim_config.default with state_refresh_interval = Some 60.0 }
        in
        let spec =
          { Scenario.default_spec with
            approach = Approach.bidirectional_tunnel;
            ha_mode = Router_stack.Ha_pim_tunnel_mld;
            ra_interval = Some 1.0;
            ha_failover = true;
            pim;
            seed = 3 }
        in
        let s =
          Scenario.build spec
            ~links:
              [ ("L1", "2001:db8:1::/64"); ("LB", "2001:db8:b::/64");
                ("L2", "2001:db8:2::/64"); ("L3", "2001:db8:3::/64") ]
            ~routers:
              [ ("HA1", [ "L1"; "LB" ], [ "L1" ]);
                ("HA2", [ "L1"; "LB" ], [ "L1" ]);
                ("R2", [ "LB"; "L2" ], [ "L2" ]);
                ("R3", [ "LB"; "L3" ], [ "L3" ]) ]
            ~hosts:[ ("SRC", "L2"); ("MH", "L1") ]
        in
        (* Mild loss on the backbone. *)
        Net.Network.set_loss_rate s.Scenario.net (Scenario.link s "LB") 0.02;
        let mh = Scenario.host s "MH" in
        Traffic.at s 5.0 (fun () -> Host_stack.subscribe mh group);
        ignore
          (Traffic.cbr s (Scenario.host s "SRC") ~group ~from_t:20.0 ~until:580.0
             ~interval:0.25 ~bytes:600);
        (* MH roams between its home link and both foreign links. *)
        List.iteri
          (fun k link ->
            Traffic.at s (60.0 +. (90.0 *. float_of_int k)) (fun () ->
                Host_stack.move_to mh (Scenario.link s link)))
          [ "L3"; "L2"; "L1"; "L3"; "L2" ];
        (* The active home agent crashes mid-run and comes back. *)
        Traffic.at s 200.0 (fun () -> Router_stack.fail (Scenario.router s "HA1"));
        Traffic.at s 320.0 (fun () -> Router_stack.recover (Scenario.router s "HA1"));
        Scenario.run_until s 600.0;
        let sent = Host_stack.data_sent (Scenario.host s "SRC") in
        let got = Host_stack.received_count mh ~group in
        (* The shortfall is two bounded recovery windows, not an
           unbounded outage: a lost Join override costs at most one
           State-Refresh interval (60 s, vs. the 210 s prune holdtime
           without the extension), and a lost tunnel-MLD Report costs
           one startup-query interval (~31 s). *)
        Alcotest.(check bool)
          (Printf.sprintf "delivered %d of %d under churn+crash+loss" got sent)
          true
          (float_of_int got > 0.78 *. float_of_int sent);
        (* The run ends in a stable state: MH back home, no binding. *)
        Alcotest.(check bool) "stable at the end" true
          (Host_stack.received_count mh ~group > 0))
  ]

let () =
  Alcotest.run "extensions"
    [ ("nd codec", nd_codec_tests);
      ("state refresh", state_refresh_tests);
      ("binding request", binding_request_tests);
      ("loss injection", loss_tests);
      ("ra detection", ra_tests);
      ("ha failover", failover_tests);
      ("soak", soak_tests)
    ]

(* End-to-end scenarios on the paper's Figure 1 network. *)

open Mmcast

let group = Scenario.group

(* Constant-bit-rate multicast source. *)
let cbr scenario host ~from_t ~until ~interval ~bytes =
  let sim = scenario.Scenario.sim in
  let rec tick () =
    if Engine.Time.compare (Engine.Sim.now sim) until < 0 then begin
      Host_stack.send_data host ~group ~bytes;
      ignore (Engine.Sim.schedule_after sim interval tick)
    end
  in
  ignore (Engine.Sim.schedule_at sim from_t tick)

let at scenario time f = ignore (Engine.Sim.schedule_at scenario.Scenario.sim time f)

let setup ?(spec = Scenario.default_spec) () =
  let scenario = Scenario.paper_figure1 spec in
  let metrics = Metrics.attach scenario.Scenario.net in
  at scenario 5.0 (fun () -> Scenario.subscribe_receivers scenario group);
  (scenario, metrics)

let source_addr scenario = Host_stack.home_address (Scenario.host scenario "S")

let check_tree_is_figure1 scenario =
  let links = Tree.links_carrying scenario ~source:(source_addr scenario) ~group in
  Alcotest.(check (list string))
    "distribution tree covers exactly the member links" [ "L1"; "L2"; "L3"; "L4" ] links

let test_initial_tree () =
  let scenario, _metrics = setup () in
  cbr scenario (Scenario.host scenario "S") ~from_t:30.0 ~until:100.0 ~interval:0.5
    ~bytes:500;
  Scenario.run_until scenario 100.0;
  check_tree_is_figure1 scenario;
  (* All three receivers get the stream. *)
  List.iter
    (fun r ->
      let received = Host_stack.received_count (Scenario.host scenario r) ~group in
      if received < 100 then
        Alcotest.failf "%s received only %d datagrams" r received)
    [ "R1"; "R2"; "R3" ]

let test_leaf_links_pruned_after_flood () =
  let scenario, metrics = setup () in
  cbr scenario (Scenario.host scenario "S") ~from_t:30.0 ~until:100.0 ~interval:0.5
    ~bytes:500;
  Scenario.run_until scenario 100.0;
  (* The initial flood reaches L5 and L6 once (paper: datagrams are
     flooded to all links), after which the empty leaves carry no
     data. *)
  let l5 = Metrics.data_bytes_on metrics (Scenario.link scenario "L5") in
  let l6 = Metrics.data_bytes_on metrics (Scenario.link scenario "L6") in
  Alcotest.(check bool) "L5 saw only the flood" true (l5 > 0 && l5 <= 2 * 540);
  Alcotest.(check bool) "L6 saw only the flood" true (l6 > 0 && l6 <= 2 * 540)

let test_receiver_moves_local_membership () =
  (* Figure 2: Receiver 3 moves from Link 4 to Link 6 under the local
     group membership approach; the tree grows a branch onto L6, and
     stale traffic keeps flowing on L4 until the MLD timer expires. *)
  let scenario, metrics = setup () in
  cbr scenario (Scenario.host scenario "S") ~from_t:30.0 ~until:350.0 ~interval:0.5
    ~bytes:500;
  let r3 = Scenario.host scenario "R3" in
  at scenario 60.0 (fun () -> Host_stack.move_to r3 (Scenario.link scenario "L6"));
  Scenario.run_until scenario 350.0;
  let links = Tree.links_carrying scenario ~source:(source_addr scenario) ~group in
  Alcotest.(check (list string)) "branch moved to L6" [ "L1"; "L2"; "L3"; "L6" ] links;
  (* Join delay: unsolicited reports make it sub-second. *)
  (match Metrics.join_delay r3 ~group with
   | None -> Alcotest.fail "R3 never received data after the move"
   | Some d ->
     if d > 2.0 then Alcotest.failf "join delay %.3fs too large for unsolicited reports" d);
  (* Leave delay: L4 kept carrying data after the move, bounded by
     TMLI = 260 s. *)
  (match Metrics.last_data_tx metrics (Scenario.link scenario "L4") ~group with
   | None -> Alcotest.fail "no data ever seen on L4"
   | Some last ->
     let leave_delay = last -. 60.0 in
     if leave_delay < 30.0 then
       Alcotest.failf "leave delay %.1fs suspiciously small" leave_delay;
     if leave_delay > 260.0 then
       Alcotest.failf "leave delay %.1fs exceeds the TMLI bound" leave_delay);
  (* R3 keeps receiving. *)
  Alcotest.(check bool) "R3 received data on L6" true
    (Host_stack.received_count r3 ~group > 400)

let test_receiver_moves_bidirectional_tunnel () =
  (* Figure 3: with the tunnel approach the tree does not change; data
     reaches R3 through its home agent D. *)
  let spec = { Scenario.default_spec with approach = Approach.bidirectional_tunnel } in
  let scenario, _metrics = setup ~spec () in
  cbr scenario (Scenario.host scenario "S") ~from_t:30.0 ~until:120.0 ~interval:0.5
    ~bytes:500;
  let r3 = Scenario.host scenario "R3" in
  (* One duplicate is expected from the initial flood (both B and C
     forward the first datagram before the Assert election); what must
     not happen is further duplication through the tunnel. *)
  let dups_before_move = ref 0 in
  at scenario 60.0 (fun () ->
      dups_before_move := Host_stack.duplicate_count r3 ~group;
      Host_stack.move_to r3 (Scenario.link scenario "L1"));
  Scenario.run_until scenario 120.0;
  let links = Tree.links_carrying scenario ~source:(source_addr scenario) ~group in
  Alcotest.(check (list string)) "tree unchanged" [ "L1"; "L2"; "L3"; "L4" ] links;
  let tunnels = Tree.tunnels_carrying scenario ~source:(source_addr scenario) ~group in
  Alcotest.(check (list string)) "tunnel to R3 active"
    [ Ipv6.Addr.to_string (Host_stack.home_address r3) ]
    tunnels;
  (match Metrics.join_delay r3 ~group with
   | None -> Alcotest.fail "R3 never received data after the move"
   | Some d ->
     if d > 1.5 then Alcotest.failf "tunnel join delay %.3fs should be small" d);
  Alcotest.(check bool) "R3 received data via tunnel" true
    (Host_stack.received_count r3 ~group > 150);
  Alcotest.(check int) "tunnel adds no duplicate delivery" !dups_before_move
    (Host_stack.duplicate_count r3 ~group)

let test_sender_moves_local_sending () =
  (* Section 4.2.2 A: the sender moves; a brand-new source-rooted tree
     is built for its care-of address, and the old (S,G) state
     lingers. *)
  let scenario, metrics = setup () in
  let s = Scenario.host scenario "S" in
  cbr scenario s ~from_t:30.0 ~until:200.0 ~interval:0.5 ~bytes:500;
  at scenario 100.0 (fun () -> Host_stack.move_to s (Scenario.link scenario "L6"));
  Scenario.run_until scenario 200.0;
  let coa = Host_stack.current_source_address s in
  Alcotest.(check bool) "sender has a care-of address" false
    (Ipv6.Addr.equal coa (Host_stack.home_address s));
  (* New tree rooted on L6 reaches the receivers. *)
  let links = Tree.links_carrying scenario ~source:coa ~group in
  Alcotest.(check bool) "new tree covers member links" true
    (List.for_all (fun l -> List.mem l links) [ "L1"; "L2"; "L6" ]);
  (* Old state is still around (data timeout has not struck). *)
  let old_entries =
    List.concat_map
      (fun (_, r) -> Pimdm.Pim_router.entries (Router_stack.pim r))
      scenario.Scenario.routers
  in
  let has_old =
    List.exists (fun (s_, _) -> Ipv6.Addr.equal s_ (Host_stack.home_address s)) old_entries
  in
  Alcotest.(check bool) "old (S,G) state lingers" true has_old;
  (* Receivers keep receiving from the new tree. *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r ^ " keeps receiving after sender handoff")
        true
        (Host_stack.received_count (Scenario.host scenario r) ~group > 250))
    [ "R1"; "R2" ];
  ignore metrics

let test_sender_moves_reverse_tunnel () =
  (* Figure 4: the sender reverse-tunnels to its home agent; the
     distribution tree stays rooted at the home link and no new flood
     happens. *)
  let spec = { Scenario.default_spec with approach = Approach.tunnel_to_home_agent } in
  let scenario, metrics = setup ~spec () in
  let s = Scenario.host scenario "S" in
  cbr scenario s ~from_t:30.0 ~until:200.0 ~interval:0.5 ~bytes:500;
  at scenario 100.0 (fun () -> Host_stack.move_to s (Scenario.link scenario "L6"));
  Scenario.run_until scenario 200.0;
  (* The tree for the home-address source persists. *)
  let links = Tree.links_carrying scenario ~source:(Host_stack.home_address s) ~group in
  Alcotest.(check (list string)) "tree still rooted at home" [ "L1"; "L2"; "L3"; "L4" ] links;
  (* No (S,G) state for the care-of address anywhere. *)
  let coa = Host_stack.current_source_address s in
  let coa_entries =
    List.concat_map
      (fun (_, r) -> Pimdm.Pim_router.entries (Router_stack.pim r))
      scenario.Scenario.routers
    |> List.filter (fun (s_, _) -> Ipv6.Addr.equal s_ coa)
  in
  Alcotest.(check int) "no tree for the care-of address" 0 (List.length coa_entries);
  (* Tunnel overhead exists after the move. *)
  Alcotest.(check bool) "tunnel overhead observed" true
    (Metrics.bytes metrics Metrics.Tunnel_overhead > 0);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r ^ " keeps receiving via reverse tunnel")
        true
        (Host_stack.received_count (Scenario.host scenario r) ~group > 250))
    [ "R1"; "R2"; "R3" ]

let test_assert_on_stale_source () =
  (* Section 4.3: the sender moves to an on-tree link; until movement
     detection completes it sends with the stale source address, which
     makes the on-tree routers see data on an outgoing interface and
     start the Assert process. *)
  let spec =
    { Scenario.default_spec with
      mipv6 = { Mipv6.Mipv6_config.default with movement_detection_delay = 2.0 } }
  in
  let scenario, metrics = setup ~spec () in
  let s = Scenario.host scenario "S" in
  cbr scenario s ~from_t:30.0 ~until:150.0 ~interval:0.5 ~bytes:500;
  at scenario 100.0 (fun () -> Host_stack.move_to s (Scenario.link scenario "L2"));
  Scenario.run_until scenario 150.0;
  let counts = Metrics.control_counts metrics in
  Alcotest.(check bool) "asserts were triggered" true (counts.Metrics.asserts > 0)

let test_prune_join_override () =
  (* Section 3.1: when D prunes L3 (its last receiver left), E — which
     still needs the traffic — answers with a Join within TPruneDel, so
     forwarding on L3 never stops. *)
  let scenario, metrics = setup () in
  cbr scenario (Scenario.host scenario "S") ~from_t:30.0 ~until:340.0 ~interval:0.5
    ~bytes:500;
  let r3 = Scenario.host scenario "R3" in
  at scenario 60.0 (fun () -> Host_stack.move_to r3 (Scenario.link scenario "L6"));
  (* After the MLD timer on L4 expires (~t=275), D wants to prune L3;
     E must override because R3 now sits behind it. *)
  Scenario.run_until scenario 340.0;
  let counts = Metrics.control_counts metrics in
  Alcotest.(check bool) "prunes happened" true (counts.Metrics.prunes > 0);
  Alcotest.(check bool) "join override happened" true (counts.Metrics.joins > 0);
  (* R3 still receives at the end. *)
  let rx_before = Host_stack.received_count r3 ~group in
  cbr scenario (Scenario.host scenario "S") ~from_t:341.0 ~until:345.0 ~interval:0.5
    ~bytes:500;
  Scenario.run_until scenario 346.0;
  Alcotest.(check bool) "stream still flowing after prune fight" true
    (Host_stack.received_count r3 ~group > rx_before)

let test_binding_lifecycle () =
  let scenario, _metrics = setup () in
  let r3 = Scenario.host scenario "R3" in
  let d = Scenario.router scenario "D" in
  at scenario 10.0 (fun () -> Host_stack.move_to r3 (Scenario.link scenario "L6"));
  Scenario.run_until scenario 20.0;
  (match Router_stack.binding_for d (Host_stack.home_address r3) with
   | None -> Alcotest.fail "home agent D has no binding for R3"
   | Some entry ->
     Alcotest.(check bool) "care-of on L6" true
       (Ipv6.Addr.equal entry.Mipv6.Binding_cache.care_of
          (Host_stack.current_source_address r3)));
  (* Returning home deregisters. *)
  at scenario 30.0 (fun () -> Host_stack.move_to r3 (Scenario.link scenario "L4"));
  Scenario.run_until scenario 40.0;
  Alcotest.(check bool) "binding removed after returning home" true
    (Router_stack.binding_for d (Host_stack.home_address r3) = None);
  Alcotest.(check bool) "R3 back home and detected" true (Host_stack.at_home r3)

let test_binding_refresh_keeps_tunnel_alive () =
  (* Stay away longer than the binding lifetime (256 s): periodic
     Binding Updates must keep the tunnel (and group delivery) alive. *)
  let spec = { Scenario.default_spec with approach = Approach.bidirectional_tunnel } in
  let scenario, _metrics = setup ~spec () in
  let r3 = Scenario.host scenario "R3" in
  cbr scenario (Scenario.host scenario "S") ~from_t:30.0 ~until:590.0 ~interval:1.0
    ~bytes:500;
  at scenario 60.0 (fun () -> Host_stack.move_to r3 (Scenario.link scenario "L6"));
  Scenario.run_until scenario 560.0;
  let before = Host_stack.received_count r3 ~group in
  Scenario.run_until scenario 590.0;
  Alcotest.(check bool) "still receiving 8+ minutes after the move" true
    (Host_stack.received_count r3 ~group > before);
  let d = Scenario.router scenario "D" in
  Alcotest.(check bool) "binding alive" true
    (Router_stack.binding_for d (Host_stack.home_address r3) <> None)

let test_tunnel_mld_mode () =
  (* Section 4.3.2's first solution: the home agent is a PIM router
     and MLD runs through the tunnel — Queries from the home agent,
     Reports from the mobile host, full timer machinery. *)
  let spec =
    { Scenario.default_spec with
      approach = Approach.bidirectional_tunnel;
      ha_mode = Router_stack.Ha_pim_tunnel_mld }
  in
  let scenario, metrics = setup ~spec () in
  let r3 = Scenario.host scenario "R3" in
  cbr scenario (Scenario.host scenario "S") ~from_t:30.0 ~until:680.0 ~interval:1.0
    ~bytes:400;
  at scenario 60.0 (fun () -> Host_stack.move_to r3 (Scenario.link scenario "L6"));
  Scenario.run_until scenario 400.0;
  (* Delivery through the tunnel works... *)
  Alcotest.(check bool) "receives via tunnel-MLD membership" true
    (Host_stack.received_count r3 ~group > 250);
  (* ...the home agent queried through the tunnel, and the host
     reported back through it (tunnelled MLD = encapsulated
     signalling). *)
  let counts = Metrics.control_counts metrics in
  Alcotest.(check bool) "queries flowed" true (counts.Metrics.queries > 10);
  Alcotest.(check bool) "tunnel overhead includes signalling" true
    (Metrics.bytes metrics Metrics.Tunnel_overhead
     > Metrics.packets metrics Metrics.Data_tunnelled * 40);
  (* The membership is refreshed by Reports answering tunnel Queries,
     so it outlives TMLI. *)
  let d = Scenario.router scenario "D" in
  (match Router_stack.tunnel_iface_of d (Host_stack.home_address r3) with
   | Some viface ->
     Alcotest.(check bool) "viface member" true
       (Pimdm.Pim_router.is_forwarding (Router_stack.pim d)
          ~source:(Host_stack.home_address (Scenario.host scenario "S"))
          ~group ~iface:viface)
   | None -> Alcotest.fail "no tunnel iface at D");
  (* Now the host dies silently: the home agent's tunnel membership
     lapses after TMLI (and the binding after its lifetime), so
     tunnelling must have fully stopped by t = 400 + max(TMLI,
     lifetime) + slack. *)
  Host_stack.stop r3;
  Scenario.run_until scenario 620.0;
  let tunnel_pkts_at_620 = Metrics.packets metrics Metrics.Data_tunnelled in
  Scenario.run_until scenario 680.0;
  Alcotest.(check int) "tunnelling fully dried up" tunnel_pkts_at_620
    (Metrics.packets metrics Metrics.Data_tunnelled)

let test_approach_mix_profiles () =
  (* Approaches 3 and 4 are the mixed rows of Table 1. *)
  let spec =
    { Scenario.default_spec with
      mld = { Mld.Mld_config.default with unsolicited_report_count = 0 } }
  in
  let r3_ = Scale.Paper.table1_row ~spec Approach.tunnel_to_home_agent in
  let r4 = Scale.Paper.table1_row ~spec Approach.tunnel_from_home_agent in
  (* Approach 3: receiver behaves like approach 1 (local: optimal but
     slow joins), sender like approach 2 (tunnel: no rebuild). *)
  Alcotest.(check (float 1e-9)) "3: receiver stretch optimal" 1.0
    r3_.Scale.Paper.receiver_stretch;
  Alcotest.(check bool) "3: long join delay" true
    (match r3_.Scale.Paper.join_delay_s with
     | Some d -> d > 10.0
     | None -> false);
  Alcotest.(check bool) "3: sender keeps one tree" true
    (r3_.Scale.Paper.sender_sg_states <= 5);
  Alcotest.(check bool) "3: sender stretch > 1" true (r3_.Scale.Paper.sender_stretch > 1.0);
  (* Approach 4: the opposite mix. *)
  Alcotest.(check bool) "4: receiver stretch > 1" true
    (r4.Scale.Paper.receiver_stretch > 1.0);
  Alcotest.(check bool) "4: short join delay" true
    (match r4.Scale.Paper.join_delay_s with
     | Some d -> d < 2.0
     | None -> false);
  Alcotest.(check bool) "4: sender rebuilds trees" true
    (r4.Scale.Paper.sender_sg_states >= 10);
  Alcotest.(check (float 1e-9)) "4: sender stretch optimal" 1.0 r4.Scale.Paper.sender_stretch

let test_two_groups_independent_trees () =
  (* Two groups with different membership: each (S,G) pair gets its own
     tree and only its subscribers receive it. *)
  let group2 = Ipv6.Addr.of_string "ff0e::2:2" in
  let scenario, _ = setup () in
  let s = Scenario.host scenario "S" in
  at scenario 5.0 (fun () ->
      (* R1 takes both, R2 only group, R3 only group2 (on top of the
         subscribe_receivers from setup, which joined everyone to
         group). *)
      Host_stack.unsubscribe (Scenario.host scenario "R3") group;
      Host_stack.subscribe (Scenario.host scenario "R1") group2;
      Host_stack.subscribe (Scenario.host scenario "R3") group2);
  let cbr2 host ~from_t ~until ~interval ~bytes =
    let sim = scenario.Scenario.sim in
    let rec tick () =
      if Engine.Time.compare (Engine.Sim.now sim) until < 0 then begin
        Host_stack.send_data host ~group:group2 ~bytes;
        ignore (Engine.Sim.schedule_after sim interval tick)
      end
    in
    ignore (Engine.Sim.schedule_at sim from_t tick)
  in
  cbr scenario s ~from_t:30.0 ~until:150.0 ~interval:0.5 ~bytes:300;
  cbr2 s ~from_t:30.0 ~until:150.0 ~interval:0.5 ~bytes:300;
  Scenario.run_until scenario 150.0;
  let rx name g = Host_stack.received_count (Scenario.host scenario name) ~group:g in
  Alcotest.(check bool) "R1 gets both" true (rx "R1" group > 200 && rx "R1" group2 > 200);
  Alcotest.(check bool) "R2 gets only group" true (rx "R2" group > 200 && rx "R2" group2 = 0);
  Alcotest.(check bool) "R3 gets only group2" true (rx "R3" group2 > 200 && rx "R3" group <= 2);
  (* Independent trees: the group tree ends at L2 (no member beyond),
     the group2 tree still reaches L4. *)
  let source = Host_stack.home_address s in
  Alcotest.(check (list string)) "group tree shrank" [ "L1"; "L2" ]
    (Tree.links_carrying scenario ~source ~group);
  Alcotest.(check (list string)) "group2 tree reaches R3" [ "L1"; "L2"; "L3"; "L4" ]
    (Tree.links_carrying scenario ~source ~group:group2)

let test_many_to_many () =
  (* Two senders, one group (the paper's many-to-many motivation):
     each source roots its own tree, everyone receives both streams. *)
  let scenario, _ = setup () in
  let s = Scenario.host scenario "S" in
  let r1 = Scenario.host scenario "R1" in
  (* R1 is also a sender; subscribe S so both directions are checked. *)
  at scenario 5.0 (fun () -> Host_stack.subscribe s group);
  cbr scenario s ~from_t:30.0 ~until:150.0 ~interval:0.5 ~bytes:300;
  cbr scenario r1 ~from_t:31.0 ~until:150.0 ~interval:0.5 ~bytes:300;
  Scenario.run_until scenario 150.0;
  (* 240 datagrams per sender; receivers on other links get both
     streams, the senders get each other's. *)
  Alcotest.(check bool) "R2 got both streams" true
    (Host_stack.received_count (Scenario.host scenario "R2") ~group > 430);
  Alcotest.(check bool) "R3 got both streams" true
    (Host_stack.received_count (Scenario.host scenario "R3") ~group > 430);
  Alcotest.(check bool) "S hears R1" true (Host_stack.received_count s ~group > 200);
  (* Two source-rooted trees exist. *)
  let trees source =
    List.length (Tree.forwarding_edges scenario ~source ~group)
  in
  Alcotest.(check bool) "both trees have forwarding state" true
    (trees (Host_stack.home_address s) > 0 && trees (Host_stack.home_address r1) > 0)

let () =
  Alcotest.run "integration"
    [ ( "figure1",
        [ Alcotest.test_case "initial distribution tree" `Quick test_initial_tree;
          Alcotest.test_case "leaf links pruned after flood" `Quick
            test_leaf_links_pruned_after_flood ] );
      ( "mobile receiver",
        [ Alcotest.test_case "local membership (figure 2)" `Quick
            test_receiver_moves_local_membership;
          Alcotest.test_case "bidirectional tunnel (figure 3)" `Quick
            test_receiver_moves_bidirectional_tunnel ] );
      ( "mobile sender",
        [ Alcotest.test_case "local sending rebuilds tree" `Quick
            test_sender_moves_local_sending;
          Alcotest.test_case "reverse tunnel preserves tree (figure 4)" `Quick
            test_sender_moves_reverse_tunnel;
          Alcotest.test_case "stale source triggers asserts" `Quick
            test_assert_on_stale_source ] );
      ( "pim dynamics",
        [ Alcotest.test_case "prune + join override" `Quick test_prune_join_override ] );
      ( "mobile ipv6",
        [ Alcotest.test_case "binding lifecycle" `Quick test_binding_lifecycle;
          Alcotest.test_case "binding refresh keeps tunnel" `Quick
            test_binding_refresh_keeps_tunnel_alive ] );
      ( "tunnel mld mode",
        [ Alcotest.test_case "MLD through the tunnel (4.3.2 solution 1)" `Quick
            test_tunnel_mld_mode ] );
      ( "approach mixes",
        [ Alcotest.test_case "approaches 3 and 4 combine the halves" `Quick
            test_approach_mix_profiles ] );
      ( "multi group",
        [ Alcotest.test_case "two groups, independent trees" `Quick
            test_two_groups_independent_trees;
          Alcotest.test_case "many-to-many: two senders, one group" `Quick
            test_many_to_many ] )
    ]

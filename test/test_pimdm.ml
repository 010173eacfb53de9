(* Unit tests for the PIM-DM router state machine, driven through a
   scripted environment.

   Fixture: one router with interfaces 0 (towards the source), 1 and 2
   (downstream).  The reverse path for the test source S is interface 0
   with upstream neighbour fe80::ff. *)

open Ipv6

let source = Addr.of_string "2001:db8:1::10"
let group = Addr.of_string "ff0e::1:1"
let upstream_addr = Addr.of_string "fe80::ff"
let my_addr = Addr.of_string "fe80::1"
let downstream1 = Addr.of_string "fe80::21"
let downstream2 = Addr.of_string "fe80::22"

type harness = {
  sim : Engine.Sim.t;
  sent : (int * Pim_message.t) list ref;  (* newest first *)
  forwarded : (int * Packet.t) list ref;
  members : (int * Addr.t, unit) Hashtbl.t;
  router : Pimdm.Pim_router.t;
  config : Pimdm.Pim_config.t;
}

let make ?(config = Pimdm.Pim_config.default) ?(ifaces = [ 0; 1; 2 ]) () =
  let sim = Engine.Sim.create () in
  let sent = ref [] in
  let forwarded = ref [] in
  let members = Hashtbl.create 4 in
  let env =
    { Pimdm.Pim_env.sim;
      trace = Engine.Trace.create sim;
      rng = Engine.Rng.create 11;
      config;
      label = "R";
      interfaces = (fun () -> ifaces);
      local_address = (fun _ -> my_addr);
      send_message = (fun iface msg -> sent := (iface, msg) :: !sent);
      forward_data = (fun iface p -> forwarded := (iface, p) :: !forwarded);
      rpf =
        (fun ~source:s ->
          if Addr.equal s source then
            Some { Pimdm.Pim_env.rpf_iface = 0; upstream = Some upstream_addr; metric = 2 }
          else None);
      has_local_members = (fun iface g -> Hashtbl.mem members (iface, g));
      flood_eligible = (fun _ -> true) }
  in
  let router = Pimdm.Pim_router.create env in
  Pimdm.Pim_router.start router;
  (* Drop the initial hellos from the log. *)
  sent := [];
  { sim; sent; forwarded; members; router; config }

let data_packet ?(src = source) ?(seq = 0) () =
  Packet.make ~src ~dst:group (Packet.Data { stream_id = 1; seq; bytes = 500 })

let hello h ~iface ~from =
  Pimdm.Pim_router.handle_message h.router ~iface ~src:from
    (Pim_message.Hello { holdtime_s = 105 })

let add_member h ~iface = Hashtbl.replace h.members (iface, group) ()
let drop_member h ~iface = Hashtbl.remove h.members (iface, group)

let sg = { Pim_message.source; group }

let forwarded_ifaces h =
  List.rev_map fst !(h.forwarded) |> List.sort_uniq Int.compare

let clear h =
  h.sent := [];
  h.forwarded := []

let sent_of_kind h kind =
  List.rev (List.filter (fun (_, m) -> kind m) !(h.sent))

let is_prune = function
  | Pim_message.Join_prune { prunes = _ :: _; _ } -> true
  | _ -> false

let is_join = function
  | Pim_message.Join_prune { joins = _ :: _; prunes = []; _ } -> true
  | _ -> false

let is_graft = function
  | Pim_message.Graft _ -> true
  | _ -> false

let is_graft_ack = function
  | Pim_message.Graft_ack _ -> true
  | _ -> false

let is_assert = function
  | Pim_message.Assert _ -> true
  | _ -> false

let receive_data h ~iface = Pimdm.Pim_router.handle_data h.router ~iface ~chan:0 (data_packet ())

let forwarding_tests =
  [ Alcotest.test_case "first datagram floods to neighbours and members" `Quick (fun () ->
        let h = make () in
        hello h ~iface:1 ~from:downstream1;
        add_member h ~iface:2;
        receive_data h ~iface:0;
        Alcotest.(check (list int)) "both downstream ifaces" [ 1; 2 ] (forwarded_ifaces h);
        Alcotest.(check (list (pair Alcotest.(pair string string) unit)))
          "entry exists" []
          (ignore (Pimdm.Pim_router.entries h.router); []);
        Alcotest.(check int) "one (S,G)" 1 (List.length (Pimdm.Pim_router.entries h.router)));
    Alcotest.test_case "never forwards back onto the incoming interface" `Quick (fun () ->
        let h = make () in
        hello h ~iface:0 ~from:upstream_addr;
        hello h ~iface:1 ~from:downstream1;
        receive_data h ~iface:0;
        Alcotest.(check bool) "iface 0 clean" false (List.mem 0 (forwarded_ifaces h)));
    Alcotest.test_case "leaf flood happens exactly once" `Quick (fun () ->
        let h = make () in
        (* No neighbours, no members anywhere: ifaces 1,2 are empty
           leaves. *)
        receive_data h ~iface:0;
        Alcotest.(check (list int)) "first packet floods" [ 1; 2 ] (forwarded_ifaces h);
        clear h;
        receive_data h ~iface:0;
        Alcotest.(check (list int)) "second packet pruned" [] (forwarded_ifaces h));
    Alcotest.test_case "leaf flood disabled (draft behaviour)" `Quick (fun () ->
        let config = { Pimdm.Pim_config.default with flood_to_leaf_links = false } in
        let h = make ~config () in
        receive_data h ~iface:0;
        Alcotest.(check (list int)) "no leaf forwarding at all" [] (forwarded_ifaces h));
    Alcotest.test_case "members alone keep an interface forwarding" `Quick (fun () ->
        let h = make () in
        add_member h ~iface:1;
        receive_data h ~iface:0;
        clear h;
        receive_data h ~iface:0;
        Alcotest.(check bool) "member iface still forwarding" true
          (List.mem 1 (forwarded_ifaces h)));
    Alcotest.test_case "data from an unroutable source is dropped" `Quick (fun () ->
        let h = make () in
        Pimdm.Pim_router.handle_data h.router ~iface:0 ~chan:0
          (data_packet ~src:(Addr.of_string "2001:dead::1") ());
        Alcotest.(check int) "no state" 0 (List.length (Pimdm.Pim_router.entries h.router));
        Alcotest.(check (list int)) "nothing forwarded" [] (forwarded_ifaces h));
    Alcotest.test_case "(S,G) state expires after the data timeout" `Quick (fun () ->
        let h = make () in
        add_member h ~iface:1;
        receive_data h ~iface:0;
        Alcotest.(check int) "state present" 1
          (List.length (Pimdm.Pim_router.entries h.router));
        Engine.Sim.run ~until:211.0 h.sim;
        Alcotest.(check int) "state gone at 210 s" 0
          (List.length (Pimdm.Pim_router.entries h.router)));
    Alcotest.test_case "a channel id only caches: each (S,G) on it keeps its own entry" `Quick
      (fun () ->
        let h = make () in
        add_member h ~iface:1;
        let other = Addr.of_string "ff0e::1:2" in
        let data g =
          Pimdm.Pim_router.handle_data h.router ~iface:0 ~chan:0
            (Packet.make ~src:source ~dst:g (Packet.Data { stream_id = 1; seq = 0; bytes = 500 }))
        in
        data group;
        data other;
        data group;
        Alcotest.(check int) "one entry per (S,G)" 2
          (List.length (Pimdm.Pim_router.entries h.router));
        Engine.Sim.run ~until:211.0 h.sim;
        Alcotest.(check int) "both expired" 0 (List.length (Pimdm.Pim_router.entries h.router));
        clear h;
        data group;
        Alcotest.(check (list (pair string string))) "a fresh entry, not the expired one"
          [ (Addr.to_string source, Addr.to_string group) ]
          (List.map
             (fun (s, g) -> (Addr.to_string s, Addr.to_string g))
             (Pimdm.Pim_router.entries h.router));
        Alcotest.(check bool) "and it forwards to the member" true
          (List.mem 1 (forwarded_ifaces h)));
    Alcotest.test_case "continued data keeps state alive" `Quick (fun () ->
        let h = make () in
        add_member h ~iface:1;
        receive_data h ~iface:0;
        for k = 1 to 4 do
          ignore
            (Engine.Sim.schedule_at h.sim (float_of_int k *. 100.0) (fun () ->
                 receive_data h ~iface:0))
        done;
        Engine.Sim.run ~until:450.0 h.sim;
        Alcotest.(check int) "alive at 450 s" 1
          (List.length (Pimdm.Pim_router.entries h.router)))
  ]

let prune_tests =
  [ Alcotest.test_case "prune waits TPruneDel, then stops forwarding" `Quick (fun () ->
        let h = make () in
        hello h ~iface:1 ~from:downstream1;
        receive_data h ~iface:0;
        clear h;
        Pimdm.Pim_router.handle_message h.router ~iface:1 ~src:downstream1
          (Pim_message.Join_prune
             { upstream_neighbor = my_addr; holdtime_s = 210; joins = []; prunes = [ sg ] });
        (* Within the TPruneDel window we still forward. *)
        receive_data h ~iface:0;
        Alcotest.(check bool) "still forwarding in window" true
          (List.mem 1 (forwarded_ifaces h));
        clear h;
        Engine.Sim.run ~until:3.5 h.sim;
        receive_data h ~iface:0;
        Alcotest.(check bool) "pruned after TPruneDel" false
          (List.mem 1 (forwarded_ifaces h)));
    Alcotest.test_case "prune for another router is not ours to honour" `Quick (fun () ->
        let h = make () in
        hello h ~iface:1 ~from:downstream1;
        receive_data h ~iface:0;
        Pimdm.Pim_router.handle_message h.router ~iface:1 ~src:downstream1
          (Pim_message.Join_prune
             { upstream_neighbor = downstream2;
               holdtime_s = 210;
               joins = [];
               prunes = [ sg ] });
        Engine.Sim.run ~until:5.0 h.sim;
        clear h;
        receive_data h ~iface:0;
        Alcotest.(check bool) "still forwarding" true (List.mem 1 (forwarded_ifaces h)));
    Alcotest.test_case "join during the window cancels the prune" `Quick (fun () ->
        let h = make () in
        hello h ~iface:1 ~from:downstream1;
        receive_data h ~iface:0;
        Pimdm.Pim_router.handle_message h.router ~iface:1 ~src:downstream1
          (Pim_message.Join_prune
             { upstream_neighbor = my_addr; holdtime_s = 210; joins = []; prunes = [ sg ] });
        ignore
          (Engine.Sim.schedule_at h.sim 1.0 (fun () ->
               Pimdm.Pim_router.handle_message h.router ~iface:1 ~src:downstream2
                 (Pim_message.Join_prune
                    { upstream_neighbor = my_addr;
                      holdtime_s = 210;
                      joins = [ sg ];
                      prunes = [] })));
        Engine.Sim.run ~until:5.0 h.sim;
        clear h;
        receive_data h ~iface:0;
        Alcotest.(check bool) "forwarding survived" true (List.mem 1 (forwarded_ifaces h)));
    Alcotest.test_case "pruned interface resumes after the holdtime" `Quick (fun () ->
        let h = make () in
        hello h ~iface:1 ~from:downstream1;
        receive_data h ~iface:0;
        Pimdm.Pim_router.handle_message h.router ~iface:1 ~src:downstream1
          (Pim_message.Join_prune
             { upstream_neighbor = my_addr; holdtime_s = 210; joins = []; prunes = [ sg ] });
        Engine.Sim.run ~until:5.0 h.sim;
        (* Keep the hello and entry state alive during the holdtime. *)
        ignore (Engine.Sim.schedule_at h.sim 100.0 (fun () ->
            hello h ~iface:1 ~from:downstream1;
            receive_data h ~iface:0));
        ignore (Engine.Sim.schedule_at h.sim 200.0 (fun () ->
            hello h ~iface:1 ~from:downstream1;
            receive_data h ~iface:0));
        Engine.Sim.run ~until:215.0 h.sim;
        clear h;
        receive_data h ~iface:0;
        (* 3 s TPruneDel + 210 s holdtime have passed. *)
        Alcotest.(check bool) "re-flooding" true (List.mem 1 (forwarded_ifaces h)));
    Alcotest.test_case "members win over a downstream router's prune" `Quick (fun () ->
        let h = make () in
        hello h ~iface:1 ~from:downstream1;
        add_member h ~iface:1;
        receive_data h ~iface:0;
        Pimdm.Pim_router.handle_message h.router ~iface:1 ~src:downstream1
          (Pim_message.Join_prune
             { upstream_neighbor = my_addr; holdtime_s = 210; joins = []; prunes = [ sg ] });
        Engine.Sim.run ~until:5.0 h.sim;
        clear h;
        receive_data h ~iface:0;
        Alcotest.(check bool) "member keeps the interface" true
          (List.mem 1 (forwarded_ifaces h)))
  ]

let upstream_tests =
  [ Alcotest.test_case "empty outgoing list prunes upstream" `Quick (fun () ->
        let config = { Pimdm.Pim_config.default with flood_to_leaf_links = false } in
        let h = make ~config () in
        receive_data h ~iface:0;
        (match sent_of_kind h is_prune with
         | [ (iface, Pim_message.Join_prune { upstream_neighbor; prunes; _ }) ] ->
           Alcotest.(check int) "on the incoming interface" 0 iface;
           Alcotest.(check bool) "to the upstream neighbour" true
             (Addr.equal upstream_neighbor upstream_addr);
           Alcotest.(check int) "prunes (S,G)" 1 (List.length prunes)
         | _ -> Alcotest.fail "expected exactly one prune");
        (* More data soon after: the prune is not repeated. *)
        clear h;
        receive_data h ~iface:0;
        Alcotest.(check int) "prune held" 0 (List.length (sent_of_kind h is_prune)));
    Alcotest.test_case "hearing a prune for traffic we need triggers a join" `Quick
      (fun () ->
        let h = make () in
        add_member h ~iface:1;
        receive_data h ~iface:0;
        clear h;
        (* Another router on our incoming link prunes our upstream. *)
        Pimdm.Pim_router.handle_message h.router ~iface:0 ~src:downstream2
          (Pim_message.Join_prune
             { upstream_neighbor = upstream_addr;
               holdtime_s = 210;
               joins = [];
               prunes = [ sg ] });
        Engine.Sim.run ~until:3.0 h.sim;
        (match sent_of_kind h is_join with
         | [ (0, Pim_message.Join_prune { upstream_neighbor; joins; _ }) ] ->
           Alcotest.(check bool) "join to upstream" true
             (Addr.equal upstream_neighbor upstream_addr);
           Alcotest.(check int) "joins (S,G)" 1 (List.length joins)
         | _ -> Alcotest.fail "expected exactly one overriding join"));
    Alcotest.test_case "another router's join suppresses ours" `Quick (fun () ->
        let h = make () in
        add_member h ~iface:1;
        receive_data h ~iface:0;
        clear h;
        Pimdm.Pim_router.handle_message h.router ~iface:0 ~src:downstream2
          (Pim_message.Join_prune
             { upstream_neighbor = upstream_addr;
               holdtime_s = 210;
               joins = [];
               prunes = [ sg ] });
        (* A third router overrides immediately. *)
        Pimdm.Pim_router.handle_message h.router ~iface:0 ~src:downstream1
          (Pim_message.Join_prune
             { upstream_neighbor = upstream_addr;
               holdtime_s = 210;
               joins = [ sg ];
               prunes = [] });
        Engine.Sim.run ~until:3.0 h.sim;
        Alcotest.(check int) "our join suppressed" 0 (List.length (sent_of_kind h is_join)));
    Alcotest.test_case "no interest means no overriding join" `Quick (fun () ->
        let config = { Pimdm.Pim_config.default with flood_to_leaf_links = false } in
        let h = make ~config () in
        receive_data h ~iface:0;
        clear h;
        Pimdm.Pim_router.handle_message h.router ~iface:0 ~src:downstream2
          (Pim_message.Join_prune
             { upstream_neighbor = upstream_addr;
               holdtime_s = 210;
               joins = [];
               prunes = [ sg ] });
        Engine.Sim.run ~until:3.0 h.sim;
        Alcotest.(check int) "silent" 0 (List.length (sent_of_kind h is_join)))
  ]

let graft_tests =
  [ Alcotest.test_case "graft from downstream restores forwarding and is acked" `Quick
      (fun () ->
        let h = make () in
        hello h ~iface:1 ~from:downstream1;
        receive_data h ~iface:0;
        Pimdm.Pim_router.handle_message h.router ~iface:1 ~src:downstream1
          (Pim_message.Join_prune
             { upstream_neighbor = my_addr; holdtime_s = 210; joins = []; prunes = [ sg ] });
        Engine.Sim.run ~until:5.0 h.sim;
        clear h;
        Pimdm.Pim_router.handle_message h.router ~iface:1 ~src:downstream1
          (Pim_message.Graft { upstream_neighbor = my_addr; joins = [ sg ] });
        (match sent_of_kind h is_graft_ack with
         | [ (1, Pim_message.Graft_ack { upstream_neighbor; joins }) ] ->
           Alcotest.(check bool) "ack addressed to grafter" true
             (Addr.equal upstream_neighbor downstream1);
           Alcotest.(check int) "acks the (S,G)" 1 (List.length joins)
         | _ -> Alcotest.fail "expected a graft-ack");
        receive_data h ~iface:0;
        Alcotest.(check bool) "forwarding again" true (List.mem 1 (forwarded_ifaces h)));
    Alcotest.test_case "graft cascades when we had pruned upstream" `Quick (fun () ->
        let config = { Pimdm.Pim_config.default with flood_to_leaf_links = false } in
        let h = make ~config () in
        hello h ~iface:1 ~from:downstream1;
        (* Downstream prunes, olist empties, we prune upstream. *)
        receive_data h ~iface:0;
        Pimdm.Pim_router.handle_message h.router ~iface:1 ~src:downstream1
          (Pim_message.Join_prune
             { upstream_neighbor = my_addr; holdtime_s = 210; joins = []; prunes = [ sg ] });
        Engine.Sim.run ~until:4.0 h.sim;
        receive_data h ~iface:0;
        Alcotest.(check bool) "we pruned upstream" true (sent_of_kind h is_prune <> []);
        clear h;
        (* Downstream wants back in. *)
        Pimdm.Pim_router.handle_message h.router ~iface:1 ~src:downstream1
          (Pim_message.Graft { upstream_neighbor = my_addr; joins = [ sg ] });
        (match sent_of_kind h is_graft with
         | [ (0, Pim_message.Graft { upstream_neighbor; _ }) ] ->
           Alcotest.(check bool) "cascaded upstream" true
             (Addr.equal upstream_neighbor upstream_addr)
         | _ -> Alcotest.fail "expected an upstream graft"));
    Alcotest.test_case "graft retransmits until acknowledged" `Quick (fun () ->
        let config = { Pimdm.Pim_config.default with flood_to_leaf_links = false } in
        let h = make ~config () in
        receive_data h ~iface:0;
        Engine.Sim.run ~until:1.0 h.sim;
        clear h;
        (* A member appears: graft upstream. *)
        add_member h ~iface:1;
        Pimdm.Pim_router.local_members_changed h.router ~iface:1 ~group ~present:true;
        Engine.Sim.run ~until:8.0 h.sim;
        let grafts = sent_of_kind h is_graft in
        Alcotest.(check bool) "retransmitted" true (List.length grafts >= 2);
        (* Ack stops the retry. *)
        Pimdm.Pim_router.handle_message h.router ~iface:0 ~src:upstream_addr
          (Pim_message.Graft_ack { upstream_neighbor = my_addr; joins = [ sg ] });
        clear h;
        Engine.Sim.run ~until:20.0 h.sim;
        Alcotest.(check int) "no more grafts" 0 (List.length (sent_of_kind h is_graft)))
  ]

let assert_tests =
  [ Alcotest.test_case "data on an outgoing interface triggers an assert" `Quick (fun () ->
        let h = make () in
        hello h ~iface:1 ~from:downstream1;
        receive_data h ~iface:0;
        clear h;
        receive_data h ~iface:1;
        (match sent_of_kind h is_assert with
         | [ (1, Pim_message.Assert { metric_preference; metric; _ }) ] ->
           Alcotest.(check int) "preference" 101 metric_preference;
           Alcotest.(check int) "metric from rpf" 2 metric
         | _ -> Alcotest.fail "expected one assert on iface 1"));
    Alcotest.test_case "no assert without state" `Quick (fun () ->
        let h = make () in
        receive_data h ~iface:1;
        (* Creates state with iif 0; iface 1 is an oif and flood-eligible,
           so an assert is legitimate; now try a truly stateless case. *)
        clear h;
        Pimdm.Pim_router.handle_data h.router ~iface:1 ~chan:0
          (data_packet ~src:(Addr.of_string "2001:dead::1") ());
        Alcotest.(check int) "silent for unroutable" 0
          (List.length (sent_of_kind h is_assert)));
    Alcotest.test_case "losing an assert stops forwarding" `Quick (fun () ->
        let h = make () in
        hello h ~iface:1 ~from:downstream1;
        receive_data h ~iface:0;
        (* A better router (lower metric) asserts on iface 1. *)
        Pimdm.Pim_router.handle_message h.router ~iface:1 ~src:downstream1
          (Pim_message.Assert { group; source; metric_preference = 101; metric = 1 });
        clear h;
        receive_data h ~iface:0;
        Alcotest.(check bool) "lost iface 1" false (List.mem 1 (forwarded_ifaces h)));
    Alcotest.test_case "winning an assert answers with our own" `Quick (fun () ->
        let h = make () in
        hello h ~iface:1 ~from:downstream1;
        receive_data h ~iface:0;
        clear h;
        (* A worse router (higher metric) asserts. *)
        Pimdm.Pim_router.handle_message h.router ~iface:1 ~src:downstream1
          (Pim_message.Assert { group; source; metric_preference = 101; metric = 9 });
        Alcotest.(check int) "we reply" 1 (List.length (sent_of_kind h is_assert));
        receive_data h ~iface:0;
        Alcotest.(check bool) "still forwarding" true (List.mem 1 (forwarded_ifaces h)));
    Alcotest.test_case "equal metrics: higher address wins" `Quick (fun () ->
        let h = make () in
        hello h ~iface:1 ~from:downstream1;
        receive_data h ~iface:0;
        clear h;
        (* Same pref/metric; downstream1 (fe80::21) > us (fe80::1). *)
        Pimdm.Pim_router.handle_message h.router ~iface:1 ~src:downstream1
          (Pim_message.Assert { group; source; metric_preference = 101; metric = 2 });
        receive_data h ~iface:0;
        Alcotest.(check bool) "we lost the tie" false (List.mem 1 (forwarded_ifaces h)));
    Alcotest.test_case "assert-loser state expires" `Quick (fun () ->
        let h = make () in
        hello h ~iface:1 ~from:downstream1;
        receive_data h ~iface:0;
        Pimdm.Pim_router.handle_message h.router ~iface:1 ~src:downstream1
          (Pim_message.Assert { group; source; metric_preference = 101; metric = 1 });
        (* Keep hello + entry alive past the 180 s assert time. *)
        ignore (Engine.Sim.schedule_at h.sim 100.0 (fun () ->
            hello h ~iface:1 ~from:downstream1;
            receive_data h ~iface:0));
        Engine.Sim.run ~until:181.0 h.sim;
        clear h;
        receive_data h ~iface:0;
        Alcotest.(check bool) "contesting again" true (List.mem 1 (forwarded_ifaces h)));
    Alcotest.test_case "prune is re-sent when the assert changes the upstream" `Quick
      (fun () ->
        (* Regression: a Prune addressed to the reverse-path upstream is
           useless once the Assert elects a different forwarder; the
           next datagram must re-prune toward the winner instead of
           waiting out the holdtime. *)
        let config = { Pimdm.Pim_config.default with flood_to_leaf_links = false } in
        let h = make ~config () in
        receive_data h ~iface:0;
        (match sent_of_kind h is_prune with
         | [ (0, Pim_message.Join_prune { upstream_neighbor; _ }) ] ->
           Alcotest.(check bool) "first prune to rpf upstream" true
             (Addr.equal upstream_neighbor upstream_addr)
         | _ -> Alcotest.fail "expected the initial prune");
        clear h;
        (* The forwarder election on the incoming link picks another
           router. *)
        let winner = Addr.of_string "fe80::aa" in
        Pimdm.Pim_router.handle_message h.router ~iface:0 ~src:winner
          (Pim_message.Assert { group; source; metric_preference = 50; metric = 1 });
        receive_data h ~iface:0;
        (match sent_of_kind h is_prune with
         | [ (0, Pim_message.Join_prune { upstream_neighbor; _ }) ] ->
           Alcotest.(check bool) "re-pruned toward the winner" true
             (Addr.equal upstream_neighbor winner)
         | l -> Alcotest.failf "expected one corrected prune, got %d" (List.length l)));
    Alcotest.test_case "assert on the incoming interface selects a new upstream" `Quick
      (fun () ->
        let config = { Pimdm.Pim_config.default with flood_to_leaf_links = false } in
        let h = make ~config () in
        add_member h ~iface:1;
        receive_data h ~iface:0;
        (* A different router wins the forwarder election on our
           incoming link. *)
        let winner = Addr.of_string "fe80::aa" in
        Pimdm.Pim_router.handle_message h.router ~iface:0 ~src:winner
          (Pim_message.Assert { group; source; metric_preference = 50; metric = 1 });
        (match Pimdm.Pim_router.entry_info h.router ~source ~group with
         | Some info ->
           Alcotest.(check bool) "upstream is the assert winner" true
             (info.Pimdm.Pim_router.upstream = Some winner)
         | None -> Alcotest.fail "entry missing");
        (* Our next prune goes to the winner. *)
        drop_member h ~iface:1;
        clear h;
        receive_data h ~iface:0;
        match sent_of_kind h is_prune with
        | [ (0, Pim_message.Join_prune { upstream_neighbor; _ }) ] ->
          Alcotest.(check bool) "prune to winner" true (Addr.equal upstream_neighbor winner)
        | _ -> Alcotest.fail "expected a prune to the assert winner")
  ]

let neighbor_tests =
  [ Alcotest.test_case "hello creates a neighbour, holdtime expires it" `Quick (fun () ->
        let h = make () in
        hello h ~iface:1 ~from:downstream1;
        Alcotest.(check (list string)) "present" [ Addr.to_string downstream1 ]
          (List.map Addr.to_string (Pimdm.Pim_router.neighbors h.router ~iface:1));
        Engine.Sim.run ~until:106.0 h.sim;
        Alcotest.(check int) "expired" 0
          (List.length (Pimdm.Pim_router.neighbors h.router ~iface:1)));
    Alcotest.test_case "periodic hellos keep neighbours alive" `Quick (fun () ->
        let h = make () in
        hello h ~iface:1 ~from:downstream1;
        for k = 1 to 10 do
          ignore
            (Engine.Sim.schedule_at h.sim (float_of_int k *. 30.0) (fun () ->
                 hello h ~iface:1 ~from:downstream1))
        done;
        Engine.Sim.run ~until:300.0 h.sim;
        Alcotest.(check int) "alive" 1
          (List.length (Pimdm.Pim_router.neighbors h.router ~iface:1)));
    Alcotest.test_case "interface_added joins existing entries" `Quick (fun () ->
        let h = make ~ifaces:[ 0; 1 ] () in
        add_member h ~iface:1;
        receive_data h ~iface:0;
        Pimdm.Pim_router.interface_added h.router ~iface:7;
        (match Pimdm.Pim_router.entry_info h.router ~source ~group with
         | Some info ->
           Alcotest.(check bool) "new oif listed" true
             (List.exists (fun o -> o.Pimdm.Pim_router.oif = 7) info.Pimdm.Pim_router.oifs)
         | None -> Alcotest.fail "entry missing"));
    Alcotest.test_case "stop flushes all state" `Quick (fun () ->
        let h = make () in
        hello h ~iface:1 ~from:downstream1;
        add_member h ~iface:1;
        receive_data h ~iface:0;
        Pimdm.Pim_router.stop h.router;
        Alcotest.(check int) "no entries" 0
          (List.length (Pimdm.Pim_router.entries h.router));
        Alcotest.(check int) "no neighbours" 0
          (List.length (Pimdm.Pim_router.neighbors h.router ~iface:1));
        clear h;
        receive_data h ~iface:0;
        Alcotest.(check (list int)) "ignores data when stopped" [] (forwarded_ifaces h))
  ]

let refresh_config =
  { Pimdm.Pim_config.default with
    state_refresh_interval = Some 60.0;
    flood_to_leaf_links = false }

(* A harness whose rpf says the source is directly attached (iface 0,
   no upstream): this router is a first hop and originates refreshes. *)
let make_first_hop () =
  let sim = Engine.Sim.create () in
  let sent = ref [] in
  let forwarded = ref [] in
  let members = Hashtbl.create 4 in
  let env =
    { Pimdm.Pim_env.sim;
      trace = Engine.Trace.create sim;
      rng = Engine.Rng.create 11;
      config = refresh_config;
      label = "FH";
      interfaces = (fun () -> [ 0; 1; 2 ]);
      local_address = (fun _ -> my_addr);
      send_message = (fun iface msg -> sent := (iface, msg) :: !sent);
      forward_data = (fun iface p -> forwarded := (iface, p) :: !forwarded);
      rpf =
        (fun ~source:s ->
          if Addr.equal s source then
            Some { Pimdm.Pim_env.rpf_iface = 0; upstream = None; metric = 0 }
          else None);
      has_local_members = (fun iface g -> Hashtbl.mem members (iface, g));
      flood_eligible = (fun _ -> true) }
  in
  let router = Pimdm.Pim_router.create env in
  Pimdm.Pim_router.start router;
  sent := [];
  { sim; sent; forwarded; members; router; config = refresh_config }

let is_refresh = function
  | Pim_message.State_refresh _ -> true
  | _ -> false

let state_refresh_tests =
  [ Alcotest.test_case "first-hop router originates periodic refreshes" `Quick (fun () ->
        let h = make_first_hop () in
        hello h ~iface:1 ~from:downstream1;
        ignore (Engine.Sim.schedule_at h.sim 50.0 (fun () -> hello h ~iface:1 ~from:downstream1));
        ignore (Engine.Sim.schedule_at h.sim 100.0 (fun () -> hello h ~iface:1 ~from:downstream1));
        receive_data h ~iface:0;
        (* Keep the entry alive with data. *)
        ignore (Engine.Sim.schedule_at h.sim 100.0 (fun () -> receive_data h ~iface:0));
        Engine.Sim.run ~until:130.0 h.sim;
        let refreshes = sent_of_kind h is_refresh in
        Alcotest.(check int) "two rounds (t=60, t=120)" 2 (List.length refreshes);
        List.iter
          (fun (iface, _) -> Alcotest.(check int) "on the neighbour iface" 1 iface)
          refreshes);
    Alcotest.test_case "non-first-hop routers do not originate" `Quick (fun () ->
        let config = refresh_config in
        let h = make ~config () in
        hello h ~iface:1 ~from:downstream1;
        ignore (Engine.Sim.schedule_at h.sim 50.0 (fun () -> hello h ~iface:1 ~from:downstream1));
        receive_data h ~iface:0;
        ignore (Engine.Sim.schedule_at h.sim 60.0 (fun () -> receive_data h ~iface:0));
        Engine.Sim.run ~until:100.0 h.sim;
        Alcotest.(check int) "silent" 0 (List.length (sent_of_kind h is_refresh)));
    Alcotest.test_case "refresh on the iif extends (S,G) state" `Quick (fun () ->
        let config = refresh_config in
        let h = make ~config () in
        add_member h ~iface:1;
        receive_data h ~iface:0;
        (* No more data, but refreshes arrive every 60 s. *)
        for k = 1 to 6 do
          ignore
            (Engine.Sim.schedule_at h.sim (float_of_int k *. 60.0) (fun () ->
                 Pimdm.Pim_router.handle_message h.router ~iface:0 ~src:upstream_addr
                   (Pim_message.State_refresh
                      { refresh_source = source;
                        refresh_group = group;
                        interval_s = 60;
                        prune_indicator = false })))
        done;
        Engine.Sim.run ~until:380.0 h.sim;
        Alcotest.(check int) "state alive past the 210 s data timeout" 1
          (List.length (Pimdm.Pim_router.entries h.router)));
    Alcotest.test_case "refresh arriving off the iif is ignored" `Quick (fun () ->
        let config = refresh_config in
        let h = make ~config () in
        add_member h ~iface:1;
        receive_data h ~iface:0;
        for k = 1 to 6 do
          ignore
            (Engine.Sim.schedule_at h.sim (float_of_int k *. 60.0) (fun () ->
                 Pimdm.Pim_router.handle_message h.router ~iface:2 ~src:downstream2
                   (Pim_message.State_refresh
                      { refresh_source = source;
                        refresh_group = group;
                        interval_s = 60;
                        prune_indicator = false })))
        done;
        Engine.Sim.run ~until:380.0 h.sim;
        Alcotest.(check int) "state expired normally" 0
          (List.length (Pimdm.Pim_router.entries h.router)));
    Alcotest.test_case "refresh propagates to neighbour interfaces" `Quick (fun () ->
        let config = refresh_config in
        let h = make ~config () in
        hello h ~iface:1 ~from:downstream1;
        add_member h ~iface:2;
        receive_data h ~iface:0;
        clear h;
        Pimdm.Pim_router.handle_message h.router ~iface:0 ~src:upstream_addr
          (Pim_message.State_refresh
             { refresh_source = source;
               refresh_group = group;
               interval_s = 60;
               prune_indicator = false });
        (match sent_of_kind h is_refresh with
         | [ (1, _) ] -> ()
         | l -> Alcotest.failf "expected one forwarded refresh on iface 1, got %d" (List.length l)));
    Alcotest.test_case "pruned downstream answers a refresh with a prune" `Quick (fun () ->
        let config = refresh_config in
        let h = make ~config () in
        (* olist empty: the router pruned upstream after the first
           datagram. *)
        receive_data h ~iface:0;
        Alcotest.(check int) "initial prune" 1 (List.length (sent_of_kind h is_prune));
        clear h;
        Pimdm.Pim_router.handle_message h.router ~iface:0 ~src:upstream_addr
          (Pim_message.State_refresh
             { refresh_source = source;
               refresh_group = group;
               interval_s = 60;
               prune_indicator = false });
        Alcotest.(check int) "renewed prune" 1 (List.length (sent_of_kind h is_prune)))
  ]

(* Model-style properties: throw random operation sequences at a router
   and check invariants after every step. *)
(* [~idle] weighs time passing and data on the incoming interface
   (which keeps (S,G) state alive) against Join and Graft (which cancel
   prune state): a high weight lets prune and assert timers run out. *)
let gen_op ~idle =
  QCheck.Gen.(
    frequency
      [ (4, map (fun i -> `Data (i mod 3)) small_nat);
        (idle, return (`Data 0));
        (2, return `Prune);
        (2, return `Join);
        (1, return `Graft);
        (2, map (fun i -> `Member (i mod 3, i mod 2 = 0)) small_nat);
        (1, return `Hello);
        (2 + idle, map (fun i -> `Advance (float_of_int (i mod 100))) small_nat);
        (1, return `Assert_in) ])

let apply_op h = function
  | `Data iface -> receive_data h ~iface
  | `Prune ->
    Pimdm.Pim_router.handle_message h.router ~iface:1 ~src:downstream1
      (Pim_message.Join_prune
         { upstream_neighbor = my_addr; holdtime_s = 210; joins = []; prunes = [ sg ] })
  | `Join ->
    Pimdm.Pim_router.handle_message h.router ~iface:1 ~src:downstream2
      (Pim_message.Join_prune
         { upstream_neighbor = my_addr; holdtime_s = 210; joins = [ sg ]; prunes = [] })
  | `Graft ->
    Pimdm.Pim_router.handle_message h.router ~iface:1 ~src:downstream1
      (Pim_message.Graft { upstream_neighbor = my_addr; joins = [ sg ] })
  | `Member (iface, present) ->
    if present then add_member h ~iface else drop_member h ~iface;
    Pimdm.Pim_router.local_members_changed h.router ~iface ~group ~present
  | `Hello -> hello h ~iface:1 ~from:downstream1
  | `Advance dt -> Engine.Sim.run ~until:(Engine.Sim.now h.sim +. dt) h.sim
  | `Assert_in ->
    Pimdm.Pim_router.handle_message h.router ~iface:1 ~src:downstream1
      (Pim_message.Assert { group; source; metric_preference = 101; metric = 1 })

let gen_ops ~idle =
  QCheck.make QCheck.Gen.(list_size (int_range 1 (40 + (5 * idle))) (gen_op ~idle))

let random_ops_property =
  QCheck.Test.make ~name:"invariants hold under random operation sequences" ~count:100
    (gen_ops ~idle:0)
    (fun ops ->
      let h = make () in
      let ok = ref true in
      List.iter
        (fun op ->
          apply_op h op;
          (* Invariants: data is never replicated back onto the
             incoming interface, and at most one (S,G) entry exists for
             our single source/group. *)
          if List.mem 0 (forwarded_ifaces h) then ok := false;
          if List.length (Pimdm.Pim_router.entries h.router) > 1 then ok := false)
        ops;
      !ok)

(* The invariant monitor keeps a router's snapshot while its generation
   stands still, and [has_neighbors] answers from a counter: both must
   agree with a fresh look after every operation. *)
let generation_property =
  QCheck.Test.make ~name:"an unmoved generation means an unchanged snapshot" ~count:300
    (gen_ops ~idle:8)
    (fun ops ->
      let h = make () in
      let module P = Pimdm.Pim_router in
      let last = ref (P.generation h.router, P.snapshot h.router) in
      let agrees () =
        let gen = P.generation h.router and snap = P.snapshot h.router in
        let gen', snap' = !last in
        last := (gen, snap);
        (gen <> gen' || snap = snap')
        && List.for_all
             (fun i -> P.has_neighbors h.router i = (P.neighbors h.router ~iface:i <> []))
             [ 0; 1; 2 ]
      in
      (* Time advances one event at a time, so a timer that changes
         state without moving the generation is caught at that event. *)
      let rec advance until =
        let executed = Engine.Sim.events_executed h.sim in
        Engine.Sim.run ~until ~max_events:(executed + 1) h.sim;
        agrees () && (Engine.Sim.events_executed h.sim = executed || advance until)
      in
      List.for_all
        (function
          | `Advance dt -> advance (Engine.Sim.now h.sim +. dt)
          | op ->
            apply_op h op;
            agrees ())
        ops)

let prune_indicator_tests =
  [ Alcotest.test_case "P-bit refresh recovers a needing branch with a graft" `Quick
      (fun () ->
        (* The upstream pruned us (our overriding Join was lost): a
           State Refresh with the prune indicator set, while we still
           have receivers, must trigger a Graft. *)
        let h = make ~config:refresh_config () in
        add_member h ~iface:1;
        receive_data h ~iface:0;
        clear h;
        Pimdm.Pim_router.handle_message h.router ~iface:0 ~src:upstream_addr
          (Pim_message.State_refresh
             { refresh_source = source;
               refresh_group = group;
               interval_s = 60;
               prune_indicator = true });
        (match sent_of_kind h is_graft with
         | [ (0, Pim_message.Graft { upstream_neighbor; _ }) ] ->
           Alcotest.(check bool) "graft to upstream" true
             (Addr.equal upstream_neighbor upstream_addr)
         | l -> Alcotest.failf "expected one graft, got %d" (List.length l));
        (* Without the P bit, no graft. *)
        clear h;
        Pimdm.Pim_router.handle_message h.router ~iface:0 ~src:upstream_addr
          (Pim_message.Graft_ack { upstream_neighbor = my_addr; joins = [ sg ] });
        Pimdm.Pim_router.handle_message h.router ~iface:0 ~src:upstream_addr
          (Pim_message.State_refresh
             { refresh_source = source;
               refresh_group = group;
               interval_s = 60;
               prune_indicator = false });
        Alcotest.(check int) "quiet without P" 0 (List.length (sent_of_kind h is_graft)))
  ]

let () =
  Alcotest.run "pimdm"
    [ ("forwarding", forwarding_tests);
      ("state refresh", state_refresh_tests);
      ("prune", prune_tests);
      ("upstream", upstream_tests);
      ("graft", graft_tests);
      ("assert", assert_tests);
      ("neighbors", neighbor_tests);
      ("prune indicator", prune_indicator_tests);
      ("random ops",
       List.map QCheck_alcotest.to_alcotest [ random_ops_property; generation_property ])
    ]

(* Unit tests for the MLD state machines, driven through a fake
   environment that captures every emitted packet. *)

open Ipv6

let group = Addr.of_string "ff0e::1:1"
let group2 = Addr.of_string "ff0e::2:2"

type harness = {
  sim : Engine.Sim.t;
  sent : Packet.t list ref;  (* newest first *)
  env : Mld.Mld_env.t;
}

let make_harness ?(config = Mld.Mld_config.default) ?(address = "fe80::1") () =
  let sim = Engine.Sim.create () in
  let sent = ref [] in
  let env =
    { Mld.Mld_env.sim;
      trace = Engine.Trace.create sim;
      rng = Engine.Rng.create 7;
      config;
      local_address = (fun () -> Addr.of_string address);
      send = (fun p -> sent := p :: !sent);
      label = "test" }
  in
  { sim; sent; env }

let sent_messages h =
  List.rev_map
    (fun p ->
      match p.Packet.payload with
      | Packet.Mld m -> (Engine.Sim.now h.sim, m)
      | Packet.Data _ | Packet.Pim _ | Packet.Nd _ | Packet.Encapsulated _ | Packet.Empty ->
        Alcotest.fail "MLD env sent a non-MLD packet")
    !(h.sent)

let count_queries h =
  List.length
    (List.filter
       (fun p ->
         match p.Packet.payload with
         | Packet.Mld (Mld_message.Query _) -> true
         | _ -> false)
       !(h.sent))

let count_reports h =
  List.length
    (List.filter
       (fun p ->
         match p.Packet.payload with
         | Packet.Mld (Mld_message.Report _) -> true
         | _ -> false)
       !(h.sent))

let count_dones h =
  List.length
    (List.filter
       (fun p ->
         match p.Packet.payload with
         | Packet.Mld (Mld_message.Done _) -> true
         | _ -> false)
       !(h.sent))

let noop_callbacks =
  { Mld.Mld_router.listener_added = (fun _ -> ()); listener_removed = (fun _ -> ()) }

let recording_callbacks events =
  { Mld.Mld_router.listener_added = (fun g -> events := `Added g :: !events);
    listener_removed = (fun g -> events := `Removed g :: !events) }

let report ~from _h router =
  Mld.Mld_router.handle router ~src:(Addr.of_string from) (Mld_message.Report { group })

let config_tests =
  [ Alcotest.test_case "TMLI formula" `Quick (fun () ->
        let c = Mld.Mld_config.default in
        Alcotest.(check (float 1e-9)) "2*125+10" 260.0
          (Mld.Mld_config.multicast_listener_interval c);
        Alcotest.(check (float 1e-9)) "OQP" 255.0
          (Mld.Mld_config.other_querier_present_interval c);
        Alcotest.(check (float 1e-9)) "startup" 31.25 (Mld.Mld_config.startup_query_interval c));
    Alcotest.test_case "with_query_interval scales TMLI" `Quick (fun () ->
        let c = Mld.Mld_config.with_query_interval 30.0 Mld.Mld_config.default in
        Alcotest.(check (float 1e-9)) "2*30+10" 70.0
          (Mld.Mld_config.multicast_listener_interval c));
    Alcotest.test_case "TQuery below TRespDel rejected" `Quick (fun () ->
        match Mld.Mld_config.with_query_interval 5.0 Mld.Mld_config.default with
        | _ -> Alcotest.fail "expected rejection"
        | exception Invalid_argument _ -> ())
  ]

let router_tests =
  [ Alcotest.test_case "startup sends a general query immediately" `Quick (fun () ->
        let h = make_harness () in
        let r = Mld.Mld_router.create h.env noop_callbacks in
        Mld.Mld_router.start r;
        Alcotest.(check int) "one query at t=0" 1 (count_queries h);
        match sent_messages h with
        | [ (_, Mld_message.Query { group = None; max_response_delay_ms }) ] ->
          Alcotest.(check int) "TRespDel in ms" 10000 max_response_delay_ms
        | _ -> Alcotest.fail "expected a general query");
    Alcotest.test_case "startup queries come faster, then periodic" `Quick (fun () ->
        let h = make_harness () in
        let r = Mld.Mld_router.create h.env noop_callbacks in
        Mld.Mld_router.start r;
        (* Second (startup) query at TQuery/4 = 31.25 s, then 125 s cadence. *)
        Engine.Sim.run ~until:32.0 h.sim;
        Alcotest.(check int) "startup query" 2 (count_queries h);
        Engine.Sim.run ~until:200.0 h.sim;
        Alcotest.(check int) "next periodic" 3 (count_queries h);
        ignore r);
    Alcotest.test_case "report creates membership and notifies" `Quick (fun () ->
        let h = make_harness () in
        let events = ref [] in
        let r = Mld.Mld_router.create h.env (recording_callbacks events) in
        Mld.Mld_router.start r;
        report ~from:"fe80::99" h r;
        Alcotest.(check bool) "has listeners" true (Mld.Mld_router.has_listeners r group);
        Alcotest.(check bool) "added callback" true (!events = [ `Added group ]);
        (* A second report does not re-notify. *)
        report ~from:"fe80::98" h r;
        Alcotest.(check int) "still one event" 1 (List.length !events));
    Alcotest.test_case "membership expires after TMLI" `Quick (fun () ->
        let h = make_harness () in
        let events = ref [] in
        let r = Mld.Mld_router.create h.env (recording_callbacks events) in
        Mld.Mld_router.start r;
        report ~from:"fe80::99" h r;
        (match Mld.Mld_router.listener_deadline r group with
         | Some deadline -> Alcotest.(check (float 1e-6)) "deadline at TMLI" 260.0 deadline
         | None -> Alcotest.fail "no deadline");
        Engine.Sim.run ~until:261.0 h.sim;
        Alcotest.(check bool) "expired" false (Mld.Mld_router.has_listeners r group);
        Alcotest.(check bool) "removed callback" true
          (List.mem (`Removed group) !events));
    Alcotest.test_case "repeated reports keep membership alive" `Quick (fun () ->
        let h = make_harness () in
        let r = Mld.Mld_router.create h.env noop_callbacks in
        Mld.Mld_router.start r;
        report ~from:"fe80::99" h r;
        (* Refresh every 100 s: membership must survive well past TMLI. *)
        for k = 1 to 5 do
          ignore
            (Engine.Sim.schedule_at h.sim (100.0 *. float_of_int k) (fun () ->
                 report ~from:"fe80::99" h r))
        done;
        Engine.Sim.run ~until:550.0 h.sim;
        Alcotest.(check bool) "alive at 550" true (Mld.Mld_router.has_listeners r group));
    Alcotest.test_case "done triggers specific queries and fast expiry" `Quick (fun () ->
        let h = make_harness () in
        let events = ref [] in
        let r = Mld.Mld_router.create h.env (recording_callbacks events) in
        Mld.Mld_router.start r;
        report ~from:"fe80::99" h r;
        Mld.Mld_router.handle r ~src:(Addr.of_string "fe80::99") (Mld_message.Done { group });
        (* Last-listener queries: robustness (2) group-specific queries. *)
        Engine.Sim.run ~until:5.0 h.sim;
        let specific =
          List.filter
            (fun (_, m) ->
              match m with
              | Mld_message.Query { group = Some g; _ } -> Addr.equal g group
              | _ -> false)
            (sent_messages h)
        in
        Alcotest.(check int) "two specific queries" 2 (List.length specific);
        Alcotest.(check bool) "gone after ~2 s" false (Mld.Mld_router.has_listeners r group);
        Alcotest.(check bool) "removal notified" true (List.mem (`Removed group) !events));
    Alcotest.test_case "done answered by remaining member keeps group" `Quick (fun () ->
        let h = make_harness () in
        let r = Mld.Mld_router.create h.env noop_callbacks in
        Mld.Mld_router.start r;
        report ~from:"fe80::99" h r;
        Mld.Mld_router.handle r ~src:(Addr.of_string "fe80::99") (Mld_message.Done { group });
        (* Another host answers the specific query before it expires. *)
        ignore (Engine.Sim.schedule_at h.sim 0.5 (fun () -> report ~from:"fe80::98" h r));
        Engine.Sim.run ~until:10.0 h.sim;
        Alcotest.(check bool) "still a member" true (Mld.Mld_router.has_listeners r group));
    Alcotest.test_case "querier election: lower address wins" `Quick (fun () ->
        let h = make_harness ~address:"fe80::5" () in
        let r = Mld.Mld_router.create h.env noop_callbacks in
        Mld.Mld_router.start r;
        Alcotest.(check bool) "initially querier" true (Mld.Mld_router.is_querier r);
        (* Query from a higher address: we stay querier. *)
        Mld.Mld_router.handle r ~src:(Addr.of_string "fe80::7")
          (Mld_message.Query { group = None; max_response_delay_ms = 10000 });
        Alcotest.(check bool) "still querier" true (Mld.Mld_router.is_querier r);
        (* Query from a lower address: we defer. *)
        Mld.Mld_router.handle r ~src:(Addr.of_string "fe80::2")
          (Mld_message.Query { group = None; max_response_delay_ms = 10000 });
        Alcotest.(check bool) "deferred" false (Mld.Mld_router.is_querier r));
    Alcotest.test_case "non-querier sends no periodic queries" `Quick (fun () ->
        let h = make_harness ~address:"fe80::5" () in
        let r = Mld.Mld_router.create h.env noop_callbacks in
        Mld.Mld_router.start r;
        Mld.Mld_router.handle r ~src:(Addr.of_string "fe80::2")
          (Mld_message.Query { group = None; max_response_delay_ms = 10000 });
        let before = count_queries h in
        (* Keep refreshing the other querier so OQP never expires. *)
        for k = 1 to 3 do
          ignore
            (Engine.Sim.schedule_at h.sim (float_of_int k *. 125.0) (fun () ->
                 Mld.Mld_router.handle r ~src:(Addr.of_string "fe80::2")
                   (Mld_message.Query { group = None; max_response_delay_ms = 10000 })))
        done;
        Engine.Sim.run ~until:400.0 h.sim;
        Alcotest.(check int) "no queries while deferring" before (count_queries h));
    Alcotest.test_case "takes querier role back after OQP expires" `Quick (fun () ->
        let h = make_harness ~address:"fe80::5" () in
        let r = Mld.Mld_router.create h.env noop_callbacks in
        Mld.Mld_router.start r;
        Mld.Mld_router.handle r ~src:(Addr.of_string "fe80::2")
          (Mld_message.Query { group = None; max_response_delay_ms = 10000 });
        (* OQP = 255 s with defaults. *)
        Engine.Sim.run ~until:256.0 h.sim;
        Alcotest.(check bool) "querier again" true (Mld.Mld_router.is_querier r));
    Alcotest.test_case "generation moves with role and running, and only then" `Quick
      (fun () ->
        let h = make_harness ~address:"fe80::5" () in
        let r = Mld.Mld_router.create h.env noop_callbacks in
        let gen = ref (Mld.Mld_router.generation r) in
        let moved what expected =
          let g = Mld.Mld_router.generation r in
          Alcotest.(check bool) what expected (g <> !gen);
          gen := g
        in
        let query from =
          Mld.Mld_router.handle r ~src:(Addr.of_string from)
            (Mld_message.Query { group = None; max_response_delay_ms = 10000 })
        in
        Mld.Mld_router.start r;
        moved "start" true;
        report ~from:"fe80::9" h r;
        moved "a Report" false;
        query "fe80::7";
        moved "a Query from a higher address" false;
        query "fe80::2";
        Alcotest.(check bool) "deferred" false (Mld.Mld_router.is_querier r);
        moved "losing the election" true;
        query "fe80::2";
        moved "a Query that only refreshes the Other-Querier-Present timer" false;
        (* OQP = 255 s with defaults. *)
        Engine.Sim.run ~until:300.0 h.sim;
        Alcotest.(check bool) "querier again" true (Mld.Mld_router.is_querier r);
        moved "the Other-Querier-Present takeover" true;
        Mld.Mld_router.stop r;
        moved "stop" true;
        Mld.Mld_router.start r;
        moved "start after stop" true);
    Alcotest.test_case "groups listing is sorted" `Quick (fun () ->
        let h = make_harness () in
        let r = Mld.Mld_router.create h.env noop_callbacks in
        Mld.Mld_router.start r;
        Mld.Mld_router.handle r ~src:(Addr.of_string "fe80::9") (Mld_message.Report { group = group2 });
        Mld.Mld_router.handle r ~src:(Addr.of_string "fe80::9") (Mld_message.Report { group });
        Alcotest.(check int) "two groups" 2 (List.length (Mld.Mld_router.groups r));
        Alcotest.(check bool) "sorted" true
          (Mld.Mld_router.groups r = List.sort Addr.compare (Mld.Mld_router.groups r)));
    Alcotest.test_case "stop cancels everything" `Quick (fun () ->
        let h = make_harness () in
        let r = Mld.Mld_router.create h.env noop_callbacks in
        Mld.Mld_router.start r;
        report ~from:"fe80::99" h r;
        Mld.Mld_router.stop r;
        Alcotest.(check bool) "no members" false (Mld.Mld_router.has_listeners r group);
        let before = count_queries h in
        Engine.Sim.run ~until:300.0 h.sim;
        Alcotest.(check int) "no more queries" before (count_queries h))
  ]

let host_tests =
  [ Alcotest.test_case "join sends unsolicited reports" `Quick (fun () ->
        let h = make_harness () in
        let host = Mld.Mld_host.create h.env in
        Mld.Mld_host.join host group;
        Alcotest.(check bool) "joined" true (Mld.Mld_host.is_joined host group);
        Alcotest.(check int) "first report immediate" 1 (count_reports h);
        (* Second unsolicited report after the unsolicited interval. *)
        Engine.Sim.run ~until:11.0 h.sim;
        Alcotest.(check int) "second report" 2 (count_reports h));
    Alcotest.test_case "join with zero unsolicited reports stays silent" `Quick (fun () ->
        let config = { Mld.Mld_config.default with unsolicited_report_count = 0 } in
        let h = make_harness ~config () in
        let host = Mld.Mld_host.create h.env in
        Mld.Mld_host.join host group;
        Engine.Sim.run ~until:30.0 h.sim;
        Alcotest.(check int) "no report until queried" 0 (count_reports h);
        Mld.Mld_host.handle host ~src:(Addr.of_string "fe80::1")
          (Mld_message.Query { group = None; max_response_delay_ms = 10000 });
        Engine.Sim.run ~until:45.0 h.sim;
        Alcotest.(check int) "answers the query" 1 (count_reports h));
    Alcotest.test_case "response delay is within the advertised maximum" `Quick (fun () ->
        let config = { Mld.Mld_config.default with unsolicited_report_count = 0 } in
        let h = make_harness ~config () in
        let host = Mld.Mld_host.create h.env in
        Mld.Mld_host.join host group;
        Mld.Mld_host.handle host ~src:(Addr.of_string "fe80::1")
          (Mld_message.Query { group = None; max_response_delay_ms = 4000 });
        (match Mld.Mld_host.pending_response_at host group with
         | Some at -> Alcotest.(check bool) "within 4 s" true (at <= 4.0)
         | None -> Alcotest.fail "no response scheduled");
        Engine.Sim.run ~until:5.0 h.sim;
        Alcotest.(check int) "reported" 1 (count_reports h));
    Alcotest.test_case "report suppression" `Quick (fun () ->
        let config = { Mld.Mld_config.default with unsolicited_report_count = 0 } in
        let h = make_harness ~config () in
        let host = Mld.Mld_host.create h.env in
        Mld.Mld_host.join host group;
        Mld.Mld_host.handle host ~src:(Addr.of_string "fe80::1")
          (Mld_message.Query { group = None; max_response_delay_ms = 10000 });
        (* Another listener answers first. *)
        Mld.Mld_host.handle host ~src:(Addr.of_string "fe80::9") (Mld_message.Report { group });
        Engine.Sim.run ~until:15.0 h.sim;
        Alcotest.(check int) "own report suppressed" 0 (count_reports h));
    Alcotest.test_case "group-specific query only affects that group" `Quick (fun () ->
        let config = { Mld.Mld_config.default with unsolicited_report_count = 0 } in
        let h = make_harness ~config () in
        let host = Mld.Mld_host.create h.env in
        Mld.Mld_host.join host group;
        Mld.Mld_host.join host group2;
        Mld.Mld_host.handle host ~src:(Addr.of_string "fe80::1")
          (Mld_message.Query { group = Some group; max_response_delay_ms = 1000 });
        Engine.Sim.run ~until:2.0 h.sim;
        Alcotest.(check int) "one report" 1 (count_reports h);
        match sent_messages h with
        | [ (_, Mld_message.Report { group = g }) ] ->
          Alcotest.(check bool) "for the queried group" true (Addr.equal g group)
        | _ -> Alcotest.fail "expected exactly one report");
    Alcotest.test_case "leave sends done only when last reporter" `Quick (fun () ->
        let h = make_harness () in
        let host = Mld.Mld_host.create h.env in
        Mld.Mld_host.join host group;
        (* Our unsolicited report makes us the last reporter. *)
        Mld.Mld_host.leave host group;
        Alcotest.(check int) "done sent" 1 (count_dones h);
        Alcotest.(check bool) "left" false (Mld.Mld_host.is_joined host group);
        (* Now join again but let someone else report last. *)
        Mld.Mld_host.join host group2;
        Mld.Mld_host.handle host ~src:(Addr.of_string "fe80::9")
          (Mld_message.Report { group = group2 });
        Mld.Mld_host.leave host group2;
        Alcotest.(check int) "no second done" 1 (count_dones h));
    Alcotest.test_case "stop is silent (host left the link)" `Quick (fun () ->
        let h = make_harness () in
        let host = Mld.Mld_host.create h.env in
        Mld.Mld_host.join host group;
        let reports = count_reports h in
        Mld.Mld_host.stop host;
        Engine.Sim.run ~until:30.0 h.sim;
        Alcotest.(check int) "nothing after stop" reports (count_reports h);
        Alcotest.(check int) "no done" 0 (count_dones h));
    Alcotest.test_case "joined listing" `Quick (fun () ->
        let h = make_harness () in
        let host = Mld.Mld_host.create h.env in
        Mld.Mld_host.join host group2;
        Mld.Mld_host.join host group;
        Alcotest.(check int) "two" 2 (List.length (Mld.Mld_host.joined host));
        Mld.Mld_host.leave host group;
        Alcotest.(check int) "one" 1 (List.length (Mld.Mld_host.joined host)))
  ]

(* ---- a one-link mini-network: router + N hosts wired together ---- *)

let wire_link ~hosts:host_count =
  let sim = Engine.Sim.create () in
  let trace = Engine.Trace.create sim in
  let delay = 0.001 in
  let inboxes : (Packet.t -> unit) list ref = ref [] in
  let make_env ~address label =
    { Mld.Mld_env.sim;
      trace;
      rng = Engine.Rng.create (Hashtbl.hash label);
      config = Mld.Mld_config.default;
      local_address = (fun () -> address);
      send =
        (fun p ->
          (* Deliver to everyone else after the link delay. *)
          let senders = !inboxes in
          ignore
            (Engine.Sim.schedule_after sim delay (fun () ->
                 List.iter (fun deliver -> deliver p) senders)));
      label }
  in
  let router_env = make_env ~address:(Addr.of_string "fe80::1") "router" in
  let events = ref [] in
  let router = Mld.Mld_router.create router_env (recording_callbacks events) in
  let hosts =
    List.init host_count (fun i ->
        let address = Addr.of_string (Printf.sprintf "fe80::1%d" (i + 2)) in
        (address, Mld.Mld_host.create (make_env ~address (Printf.sprintf "h%d" i))))
  in
  (* Wire inboxes: every endpoint sees every packet except its own
     (the harness does not model self-reception, like the real link
     layer). *)
  let router_inbox (p : Packet.t) =
    match p.Packet.payload with
    | Packet.Mld m ->
      if not (Addr.equal p.Packet.src (Addr.of_string "fe80::1")) then
        Mld.Mld_router.handle router ~src:p.Packet.src m
    | _ -> ()
  in
  let host_inbox (address, host) (p : Packet.t) =
    match p.Packet.payload with
    | Packet.Mld m ->
      if not (Addr.equal p.Packet.src address) then Mld.Mld_host.handle host ~src:p.Packet.src m
    | _ -> ()
  in
  inboxes := router_inbox :: List.map host_inbox hosts;
  Mld.Mld_router.start router;
  (sim, router, List.map snd hosts, events)

let link_tests =
  [ Alcotest.test_case "suppression: one report per query cycle for many hosts" `Quick
      (fun () ->
        let sim, router, hosts, _ = wire_link ~hosts:8 in
        List.iter (fun h -> Mld.Mld_host.join h group) hosts;
        Engine.Sim.run ~until:600.0 sim;
        Alcotest.(check bool) "membership held" true
          (Mld.Mld_router.has_listeners router group));
    Alcotest.test_case "membership expires after all hosts silently leave" `Quick (fun () ->
        let sim, router, hosts, events = wire_link ~hosts:3 in
        List.iter (fun h -> Mld.Mld_host.join h group) hosts;
        Engine.Sim.run ~until:50.0 sim;
        (* Hosts vanish without Done (moved away, like mobile hosts). *)
        List.iter Mld.Mld_host.stop hosts;
        (* TMLI = 260 s after the last refresh. *)
        Engine.Sim.run ~until:330.0 sim;
        Alcotest.(check bool) "membership timed out" false
          (Mld.Mld_router.has_listeners router group);
        Alcotest.(check bool) "removal callback fired" true
          (List.mem (`Removed group) !events));
    Alcotest.test_case "done from last host removes membership fast" `Quick (fun () ->
        let sim, router, hosts, _ = wire_link ~hosts:1 in
        List.iter (fun h -> Mld.Mld_host.join h group) hosts;
        Engine.Sim.run ~until:10.0 sim;
        Alcotest.(check bool) "member" true (Mld.Mld_router.has_listeners router group);
        List.iter (fun h -> Mld.Mld_host.leave h group) hosts;
        Engine.Sim.run ~until:20.0 sim;
        Alcotest.(check bool) "removed within seconds" false
          (Mld.Mld_router.has_listeners router group))
  ]

let properties =
  let membership_matches_joins =
    QCheck.Test.make ~name:"router membership matches surviving joined hosts" ~count:30
      QCheck.(pair (int_range 1 6) (int_range 0 5))
      (fun (host_count, leavers) ->
        let leavers = min leavers host_count in
        let sim, router, hosts, _ = wire_link ~hosts:host_count in
        List.iter (fun h -> Mld.Mld_host.join h group) hosts;
        Engine.Sim.run ~until:30.0 sim;
        List.iteri (fun i h -> if i < leavers then Mld.Mld_host.leave h group) hosts;
        Engine.Sim.run ~until:700.0 sim;
        Mld.Mld_router.has_listeners router group = (leavers < host_count))
  in
  [ QCheck_alcotest.to_alcotest membership_matches_joins ]

let () =
  Alcotest.run "mld"
    [ ("config", config_tests);
      ("router", router_tests);
      ("host", host_tests);
      ("link", link_tests @ properties)
    ]

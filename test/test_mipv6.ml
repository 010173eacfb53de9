(* Unit tests for the Mobile IPv6 binding cache, mobile node state
   machine and tunnel helpers. *)

open Ipv6

let home = Addr.of_string "2001:db8:4::10"
let coa1 = Addr.of_string "2001:db8:6::10"
let coa2 = Addr.of_string "2001:db8:1::10"
let ha = Addr.of_string "2001:db8:4::1"
let group = Addr.of_string "ff0e::1:1"
let group2 = Addr.of_string "ff0e::2:2"

let bu ?(sequence = 1) ?(lifetime_s = 256) ?(care_of = coa1) ?(groups = []) () =
  { Packet.sequence;
    lifetime_s;
    home_registration = true;
    care_of;
    sub_options =
      (match groups with
       | [] -> []
       | gs -> [ Packet.Multicast_group_list gs ]) }

type cache_harness = {
  sim : Engine.Sim.t;
  cache : Mipv6.Binding_cache.t;
  events :
    [ `Added of Addr.t | `Refreshed of Addr.t | `Removed of Addr.t | `Expiring of Addr.t ]
    list
    ref;
}

let make_cache () =
  let sim = Engine.Sim.create () in
  let events = ref [] in
  let cache =
    Mipv6.Binding_cache.create sim
      { Mipv6.Binding_cache.added =
          (fun e -> events := `Added e.Mipv6.Binding_cache.home :: !events);
        refreshed =
          (fun ~previous:_ e -> events := `Refreshed e.Mipv6.Binding_cache.home :: !events);
        removed = (fun e -> events := `Removed e.Mipv6.Binding_cache.home :: !events);
        expiring = (fun e -> events := `Expiring e.Mipv6.Binding_cache.home :: !events) }
  in
  { sim; cache; events }

let cache_tests =
  [ Alcotest.test_case "registration creates a binding" `Quick (fun () ->
        let h = make_cache () in
        (match Mipv6.Binding_cache.process_update h.cache ~home (bu ()) with
         | Ok entry ->
           Alcotest.(check bool) "care-of" true
             (Addr.equal entry.Mipv6.Binding_cache.care_of coa1);
           Alcotest.(check (float 1e-9)) "expires at lifetime" 256.0
             entry.Mipv6.Binding_cache.expires_at
         | Error s -> Alcotest.failf "rejected with %d" s);
        Alcotest.(check int) "size" 1 (Mipv6.Binding_cache.size h.cache);
        Alcotest.(check bool) "added event" true (!(h.events) = [ `Added home ]));
    Alcotest.test_case "lookup" `Quick (fun () ->
        let h = make_cache () in
        ignore (Mipv6.Binding_cache.process_update h.cache ~home (bu ()));
        Alcotest.(check bool) "hit" true (Mipv6.Binding_cache.lookup h.cache home <> None);
        Alcotest.(check bool) "miss" true (Mipv6.Binding_cache.lookup h.cache coa1 = None));
    Alcotest.test_case "refresh updates care-of and notifies" `Quick (fun () ->
        let h = make_cache () in
        ignore (Mipv6.Binding_cache.process_update h.cache ~home (bu ~sequence:1 ()));
        ignore
          (Mipv6.Binding_cache.process_update h.cache ~home
             (bu ~sequence:2 ~care_of:coa2 ()));
        (match Mipv6.Binding_cache.lookup h.cache home with
         | Some e ->
           Alcotest.(check bool) "new coa" true (Addr.equal e.Mipv6.Binding_cache.care_of coa2)
         | None -> Alcotest.fail "binding lost");
        Alcotest.(check bool) "refreshed event" true
          (List.mem (`Refreshed home) !(h.events)));
    Alcotest.test_case "stale sequence rejected" `Quick (fun () ->
        let h = make_cache () in
        ignore (Mipv6.Binding_cache.process_update h.cache ~home (bu ~sequence:5 ()));
        (match Mipv6.Binding_cache.process_update h.cache ~home (bu ~sequence:3 ~care_of:coa2 ()) with
         | Error s ->
           Alcotest.(check int) "sequence status" Mipv6.Binding_cache.status_sequence_out_of_window s
         | Ok _ -> Alcotest.fail "stale update accepted");
        match Mipv6.Binding_cache.lookup h.cache home with
        | Some e ->
          Alcotest.(check bool) "coa unchanged" true
            (Addr.equal e.Mipv6.Binding_cache.care_of coa1)
        | None -> Alcotest.fail "binding lost");
    Alcotest.test_case "binding expires after its lifetime" `Quick (fun () ->
        let h = make_cache () in
        ignore (Mipv6.Binding_cache.process_update h.cache ~home (bu ~lifetime_s:100 ()));
        Engine.Sim.run ~until:99.0 h.sim;
        Alcotest.(check int) "still there" 1 (Mipv6.Binding_cache.size h.cache);
        Engine.Sim.run ~until:101.0 h.sim;
        Alcotest.(check int) "expired" 0 (Mipv6.Binding_cache.size h.cache);
        Alcotest.(check bool) "removed event" true (List.mem (`Removed home) !(h.events)));
    Alcotest.test_case "refresh extends the lifetime" `Quick (fun () ->
        let h = make_cache () in
        ignore (Mipv6.Binding_cache.process_update h.cache ~home (bu ~lifetime_s:100 ()));
        ignore
          (Engine.Sim.schedule_at h.sim 80.0 (fun () ->
               ignore
                 (Mipv6.Binding_cache.process_update h.cache ~home
                    (bu ~sequence:2 ~lifetime_s:100 ()))));
        Engine.Sim.run ~until:150.0 h.sim;
        Alcotest.(check int) "alive at 150" 1 (Mipv6.Binding_cache.size h.cache));
    Alcotest.test_case "zero lifetime deregisters" `Quick (fun () ->
        let h = make_cache () in
        ignore (Mipv6.Binding_cache.process_update h.cache ~home (bu ()));
        ignore
          (Mipv6.Binding_cache.process_update h.cache ~home (bu ~sequence:2 ~lifetime_s:0 ()));
        Alcotest.(check int) "gone" 0 (Mipv6.Binding_cache.size h.cache);
        Alcotest.(check bool) "removed event" true (List.mem (`Removed home) !(h.events)));
    Alcotest.test_case "care-of = home deregisters" `Quick (fun () ->
        let h = make_cache () in
        ignore (Mipv6.Binding_cache.process_update h.cache ~home (bu ()));
        ignore
          (Mipv6.Binding_cache.process_update h.cache ~home (bu ~sequence:2 ~care_of:home ()));
        Alcotest.(check int) "gone" 0 (Mipv6.Binding_cache.size h.cache));
    Alcotest.test_case "groups from the multicast group list sub-option" `Quick (fun () ->
        let h = make_cache () in
        (match
           Mipv6.Binding_cache.process_update h.cache ~home (bu ~groups:[ group; group2 ] ())
         with
         | Ok entry ->
           Alcotest.(check int) "two groups" 2
             (List.length entry.Mipv6.Binding_cache.groups)
         | Error _ -> Alcotest.fail "rejected");
        (* A refresh without the sub-option clears the list. *)
        match Mipv6.Binding_cache.process_update h.cache ~home (bu ~sequence:2 ()) with
        | Ok entry -> Alcotest.(check int) "cleared" 0 (List.length entry.Mipv6.Binding_cache.groups)
        | Error _ -> Alcotest.fail "refresh rejected");
    Alcotest.test_case "expiring warning fires at 75% of an unrefreshed lifetime" `Quick
      (fun () ->
        let h = make_cache () in
        ignore (Mipv6.Binding_cache.process_update h.cache ~home (bu ~lifetime_s:100 ()));
        Engine.Sim.run ~until:74.0 h.sim;
        Alcotest.(check bool) "quiet before 75%" false
          (List.mem (`Expiring home) !(h.events));
        Engine.Sim.run ~until:76.0 h.sim;
        Alcotest.(check bool) "warned at 75%" true (List.mem (`Expiring home) !(h.events));
        Alcotest.(check int) "binding still alive" 1 (Mipv6.Binding_cache.size h.cache));
    Alcotest.test_case "no expiring warning when refreshed in time" `Quick (fun () ->
        let h = make_cache () in
        ignore (Mipv6.Binding_cache.process_update h.cache ~home (bu ~lifetime_s:100 ()));
        ignore
          (Engine.Sim.schedule_at h.sim 50.0 (fun () ->
               ignore
                 (Mipv6.Binding_cache.process_update h.cache ~home
                    (bu ~sequence:2 ~lifetime_s:100 ()))));
        Engine.Sim.run ~until:100.0 h.sim;
        Alcotest.(check bool) "no warning" false (List.mem (`Expiring home) !(h.events)));
    Alcotest.test_case "entries are sorted by home address" `Quick (fun () ->
        let h = make_cache () in
        let home2 = Addr.of_string "2001:db8:4::11" in
        ignore (Mipv6.Binding_cache.process_update h.cache ~home:home2 (bu ()));
        ignore (Mipv6.Binding_cache.process_update h.cache ~home (bu ()));
        let homes =
          List.map (fun e -> e.Mipv6.Binding_cache.home) (Mipv6.Binding_cache.entries h.cache)
        in
        Alcotest.(check bool) "sorted" true (homes = List.sort Addr.compare homes))
  ]

(* ---- mobile node ---- *)

type mn_harness = {
  mn_sim : Engine.Sim.t;
  mn_sent : Packet.t list ref;
  mn : Mipv6.Mobile_node.t;
}

let make_mn ?(config = Mipv6.Mipv6_config.default) () =
  let sim = Engine.Sim.create () in
  let sent = ref [] in
  let env =
    { Mipv6.Mobile_node.sim;
      trace = Engine.Trace.create sim;
      config;
      send = (fun p -> sent := p :: !sent);
      label = "mn" }
  in
  { mn_sim = sim; mn_sent = sent; mn = Mipv6.Mobile_node.create env ~home_address:home ~home_agent:ha }

let binding_updates h =
  List.rev (List.filter_map (fun p -> Packet.find_binding_update p) !(h.mn_sent))

let ack h ?(status = 0) sequence =
  Mipv6.Mobile_node.handle_ack h.mn
    { Packet.status; ack_sequence = sequence; ack_lifetime_s = 256 }

let mobile_node_tests =
  [ Alcotest.test_case "attach_foreign sends a home registration" `Quick (fun () ->
        let h = make_mn () in
        Mipv6.Mobile_node.attach_foreign h.mn ~care_of:coa1;
        (match binding_updates h with
         | [ bu ] ->
           Alcotest.(check bool) "H bit" true bu.Packet.home_registration;
           Alcotest.(check bool) "care-of" true (Addr.equal bu.Packet.care_of coa1);
           Alcotest.(check int) "lifetime" 256 bu.Packet.lifetime_s
         | l -> Alcotest.failf "expected one binding update, got %d" (List.length l));
        (* The packet itself: src = care-of, dst = HA, home address option. *)
        (match !(h.mn_sent) with
         | [ p ] ->
           Alcotest.(check bool) "src is coa" true (Addr.equal p.Packet.src coa1);
           Alcotest.(check bool) "dst is ha" true (Addr.equal p.Packet.dst ha);
           Alcotest.(check bool) "home address option" true
             (Packet.find_home_address p = Some home)
         | _ -> Alcotest.fail "expected one packet");
        Alcotest.(check bool) "care_of exposed" true
          (Mipv6.Mobile_node.care_of h.mn = Some coa1));
    Alcotest.test_case "sequence numbers increase across updates" `Quick (fun () ->
        let h = make_mn () in
        Mipv6.Mobile_node.attach_foreign h.mn ~care_of:coa1;
        ack h (Mipv6.Mobile_node.sequence h.mn);
        Mipv6.Mobile_node.attach_foreign h.mn ~care_of:coa2;
        match binding_updates h with
        | [ a; b ] -> Alcotest.(check bool) "monotone" true (b.Packet.sequence > a.Packet.sequence)
        | _ -> Alcotest.fail "expected two updates");
    Alcotest.test_case "retransmits with backoff until acknowledged" `Quick (fun () ->
        let h = make_mn () in
        Mipv6.Mobile_node.attach_foreign h.mn ~care_of:coa1;
        Alcotest.(check bool) "not yet registered" false (Mipv6.Mobile_node.is_registered h.mn);
        (* 1 s, then 2 s, then 4 s backoff: by t=7.5 there are 4 sends. *)
        Engine.Sim.run ~until:7.5 h.mn_sim;
        Alcotest.(check int) "retransmissions" 4 (List.length (binding_updates h));
        ack h (Mipv6.Mobile_node.sequence h.mn);
        Alcotest.(check bool) "registered" true (Mipv6.Mobile_node.is_registered h.mn);
        let sent = List.length (binding_updates h) in
        Engine.Sim.run ~until:60.0 h.mn_sim;
        Alcotest.(check int) "quiet after ack" sent (List.length (binding_updates h)));
    Alcotest.test_case "ack with wrong sequence is ignored" `Quick (fun () ->
        let h = make_mn () in
        Mipv6.Mobile_node.attach_foreign h.mn ~care_of:coa1;
        ack h (Mipv6.Mobile_node.sequence h.mn - 1);
        Alcotest.(check bool) "still unregistered" false
          (Mipv6.Mobile_node.is_registered h.mn));
    Alcotest.test_case "rejection ack does not register" `Quick (fun () ->
        let h = make_mn () in
        Mipv6.Mobile_node.attach_foreign h.mn ~care_of:coa1;
        ack h ~status:141 (Mipv6.Mobile_node.sequence h.mn);
        Alcotest.(check bool) "not registered" false (Mipv6.Mobile_node.is_registered h.mn));
    Alcotest.test_case "periodic refresh before the lifetime expires" `Quick (fun () ->
        let h = make_mn () in
        Mipv6.Mobile_node.attach_foreign h.mn ~care_of:coa1;
        ack h (Mipv6.Mobile_node.sequence h.mn);
        (* Refresh at 128 s (0.5 * 256); ack each refresh. *)
        ignore
          (Engine.Sim.schedule_at h.mn_sim 129.0 (fun () ->
               ack h (Mipv6.Mobile_node.sequence h.mn)));
        Engine.Sim.run ~until:130.0 h.mn_sim;
        Alcotest.(check int) "refresh sent" 2 (List.length (binding_updates h));
        Engine.Sim.run ~until:258.0 h.mn_sim;
        Alcotest.(check bool) "second refresh" true (List.length (binding_updates h) >= 3));
    Alcotest.test_case "groups ride in the registration" `Quick (fun () ->
        let h = make_mn () in
        Mipv6.Mobile_node.set_advertised_groups ~notify:false h.mn [ group; group2 ];
        Mipv6.Mobile_node.attach_foreign h.mn ~care_of:coa1;
        (match binding_updates h with
         | [ bu ] -> (
           match bu.Packet.sub_options with
           | [ Packet.Multicast_group_list gs ] ->
             Alcotest.(check int) "both groups" 2 (List.length gs)
           | _ -> Alcotest.fail "expected the multicast group list sub-option")
         | _ -> Alcotest.fail "expected one update"));
    Alcotest.test_case "changing groups away from home refreshes immediately" `Quick
      (fun () ->
        let h = make_mn () in
        Mipv6.Mobile_node.attach_foreign h.mn ~care_of:coa1;
        ack h (Mipv6.Mobile_node.sequence h.mn);
        Mipv6.Mobile_node.set_advertised_groups h.mn [ group ];
        Alcotest.(check int) "second update" 2 (List.length (binding_updates h));
        (* Same list again: no extra update. *)
        Mipv6.Mobile_node.set_advertised_groups h.mn [ group ];
        Alcotest.(check int) "unchanged list is quiet" 2 (List.length (binding_updates h)));
    Alcotest.test_case "set groups at home sends nothing" `Quick (fun () ->
        let h = make_mn () in
        Mipv6.Mobile_node.set_advertised_groups h.mn [ group ];
        Alcotest.(check int) "quiet" 0 (List.length !(h.mn_sent)));
    Alcotest.test_case "attach_home deregisters" `Quick (fun () ->
        let h = make_mn () in
        Mipv6.Mobile_node.attach_foreign h.mn ~care_of:coa1;
        ack h (Mipv6.Mobile_node.sequence h.mn);
        Mipv6.Mobile_node.attach_home h.mn;
        (match binding_updates h with
         | [ _; dereg ] ->
           Alcotest.(check int) "zero lifetime" 0 dereg.Packet.lifetime_s;
           Alcotest.(check bool) "care-of = home" true (Addr.equal dereg.Packet.care_of home)
         | _ -> Alcotest.fail "expected registration + deregistration");
        Alcotest.(check bool) "at home" true (Mipv6.Mobile_node.care_of h.mn = None);
        let n = List.length (binding_updates h) in
        Engine.Sim.run ~until:500.0 h.mn_sim;
        Alcotest.(check int) "no refreshes at home" n (List.length (binding_updates h)));
    Alcotest.test_case "attach_home when already home is silent" `Quick (fun () ->
        let h = make_mn () in
        Mipv6.Mobile_node.attach_home h.mn;
        Alcotest.(check int) "nothing sent" 0 (List.length !(h.mn_sent)));
    Alcotest.test_case "refresh_now re-registers when away, no-op at home" `Quick (fun () ->
        let h = make_mn () in
        Mipv6.Mobile_node.attach_foreign h.mn ~care_of:coa1;
        ack h (Mipv6.Mobile_node.sequence h.mn);
        let before = List.length (binding_updates h) in
        Mipv6.Mobile_node.refresh_now h.mn;
        Alcotest.(check int) "one more update" (before + 1)
          (List.length (binding_updates h));
        Mipv6.Mobile_node.attach_home h.mn;
        let at_home = List.length (binding_updates h) in
        Mipv6.Mobile_node.refresh_now h.mn;
        Alcotest.(check int) "no-op at home" at_home (List.length (binding_updates h)));
    Alcotest.test_case "no-ack configuration counts as registered" `Quick (fun () ->
        let config = { Mipv6.Mipv6_config.default with request_ack = false } in
        let h = make_mn ~config () in
        Mipv6.Mobile_node.attach_foreign h.mn ~care_of:coa1;
        Alcotest.(check bool) "registered without ack" true
          (Mipv6.Mobile_node.is_registered h.mn);
        Engine.Sim.run ~until:10.0 h.mn_sim;
        Alcotest.(check int) "no retransmissions" 1 (List.length (binding_updates h)))
  ]

let tunnel_tests =
  [ Alcotest.test_case "ha -> mobile encapsulation" `Quick (fun () ->
        let inner = Packet.make ~src:coa2 ~dst:home Packet.Empty in
        let outer = Mipv6.Tunnel.home_agent_to_mobile ~home_agent:ha ~care_of:coa1 inner in
        Alcotest.(check bool) "outer src" true (Addr.equal outer.Packet.src ha);
        Alcotest.(check bool) "outer dst" true (Addr.equal outer.Packet.dst coa1);
        Alcotest.(check bool) "inner preserved" true
          (match Packet.decapsulate outer with
           | Some p -> Packet.equal p inner
           | None -> false));
    Alcotest.test_case "reverse tunnel keeps home address inside" `Quick (fun () ->
        let inner =
          Packet.make ~src:home ~dst:group (Packet.Data { stream_id = 1; seq = 1; bytes = 100 })
        in
        let outer = Mipv6.Tunnel.mobile_to_home_agent ~care_of:coa1 ~home_agent:ha inner in
        Alcotest.(check bool) "outer src is coa" true (Addr.equal outer.Packet.src coa1);
        match Packet.decapsulate outer with
        | Some p -> Alcotest.(check bool) "inner src is home" true (Addr.equal p.Packet.src home)
        | None -> Alcotest.fail "not a tunnel");
    Alcotest.test_case "overhead accounting" `Quick (fun () ->
        let inner = Packet.make ~src:home ~dst:group Packet.Empty in
        Alcotest.(check int) "plain" 0 (Mipv6.Tunnel.overhead_bytes inner);
        let once = Mipv6.Tunnel.mobile_to_home_agent ~care_of:coa1 ~home_agent:ha inner in
        Alcotest.(check int) "one level" 40 (Mipv6.Tunnel.overhead_bytes once);
        let twice = Mipv6.Tunnel.home_agent_to_mobile ~home_agent:ha ~care_of:coa1 once in
        Alcotest.(check int) "two levels" 80 (Mipv6.Tunnel.overhead_bytes twice))
  ]

let properties =
  let cache_sequence_monotone =
    QCheck.Test.make ~name:"cache accepts only non-decreasing sequences" ~count:200
      QCheck.(list (int_bound 100))
      (fun seqs ->
        let h = make_cache () in
        let accepted =
          List.filter
            (fun seq ->
              match
                Mipv6.Binding_cache.process_update h.cache ~home (bu ~sequence:seq ())
              with
              | Ok _ -> true
              | Error _ -> false)
            seqs
        in
        (* Accepted sequence numbers must be non-decreasing. *)
        let rec sorted = function
          | a :: (b :: _ as rest) -> a <= b && sorted rest
          | [ _ ] | [] -> true
        in
        sorted accepted)
  in
  [ QCheck_alcotest.to_alcotest cache_sequence_monotone ]

let () =
  Alcotest.run "mipv6"
    [ ("binding cache", cache_tests @ properties);
      ("mobile node", mobile_node_tests);
      ("tunnel", tunnel_tests)
    ]

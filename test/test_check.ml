(* Tests for the runtime invariant monitor and the hardened receive
   path: the monitor stays silent on healthy runs, raises on a
   deliberately broken configuration, the wire-check mode drops (and
   only drops) corrupted frames, and a looping unicast packet dies at
   the hop-limit counter instead of circulating. *)

open Mmcast

let group = Scenario.group

let soak_like_spec ?(approach = Approach.tunnel_to_home_agent) ?(seed = 11) () =
  (* The soak's tightened timers, so liveness converges well inside
     short test runs. *)
  Scale.Runner.spec_for (Scale.Gen.soak ~seed) approach

let start_cbr scenario ~until =
  ignore
    (Traffic.cbr scenario (Scenario.host scenario "S") ~group ~from_t:5.0 ~until
       ~interval:0.2 ~bytes:256)

let received scenario name = Host_stack.received_count (Scenario.host scenario name) ~group

(* ---- hop-limit expiry (regression for the forwarding-loop guard) ---- *)

let hop_limit_tests =
  [ Alcotest.test_case "unicast packet with hop limit 1 dies at the first router" `Quick
      (fun () ->
        let scenario = Scenario.paper_figure1 (soak_like_spec ()) in
        let net = scenario.Scenario.net in
        let a = Scenario.router scenario "A" in
        let s = Scenario.host scenario "S" in
        let dst = Ipv6.Addr.of_string "2001:db8:99::1" in
        (* Count every frame carrying our destination: only the
           injected one may ever appear on a wire. *)
        let seen = ref 0 in
        Net.Network.add_transmit_observer net (fun _link p ->
            if Ipv6.Addr.equal p.Ipv6.Packet.dst dst then incr seen);
        Traffic.at scenario 10.0 (fun () ->
            let p =
              Ipv6.Packet.make ~hop_limit:1 ~src:(Host_stack.current_source_address s)
                ~dst
                (Ipv6.Packet.Data { stream_id = 99; seq = 0; bytes = 64 })
            in
            Net.Network.transmit net ~from:(Host_stack.node_id s)
              ~link:(Scenario.link scenario "L1")
              (Net.Network.To_node (Router_stack.node_id a))
              p);
        Scenario.run_until scenario 12.0;
        Alcotest.(check int) "router A counted the expiry" 1
          (Router_stack.load a).Load.hop_limit_expired;
        Alcotest.(check int) "no forwarded copy on any link" 1 !seen)
  ]

(* ---- monitor ---- *)

let monitor_tests =
  [ Alcotest.test_case "healthy run stays violation free (all approaches)" `Slow (fun () ->
        List.iter
          (fun approach ->
            let scenario = Scenario.paper_figure1 (soak_like_spec ~approach ()) in
            let monitor = Check.Monitor.attach scenario in
            Scenario.subscribe_receivers scenario group;
            start_cbr scenario ~until:115.0;
            Traffic.at scenario 50.0 (fun () ->
                Host_stack.move_to (Scenario.host scenario "R3") (Scenario.link scenario "L6"));
            Scenario.run_until scenario 120.0;
            Check.Monitor.detach monitor;
            Alcotest.(check bool) "monitor sampled" true (Check.Monitor.samples monitor > 0);
            (match Check.Monitor.violations monitor with
             | [] -> ()
             | v :: _ ->
               Alcotest.failf "approach %s: %s" (Approach.name approach)
                 (Format.asprintf "%a" Check.Monitor.pp_violation v));
            Alcotest.(check bool) "receiver got data" true (received scenario "R3" > 0))
          Approach.all);
    Alcotest.test_case "disabling Graft is caught as a liveness violation" `Slow (fun () ->
        let base = soak_like_spec () in
        let spec =
          { base with
            Scenario.pim = { base.Scenario.pim with Pimdm.Pim_config.enable_graft = false } }
        in
        let scenario = Scenario.paper_figure1 spec in
        let monitor =
          Check.Monitor.attach
            ~config:{ Check.Monitor.default_config with Check.Monitor.sustain = Some 10.0 }
            scenario
        in
        Scenario.subscribe_receivers scenario group;
        start_cbr scenario ~until:115.0;
        (* Leave-then-rejoin prunes D's branch; without Graft the
           rejoin can only be repaired by a slow re-flood, which the
           short sustain window flags first. *)
        let r3 = Scenario.host scenario "R3" in
        Traffic.at scenario 30.0 (fun () -> Host_stack.unsubscribe r3 group);
        Traffic.at scenario 45.0 (fun () -> Host_stack.subscribe r3 group);
        Scenario.run_until scenario 120.0;
        Check.Monitor.detach monitor;
        let vs = Check.Monitor.violations monitor in
        Alcotest.(check bool) "at least one violation" true (vs <> []);
        Alcotest.(check bool) "a prune-graft or black-hole violation named the gap" true
          (List.exists
             (fun v ->
               match v.Check.Monitor.v_invariant with
               | Check.Monitor.Prune_graft | Check.Monitor.Black_hole -> true
               | _ -> false)
             vs);
        List.iter
          (fun v ->
            Alcotest.(check bool) "violation carries a trace excerpt" true
              (v.Check.Monitor.v_trace <> []))
          vs);
    Alcotest.test_case "soak convergence bound covers every repair path" `Quick (fun () ->
        let spec = soak_like_spec () in
        let bound = Check.Monitor.bound_for_spec spec in
        Alcotest.(check bool) "bound is positive and finite" true
          (bound > 0.0 && Float.is_finite bound);
        (* Crash recovery leans on State Refresh; turning it off must
           not enlarge the bound. *)
        let without =
          { spec with
            Scenario.pim =
              { spec.Scenario.pim with Pimdm.Pim_config.state_refresh_interval = None } }
        in
        Alcotest.(check bool) "state-refresh path dominates this spec" true
          (Check.Monitor.bound_for_spec without <= bound))
  ]

(* ---- wire-check mode ---- *)

let wire_tests =
  [ Alcotest.test_case "wire check is transparent on clean links" `Quick (fun () ->
        let run wire_check =
          let scenario = Scenario.paper_figure1 (soak_like_spec ~seed:5 ()) in
          Net.Network.set_wire_check scenario.Scenario.net wire_check;
          Scenario.subscribe_receivers scenario group;
          start_cbr scenario ~until:55.0;
          Scenario.run_until scenario 60.0;
          ( received scenario "R1",
            received scenario "R2",
            received scenario "R3",
            Net.Network.total_malformed_drops scenario.Scenario.net )
        in
        let r1, r2, r3, drops = run true in
        Alcotest.(check bool) "delivery happened" true (r1 > 0 && r2 > 0 && r3 > 0);
        Alcotest.(check int) "nothing malformed on clean links" 0 drops;
        Alcotest.(check (triple int int int)) "same deliveries as the fast path" (r1, r2, r3)
          (let r1', r2', r3', _ = run false in
           (r1', r2', r3')));
    Alcotest.test_case "corrupted frames are dropped and counted, not crashed on" `Quick
      (fun () ->
        let scenario = Scenario.paper_figure1 (soak_like_spec ~seed:6 ()) in
        let net = scenario.Scenario.net in
        Scenario.subscribe_receivers scenario group;
        start_cbr scenario ~until:85.0;
        let faults =
          Scenario.install_faults scenario
            [ Faults.corrupt_window
                ~link:(Scenario.link scenario "L3")
                ~rate:0.3 ~from_t:20.0 ~until:50.0 ]
        in
        Scenario.run_until scenario 90.0;
        ignore (Faults.marks_of faults);
        Alcotest.(check bool) "corrupt window auto-enabled wire checking" true
          (Net.Network.wire_check net);
        Alcotest.(check bool) "some frames were mangled and dropped" true
          (Net.Network.total_malformed_drops net > 0);
        Alcotest.(check bool) "delivery survived the corruption window" true
          (received scenario "R3" > 0))
  ]

let () =
  Alcotest.run "check"
    [ ("hop_limit", hop_limit_tests);
      ("monitor", monitor_tests);
      ("wire", wire_tests)
    ]

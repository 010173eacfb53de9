(* The fault-injection subsystem: declarative schedules, the protocol
   recovery paths the RFC timers provide (Graft retry, MLD robustness
   resends, Binding-Update backoff), recovery metrics, and bit-for-bit
   determinism of seeded fault scenarios. *)

open Mmcast

let group = Scenario.group

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

(* Collect the trace records [scenario] writes from now on; the
   result lists those in [category] whose message mentions [sub]. *)
let collect scenario =
  let seen = ref [] in
  Engine.Trace.on_record (Net.Network.trace scenario.Scenario.net) (fun r ->
      seen := r :: !seen);
  fun ~category sub ->
    List.rev !seen
    |> List.filter (fun (r : Engine.Trace.record) ->
           String.equal r.Engine.Trace.category category
           && contains ~sub (Engine.Trace.message r))

let raises_invalid what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what

(* ---- schedule validation and marks ---- *)

let schedule_tests =
  [ Alcotest.test_case "validation rejects nonsense" `Quick (fun () ->
        let l = Net.Ids.Link_id.of_int 0 in
        raises_invalid "rate > 1" (fun () ->
            Faults.validate [ Faults.loss_window ~link:l ~rate:1.5 ~from_t:0.0 ~until:1.0 ]);
        raises_invalid "negative rate" (fun () ->
            Faults.validate
              [ Faults.duplicate_window ~link:l ~rate:(-0.1) ~from_t:0.0 ~until:1.0 ]);
        raises_invalid "empty window" (fun () ->
            Faults.validate [ Faults.loss_window ~link:l ~rate:0.5 ~from_t:5.0 ~until:5.0 ]);
        raises_invalid "flap up before down" (fun () ->
            Faults.validate [ Faults.link_flap ~link:l ~down_at:10.0 ~up_at:9.0 ]);
        raises_invalid "negative jitter" (fun () ->
            Faults.validate
              [ Faults.reorder_window ~link:l ~rate:0.1 ~jitter:(-1.0) ~from_t:0.0
                  ~until:1.0 ]);
        raises_invalid "empty partition" (fun () ->
            Faults.validate [ Faults.partition ~links:[] ~from_t:0.0 ~until:1.0 ]);
        raises_invalid "recovery before crash" (fun () ->
            Faults.validate
              [ Faults.crash ~recover_at:5.0 ~node:(Net.Ids.Node_id.of_int 0) ~at:10.0 () ]);
        Faults.validate
          [ Faults.loss_window ~link:l ~rate:1.0 ~from_t:0.0 ~until:1.0;
            Faults.crash ~node:(Net.Ids.Node_id.of_int 0) ~at:3.0 () ]);
    Alcotest.test_case "marks are chronological with repair flags" `Quick (fun () ->
        let scenario = Scenario.paper_figure1 Scenario.default_spec in
        let topo = Net.Network.topology scenario.Scenario.net in
        let l3 = Scenario.link scenario "L3" in
        let d = Router_stack.node_id (Scenario.router scenario "D") in
        let marks =
          Faults.marks topo
            [ Faults.link_flap ~link:l3 ~down_at:80.0 ~up_at:100.0;
              Faults.crash ~recover_at:90.0 ~node:d ~at:60.0 ();
              Faults.loss_window ~link:l3 ~rate:0.25 ~from_t:10.0 ~until:30.0 ]
        in
        let times = List.map (fun (m : Faults.mark) -> m.Faults.fault_at) marks in
        Alcotest.(check (list (float 1e-9)))
          "sorted" [ 10.0; 30.0; 60.0; 80.0; 90.0; 100.0 ] times;
        let labelled repair =
          List.filter (fun (m : Faults.mark) -> m.Faults.repair = repair) marks
          |> List.map (fun (m : Faults.mark) -> m.Faults.fault_label)
        in
        Alcotest.(check (list string))
          "repairs" [ "loss(L3)-0.25"; "crash(D) restart"; "flap(L3) up" ] (labelled true);
        Alcotest.(check (list string))
          "onsets" [ "loss(L3)+0.25"; "crash(D)"; "flap(L3) down" ] (labelled false));
    Alcotest.test_case "crash of a non-router is rejected" `Quick (fun () ->
        let scenario = Scenario.paper_figure1 Scenario.default_spec in
        let s = Host_stack.node_id (Scenario.host scenario "S") in
        raises_invalid "crash a host" (fun () ->
            Scenario.install_faults scenario [ Faults.crash ~node:s ~at:10.0 () ]));
    Alcotest.test_case "windows restore the ambient rate" `Quick (fun () ->
        let scenario = Scenario.paper_figure1 Scenario.default_spec in
        let net = scenario.Scenario.net in
        let l3 = Scenario.link scenario "L3" in
        Net.Network.set_loss_rate net l3 0.3;
        let faults =
          Scenario.install_faults scenario
            [ Faults.loss_window ~link:l3 ~rate:0.9 ~from_t:10.0 ~until:20.0 ]
        in
        let during = ref 0.0 and after = ref 0.0 in
        Traffic.at scenario 15.0 (fun () -> during := Net.Network.loss_rate net l3);
        Traffic.at scenario 25.0 (fun () -> after := Net.Network.loss_rate net l3);
        Scenario.run_until scenario 30.0;
        Alcotest.(check (float 1e-9)) "window rate" 0.9 !during;
        Alcotest.(check (float 1e-9)) "ambient restored" 0.3 !after;
        Alcotest.(check int) "both edges fired" 2 (Faults.events_fired faults))
  ]

(* ---- protocol recovery under injected loss ---- *)

let recovery_path_tests =
  [ Alcotest.test_case "lost Graft is retried until Graft-Ack" `Quick (fun () ->
        (* Only R1 subscribes at first, so D prunes its upstream; when
           R3 joins at t=60 D must graft across L3 — where every
           delivery is killed until t=68.  The 3 s Graft retry timer
           must carry it through. *)
        let scenario = Scenario.paper_figure1 Scenario.default_spec in
        let mentions = collect scenario in
        let l3 = Scenario.link scenario "L3" in
        Traffic.at scenario 5.0 (fun () ->
            Host_stack.subscribe (Scenario.host scenario "R1") group);
        ignore
          (Traffic.cbr scenario (Scenario.host scenario "S") ~group ~from_t:10.0
             ~until:110.0 ~interval:0.5 ~bytes:200);
        Traffic.at scenario 60.0 (fun () ->
            Host_stack.subscribe (Scenario.host scenario "R3") group);
        ignore
          (Scenario.install_faults scenario
             [ Faults.loss_window ~link:l3 ~rate:1.0 ~from_t:59.0 ~until:68.0 ]);
        Scenario.run_until scenario 110.0;
        let retransmits = mentions ~category:"pim" "graft retransmitted" in
        Alcotest.(check bool) "graft retransmitted" true (List.length retransmits >= 1);
        let acks = mentions ~category:"pim" "graft acknowledged" in
        Alcotest.(check bool) "graft eventually acknowledged" true
          (List.exists (fun (r : Engine.Trace.record) -> r.Engine.Trace.at > 68.0) acks);
        Alcotest.(check bool) "R3 receives data after the window" true
          (Host_stack.received_count (Scenario.host scenario "R3") ~group > 0));
    Alcotest.test_case "lost MLD Report is covered by robustness resends" `Quick
      (fun () ->
        (* R2's first unsolicited Report at t=5 is destroyed; the
           robustness-variable resend at t=15 establishes state before
           the stream starts. *)
        let scenario = Scenario.paper_figure1 Scenario.default_spec in
        let mentions = collect scenario in
        let l2 = Scenario.link scenario "L2" in
        Traffic.at scenario 5.0 (fun () ->
            Host_stack.subscribe (Scenario.host scenario "R2") group);
        ignore
          (Traffic.cbr scenario (Scenario.host scenario "S") ~group ~from_t:20.0
             ~until:60.0 ~interval:0.5 ~bytes:200);
        ignore
          (Scenario.install_faults scenario
             [ Faults.loss_window ~link:l2 ~rate:1.0 ~from_t:4.9 ~until:6.0 ]);
        Scenario.run_until scenario 60.0;
        let reports = mentions ~category:"mld" "sent report for" in
        let expected =
          Scenario.default_spec.Scenario.mld.Mld.Mld_config.unsolicited_report_count
        in
        Alcotest.(check bool)
          (Printf.sprintf "at least %d unsolicited reports" expected)
          true
          (List.length reports >= expected);
        Alcotest.(check bool) "the first report really was lost" true
          (Net.Network.losses scenario.Scenario.net > 0);
        Alcotest.(check bool) "R2 receives the stream" true
          (Host_stack.received_count (Scenario.host scenario "R2") ~group > 0));
    Alcotest.test_case "lost Binding Update backs off exponentially until acked" `Quick
      (fun () ->
        let spec =
          { Scenario.default_spec with Scenario.approach = Approach.bidirectional_tunnel }
        in
        let scenario = Scenario.paper_figure1 spec in
        let mentions = collect scenario in
        let l3 = Scenario.link scenario "L3" in
        Traffic.at scenario 5.0 (fun () ->
            Host_stack.subscribe (Scenario.host scenario "R3") group);
        ignore
          (Traffic.cbr scenario (Scenario.host scenario "S") ~group ~from_t:20.0
             ~until:120.0 ~interval:0.5 ~bytes:200);
        (* R3 roams at t=50; its registration must cross L3, dead until
           t=58.  Retries at +1, +2, +4, +8 s: the fifth send at ~65
           finally reaches home agent D. *)
        Traffic.at scenario 50.0 (fun () ->
            Host_stack.move_to (Scenario.host scenario "R3") (Scenario.link scenario "L6"));
        ignore
          (Scenario.install_faults scenario
             [ Faults.loss_window ~link:l3 ~rate:1.0 ~from_t:49.0 ~until:58.0 ]);
        Scenario.run_until scenario 120.0;
        let sends =
          mentions ~category:"mipv6" "binding update #"
          |> List.filter (fun (r : Engine.Trace.record) ->
                 contains ~sub:"R3" (Engine.Trace.message r) && r.Engine.Trace.at > 49.0)
        in
        Alcotest.(check bool) "several retransmissions" true (List.length sends >= 4);
        (let times = List.map (fun (r : Engine.Trace.record) -> r.Engine.Trace.at) sends in
         match times with
         | t0 :: t1 :: rest when rest <> [] ->
           let last2 = List.nth times (List.length times - 2) in
           let last = List.nth times (List.length times - 1) in
           Alcotest.(check bool) "gaps grow (exponential backoff)" true
             (last -. last2 > 1.5 *. (t1 -. t0))
         | _ -> Alcotest.fail "not enough binding updates to compare gaps");
        let acks =
          mentions ~category:"mipv6" "acknowledged"
          |> List.filter (fun (r : Engine.Trace.record) ->
                 contains ~sub:"R3" (Engine.Trace.message r))
        in
        Alcotest.(check bool) "acked after the window closes" true
          (List.exists (fun (r : Engine.Trace.record) -> r.Engine.Trace.at > 58.0) acks);
        Alcotest.(check bool) "tunnelled delivery resumes" true
          (Host_stack.received_count (Scenario.host scenario "R3") ~group > 0))
  ]

(* ---- crash/restart and recovery metrics ---- *)

let crash_and_metrics_tests =
  [ Alcotest.test_case "scheduled crash loses state; restart reconverges" `Quick
      (fun () ->
        let scenario = Scenario.paper_figure1 Scenario.default_spec in
        let mentions = collect scenario in
        let d = Scenario.router scenario "D" in
        Traffic.at scenario 5.0 (fun () -> Scenario.subscribe_receivers scenario group);
        ignore
          (Traffic.cbr scenario (Scenario.host scenario "S") ~group ~from_t:20.0
             ~until:200.0 ~interval:0.5 ~bytes:200);
        let faults =
          Scenario.install_faults scenario
            [ Faults.crash ~recover_at:90.0 ~node:(Router_stack.node_id d) ~at:60.0 () ]
        in
        let recovery =
          Recovery.create scenario ~group ~hosts:[ "R3" ] (Faults.marks_of faults)
        in
        let failed_during = ref false and failed_after = ref true in
        let rx_at_restart = ref 0 in
        Traffic.at scenario 70.0 (fun () -> failed_during := Router_stack.is_failed d);
        Traffic.at scenario 95.0 (fun () -> failed_after := Router_stack.is_failed d);
        Traffic.at scenario 90.0 (fun () ->
            rx_at_restart :=
              Host_stack.received_count (Scenario.host scenario "R3") ~group);
        Scenario.run_until scenario 200.0;
        Alcotest.(check bool) "failed during crash" true !failed_during;
        Alcotest.(check bool) "alive after restart" false !failed_after;
        Alcotest.(check int) "crash and restart traced" 1
          (List.length (mentions ~category:"fault" "crash D"));
        Alcotest.(check int) "restart traced" 1
          (List.length (mentions ~category:"fault" "restart D"));
        Alcotest.(check bool) "R3 receives again after restart" true
          (Host_stack.received_count (Scenario.host scenario "R3") ~group
           > !rx_at_restart);
        let report = Recovery.report recovery in
        Alcotest.(check int) "one repair mark sampled" 1
          (List.length report.Recovery.samples);
        match report.Recovery.samples with
        | [ s ] ->
          Alcotest.(check string) "anchored on the restart" "crash(D) restart"
            s.Recovery.fault_label;
          Alcotest.(check bool) "recovered" true (s.Recovery.recovery_s <> None)
        | _ -> Alcotest.fail "expected exactly one sample");
    Alcotest.test_case "recovery reports unrecovered faults and rejects past marks"
      `Quick (fun () ->
        let scenario = Scenario.paper_figure1 Scenario.default_spec in
        (* No traffic at all: the repair mark can never be matched. *)
        let faults =
          Scenario.install_faults scenario
            [ Faults.link_flap ~link:(Scenario.link scenario "L3") ~down_at:10.0
                ~up_at:20.0 ]
        in
        let recovery =
          Recovery.create scenario ~group ~hosts:[ "R1"; "R3" ] (Faults.marks_of faults)
        in
        Scenario.run_until scenario 50.0;
        let report = Recovery.report recovery in
        Alcotest.(check int) "both hosts unrecovered" 2 report.Recovery.unrecovered;
        Alcotest.(check (option (float 1e-9))) "no mean" None report.Recovery.mean_recovery_s;
        raises_invalid "past mark" (fun () -> Recovery.note_fault recovery ~label:"x" 10.0));
    Alcotest.test_case "recovery leaves out repairs the clock has not reached" `Quick
      (fun () ->
        let scenario = Scenario.paper_figure1 Scenario.default_spec in
        Traffic.at scenario 5.0 (fun () -> Scenario.subscribe_receivers scenario group);
        ignore
          (Traffic.cbr scenario (Scenario.host scenario "S") ~group ~from_t:20.0
             ~until:200.0 ~interval:0.5 ~bytes:200);
        let l3 = Scenario.link scenario "L3" in
        let faults =
          Scenario.install_faults scenario
            [ Faults.link_flap ~link:l3 ~down_at:40.0 ~up_at:50.0;
              Faults.link_flap ~link:l3 ~down_at:150.0 ~up_at:160.0 ]
        in
        let recovery =
          Recovery.create scenario ~group ~hosts:[ "R3" ] (Faults.marks_of faults)
        in
        Scenario.run_until scenario 100.0;
        let report = Recovery.report recovery in
        Alcotest.(check (list (float 0.0))) "only the repair at 50 s" [ 50.0 ]
          (List.map (fun s -> s.Recovery.fault_at) report.Recovery.samples);
        Alcotest.(check int) "nothing unrecovered" 0 report.Recovery.unrecovered;
        Scenario.run_until scenario 200.0;
        Alcotest.(check int) "both repairs once the clock passes them" 2
          (List.length (Recovery.report recovery).Recovery.samples))
  ]

(* ---- determinism ---- *)

let determinism_tests =
  [ Alcotest.test_case "seeded fault scenario is bit-for-bit reproducible" `Quick
      (fun () ->
        let run () =
          let spec = { Scenario.default_spec with Scenario.seed = 7 } in
          let scenario = Scenario.paper_figure1 spec in
          let metrics = Metrics.attach scenario.Scenario.net in
          let mentions = collect scenario in
          let l2 = Scenario.link scenario "L2" in
          let l3 = Scenario.link scenario "L3" in
          Traffic.at scenario 5.0 (fun () -> Scenario.subscribe_receivers scenario group);
          ignore
            (Traffic.cbr scenario (Scenario.host scenario "S") ~group ~from_t:20.0
               ~until:140.0 ~interval:0.5 ~bytes:300);
          Traffic.at scenario 50.0 (fun () ->
              Host_stack.move_to (Scenario.host scenario "R3")
                (Scenario.link scenario "L6"));
          ignore
            (Scenario.install_faults scenario
               [ Faults.loss_window ~link:l2 ~rate:0.3 ~from_t:30.0 ~until:100.0;
                 Faults.duplicate_window ~link:l2 ~rate:0.2 ~from_t:30.0 ~until:100.0;
                 Faults.reorder_window ~link:l3 ~rate:0.2 ~jitter:0.05 ~from_t:30.0
                   ~until:100.0;
                 Faults.link_flap ~link:l3 ~down_at:80.0 ~up_at:95.0 ]);
          Scenario.run_until scenario 150.0;
          Alcotest.(check int) "reorder window traced with its %g jitter" 1
            (List.length (mentions ~category:"fault" "reordering 0.20 (max +0.05s) on L3"));
          let trace = Net.Network.trace scenario.Scenario.net in
          let rx name = Host_stack.received_count (Scenario.host scenario name) ~group in
          ( (Engine.Trace.count trace, Engine.Trace.digest trace),
            List.map rx [ "R1"; "R2"; "R3" ],
            Net.Network.losses scenario.Scenario.net,
            Net.Network.duplicates_injected scenario.Scenario.net,
            Net.Network.reordered scenario.Scenario.net,
            Metrics.signalling_bytes metrics )
        in
        let r1, rx1, losses1, dups1, reord1, sig1 = run () in
        let r2, rx2, losses2, dups2, reord2, sig2 = run () in
        Alcotest.(check int) "same trace length" (fst r1) (fst r2);
        Alcotest.(check string) "identical trace digests" (snd r1) (snd r2);
        Alcotest.(check (list int)) "identical deliveries" rx1 rx2;
        Alcotest.(check int) "identical losses" losses1 losses2;
        Alcotest.(check int) "identical duplicates" dups1 dups2;
        Alcotest.(check int) "identical reorders" reord1 reord2;
        Alcotest.(check int) "identical signalling" sig1 sig2;
        Alcotest.(check bool) "faults actually perturbed the run" true
          (losses1 > 0 && dups1 > 0));
    Alcotest.test_case "derived RNG streams do not perturb the parent" `Quick (fun () ->
        let a = Engine.Rng.create 99 in
        let b = Engine.Rng.create 99 in
        let child = Engine.Rng.derive b 1 in
        ignore (Engine.Rng.float child 1.0);
        Alcotest.(check (float 0.0)) "parent unchanged by derive+draw"
          (Engine.Rng.float a 1.0) (Engine.Rng.float b 1.0);
        let c1 = Engine.Rng.derive a 2 and c2 = Engine.Rng.derive b 2 in
        Alcotest.(check (float 0.0)) "derivation deterministic" (Engine.Rng.float c1 1.0)
          (Engine.Rng.float c2 1.0);
        Alcotest.(check bool) "labels give distinct streams" true
          (Engine.Rng.float (Engine.Rng.derive a 3) 1.0
           <> Engine.Rng.float (Engine.Rng.derive a 4) 1.0))
  ]

let () =
  Alcotest.run "faults"
    [ ("schedules", schedule_tests);
      ("recovery paths", recovery_path_tests);
      ("crash and metrics", crash_and_metrics_tests);
      ("determinism", determinism_tests)
    ]

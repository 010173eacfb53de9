(* Observability subsystem: JSON emitter/parser, pcapng writer/reader,
   live capture round trips, the metrics registry, engine probes, run
   manifests and the protocol telemetry wiring. *)

open Mmcast

let group = Scenario.group

(* ---- Obs.Json ---- *)

let nasty_string = "quote\" backslash\\ newline\n tab\t control\x01 utf8 \xc3\xa9"

let json_tests =
  [ Alcotest.test_case "escaping round trip" `Quick (fun () ->
        let doc =
          Obs.Json.Obj
            [ ("s", Obs.Json.String nasty_string);
              ("i", Obs.Json.Int (-42));
              ("f", Obs.Json.float 0.1);
              ("t", Obs.Json.Bool true);
              ("n", Obs.Json.Null);
              ( "l",
                Obs.Json.List
                  [ Obs.Json.Int 0; Obs.Json.String "x"; Obs.Json.Obj [] ] ) ]
        in
        List.iter
          (fun pretty ->
            match Obs.Json.of_string (Obs.Json.to_string ~pretty doc) with
            | Ok parsed ->
              Alcotest.(check bool)
                (Printf.sprintf "pretty=%b round trips" pretty)
                true (parsed = doc)
            | Error e -> Alcotest.failf "parse failed: %s" e)
          [ false; true ]);
    Alcotest.test_case "non-finite floats become null" `Quick (fun () ->
        Alcotest.(check string) "nan" "null" (Obs.Json.to_string (Obs.Json.float nan));
        Alcotest.(check string) "inf" "null"
          (Obs.Json.to_string (Obs.Json.float infinity)));
    Alcotest.test_case "integer-valued floats keep a decimal point" `Quick (fun () ->
        Alcotest.(check string) "2.0" "2.0" (Obs.Json.to_string (Obs.Json.float 2.0));
        match Obs.Json.of_string "2.0" with
        | Ok (Obs.Json.Float 2.0) -> ()
        | Ok v -> Alcotest.failf "parsed as %s" (Obs.Json.to_string v)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "float precision survives the emitter" `Quick (fun () ->
        List.iter
          (fun f ->
            match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.float f)) with
            | Ok (Obs.Json.Float g) ->
              Alcotest.(check bool) (string_of_float f) true (f = g)
            | Ok _ | Error _ -> Alcotest.failf "%g did not round trip" f)
          [ 0.1; 1.0 /. 3.0; 1e-300; 1.7976931348623157e308; -0.0; 233.51629599999995 ]);
    Alcotest.test_case "parser rejects trailing garbage and bad escapes" `Quick
      (fun () ->
        (match Obs.Json.of_string "{} x" with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "trailing garbage accepted");
        (match Obs.Json.of_string "\"\\q\"" with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "bad escape accepted");
        match Obs.Json.of_string "[1," with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "truncated list accepted");
    Alcotest.test_case "parser decodes surrogate pairs" `Quick (fun () ->
        match Obs.Json.of_string "\"\\ud83d\\ude00\"" with
        | Ok (Obs.Json.String s) ->
          Alcotest.(check string) "U+1F600 as UTF-8" "\xf0\x9f\x98\x80" s
        | Ok _ | Error _ -> Alcotest.fail "surrogate pair rejected");
    Alcotest.test_case "member and to_float_opt" `Quick (fun () ->
        let doc = Obs.Json.Obj [ ("a", Obs.Json.Int 3); ("b", Obs.Json.float 1.5) ] in
        Alcotest.(check (option (float 1e-9))) "int member" (Some 3.0)
          (Option.bind (Obs.Json.member "a" doc) Obs.Json.to_float_opt);
        Alcotest.(check (option (float 1e-9))) "float member" (Some 1.5)
          (Option.bind (Obs.Json.member "b" doc) Obs.Json.to_float_opt);
        Alcotest.(check bool) "missing member" true (Obs.Json.member "c" doc = None))
  ]

(* ---- Obs.Pcapng ---- *)

let pcapng_tests =
  [ Alcotest.test_case "writer/reader round trip" `Quick (fun () ->
        let w = Obs.Pcapng.Writer.create ~application:"test" () in
        let i0 = Obs.Pcapng.Writer.add_interface w ~name:"L1" () in
        let i1 = Obs.Pcapng.Writer.add_interface w ~name:"L2" () in
        let payload_a = Bytes.of_string "alpha-frame-bytes" in
        let payload_b = Bytes.of_string "b" in
        Obs.Pcapng.Writer.add_packet w ~iface:i0 ~ts:1.25 payload_a;
        Obs.Pcapng.Writer.add_packet w ~iface:i1 ~ts:2.000001 payload_b;
        Alcotest.(check int) "packet_count" 2 (Obs.Pcapng.Writer.packet_count w);
        match Obs.Pcapng.read (Obs.Pcapng.Writer.contents w) with
        | Error e -> Alcotest.failf "read: %s" e
        | Ok cap ->
          Alcotest.(check (option string)) "application" (Some "test")
            cap.Obs.Pcapng.application;
          Alcotest.(check (list (option string)))
            "interface names" [ Some "L1"; Some "L2" ]
            (List.map
               (fun i -> i.Obs.Pcapng.intf_name)
               cap.Obs.Pcapng.interfaces);
          (match cap.Obs.Pcapng.frames with
           | [ a; b ] ->
             Alcotest.(check int) "iface a" i0 a.Obs.Pcapng.frame_interface;
             Alcotest.(check int) "iface b" i1 b.Obs.Pcapng.frame_interface;
             Alcotest.(check bytes) "bytes a" payload_a a.Obs.Pcapng.frame_data;
             Alcotest.(check bytes) "bytes b" payload_b b.Obs.Pcapng.frame_data;
             Alcotest.(check (float 1e-6)) "ts a" 1.25 a.Obs.Pcapng.frame_ts;
             Alcotest.(check (float 1e-6)) "ts b" 2.000001 b.Obs.Pcapng.frame_ts
           | frames -> Alcotest.failf "expected 2 frames, got %d" (List.length frames)));
    Alcotest.test_case "unknown interface rejected" `Quick (fun () ->
        let w = Obs.Pcapng.Writer.create () in
        match Obs.Pcapng.Writer.add_packet w ~iface:0 ~ts:0.0 (Bytes.create 4) with
        | () -> Alcotest.fail "unknown interface accepted"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "truncated captures rejected" `Quick (fun () ->
        let w = Obs.Pcapng.Writer.create () in
        let i = Obs.Pcapng.Writer.add_interface w ~name:"L" () in
        Obs.Pcapng.Writer.add_packet w ~iface:i ~ts:1.0 (Bytes.create 40);
        let full = Obs.Pcapng.Writer.contents w in
        (match Obs.Pcapng.read (Bytes.sub full 0 (Bytes.length full - 5)) with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "truncated tail accepted");
        match Obs.Pcapng.read (Bytes.sub full 0 11) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "truncated header accepted");
    Alcotest.test_case "lenient reader keeps the readable prefix" `Quick (fun () ->
        let w = Obs.Pcapng.Writer.create () in
        let i = Obs.Pcapng.Writer.add_interface w ~name:"L" () in
        Obs.Pcapng.Writer.add_packet w ~iface:i ~ts:1.0 (Bytes.of_string "first");
        let intact = Bytes.length (Obs.Pcapng.Writer.contents w) in
        Obs.Pcapng.Writer.add_packet w ~iface:i ~ts:2.0 (Bytes.of_string "second");
        let full = Obs.Pcapng.Writer.contents w in
        (* Cut mid-way through the final EPB: a capture whose writer
           died mid-write. *)
        let damaged = Bytes.sub full 0 (intact + 7) in
        let cap, err = Obs.Pcapng.read_lenient damaged in
        (match err with
         | Some _ -> ()
         | None -> Alcotest.fail "damage not reported");
        (match cap.Obs.Pcapng.frames with
         | [ f ] ->
           Alcotest.(check bytes) "first frame survives"
             (Bytes.of_string "first") f.Obs.Pcapng.frame_data
         | frames ->
           Alcotest.failf "expected the 1 intact frame, got %d" (List.length frames));
        (* An undamaged capture reports no error and the same frames as
           the strict reader. *)
        let cap_ok, err_ok = Obs.Pcapng.read_lenient full in
        (match err_ok with
         | None -> ()
         | Some e -> Alcotest.failf "intact capture flagged: %s" e);
        Alcotest.(check int) "both frames" 2 (List.length cap_ok.Obs.Pcapng.frames))
  ]

(* ---- live capture round trips ---- *)

(* The README quickstart scenario: figure-1 network, CBR stream from
   t=30, R3 hands off L4 -> L6 at t=60, 120 s total. *)
let quickstart_scenario ?capture () =
  let scenario = Scenario.paper_figure1 Scenario.default_spec in
  let cap =
    match capture with
    | None -> None
    | Some f -> Some (f scenario.Scenario.net)
  in
  Traffic.at scenario 5.0 (fun () -> Scenario.subscribe_receivers scenario group);
  ignore
    (Traffic.cbr scenario (Scenario.host scenario "S") ~group ~from_t:30.0 ~until:110.0
       ~interval:0.5 ~bytes:500);
  Traffic.at scenario 60.0 (fun () ->
      Host_stack.move_to (Scenario.host scenario "R3") (Scenario.link scenario "L6"));
  Scenario.run_until scenario 120.0;
  (scenario, cap)

let capture_tests =
  [ Alcotest.test_case "quickstart capture round trips byte-for-byte" `Quick
      (fun () ->
        let _, cap = quickstart_scenario ~capture:Obs.Capture.attach () in
        let cap = Option.get cap in
        Alcotest.(check int) "no unencodable frames" 0 (Obs.Capture.unencodable cap);
        Alcotest.(check bool) "captured traffic" true (Obs.Capture.frames cap > 100);
        match Obs.Pcapng.read (Obs.Capture.contents cap) with
        | Error e -> Alcotest.failf "reader rejected live capture: %s" e
        | Ok parsed ->
          Alcotest.(check int) "all frames survive the file format"
            (Obs.Capture.frames cap)
            (List.length parsed.Obs.Pcapng.frames);
          (* Every frame must re-decode through the codec, and
             re-encoding the decoded packet must reproduce the captured
             bytes exactly: zero malformed drops, zero lossy fields. *)
          List.iter
            (fun (f : Obs.Pcapng.frame) ->
              match Ipv6.Codec.decode f.Obs.Pcapng.frame_data with
              | Error e ->
                Alcotest.failf "malformed frame at %.6f: %s" f.Obs.Pcapng.frame_ts e
              | Ok pkt ->
                Alcotest.(check bytes)
                  (Printf.sprintf "byte-exact at %.6f" f.Obs.Pcapng.frame_ts)
                  f.Obs.Pcapng.frame_data (Ipv6.Codec.encode pkt))
            parsed.Obs.Pcapng.frames;
          (* Timestamps are monotone non-decreasing in file order. *)
          ignore
            (List.fold_left
               (fun prev (f : Obs.Pcapng.frame) ->
                 if f.Obs.Pcapng.frame_ts < prev then
                   Alcotest.failf "timestamp went backwards at %.6f"
                     f.Obs.Pcapng.frame_ts;
                 f.Obs.Pcapng.frame_ts)
               0.0 parsed.Obs.Pcapng.frames));
    Alcotest.test_case "capture does not perturb the run" `Quick (fun () ->
        let observed scenario =
          List.map
            (fun name ->
              Host_stack.received_count (Scenario.host scenario name) ~group)
            [ "R1"; "R2"; "R3" ]
        in
        let plain, _ = quickstart_scenario () in
        let captured, _ = quickstart_scenario ~capture:Obs.Capture.attach () in
        Alcotest.(check (list int))
          "identical deliveries" (observed plain) (observed captured);
        Alcotest.(check int) "identical event counts"
          (Engine.Sim.events_executed plain.Scenario.sim)
          (Engine.Sim.events_executed captured.Scenario.sim));
    Alcotest.test_case "link and node filters" `Quick (fun () ->
        let _, cap =
          quickstart_scenario
            ~capture:(fun net -> Obs.Capture.attach ~links:[ "L1" ] net)
            ()
        in
        let cap = Option.get cap in
        (match Obs.Pcapng.read (Obs.Capture.contents cap) with
         | Error e -> Alcotest.fail e
         | Ok parsed ->
           Alcotest.(check (list (option string)))
             "single interface" [ Some "L1" ]
             (List.map
                (fun i -> i.Obs.Pcapng.intf_name)
                parsed.Obs.Pcapng.interfaces);
           Alcotest.(check bool) "L1 saw traffic" true
             (List.length parsed.Obs.Pcapng.frames > 0));
        let _, sender_only =
          quickstart_scenario
            ~capture:(fun net -> Obs.Capture.attach ~nodes:[ "S" ] net)
            ()
        in
        let sender_only = Option.get sender_only in
        Alcotest.(check bool) "sender filter keeps S frames" true
          (Obs.Capture.frames sender_only > 0);
        (* S originates data only: far fewer frames than a full capture. *)
        let _, full = quickstart_scenario ~capture:Obs.Capture.attach () in
        Alcotest.(check bool) "sender filter drops other sources" true
          (Obs.Capture.frames sender_only
          < Obs.Capture.frames (Option.get full)));
    Alcotest.test_case "link and node filters compose" `Quick (fun () ->
        (* S's uplink carries both S's own frames and the router's:
           filtering on the link alone keeps more than filtering on the
           link AND the node, and the composed capture is exactly the
           S-originated subset of the link capture. *)
        let run capture =
          let _, cap = quickstart_scenario ~capture () in
          Option.get cap
        in
        let link_only = run (fun net -> Obs.Capture.attach ~links:[ "L1" ] net) in
        let both =
          run (fun net -> Obs.Capture.attach ~links:[ "L1" ] ~nodes:[ "S" ] net)
        in
        Alcotest.(check bool) "composed capture saw traffic" true
          (Obs.Capture.frames both > 0);
        Alcotest.(check bool) "conjunction, not union" true
          (Obs.Capture.frames both < Obs.Capture.frames link_only);
        match
          ( Obs.Pcapng.read (Obs.Capture.contents link_only),
            Obs.Pcapng.read (Obs.Capture.contents both) )
        with
        | Ok link_cap, Ok both_cap ->
          Alcotest.(check (list (option string)))
            "single interface" [ Some "L1" ]
            (List.map
               (fun i -> i.Obs.Pcapng.intf_name)
               both_cap.Obs.Pcapng.interfaces);
          (* Every frame kept by the composed filter appears, in order,
             in the link-only capture: composing never invents frames. *)
          let bytes_of c =
            List.map (fun f -> f.Obs.Pcapng.frame_data) c.Obs.Pcapng.frames
          in
          let rec subsequence = function
            | [], _ -> true
            | _ :: _, [] -> false
            | x :: xs, y :: ys ->
              if Bytes.equal x y then subsequence (xs, ys) else subsequence (x :: xs, ys)
          in
          Alcotest.(check bool) "subsequence of the link capture" true
            (subsequence (bytes_of both_cap, bytes_of link_cap))
        | Error e, _ | _, Error e -> Alcotest.fail e);
    Alcotest.test_case "capture stays pristine through a corrupt window" `Quick
      (fun () ->
        (* Corruption mangles the receiver's copy at delivery time; the
           capture records the frame at transmit time, so even with the
           corrupt window active every captured frame must still decode.
           This pins the copy-on-write frame path: a corrupting fault
           must never scribble on the shared transmit buffer. *)
        let scenario = Scenario.paper_figure1 Scenario.default_spec in
        let cap = Obs.Capture.attach scenario.Scenario.net in
        Traffic.at scenario 5.0 (fun () -> Scenario.subscribe_receivers scenario group);
        ignore
          (Traffic.cbr scenario (Scenario.host scenario "S") ~group ~from_t:10.0
             ~until:80.0 ~interval:0.5 ~bytes:500);
        ignore
          (Scenario.install_faults scenario
             [ Faults.corrupt_window
                 ~link:(Scenario.link scenario "L3")
                 ~rate:0.5 ~from_t:20.0 ~until:60.0 ]);
        Scenario.run_until scenario 90.0;
        Alcotest.(check bool) "corruption actually hit" true
          (Net.Network.total_malformed_drops scenario.Scenario.net > 0);
        match Obs.Pcapng.read (Obs.Capture.contents cap) with
        | Error e -> Alcotest.failf "capture unreadable: %s" e
        | Ok parsed ->
          Alcotest.(check int) "all frames in the file"
            (Obs.Capture.frames cap)
            (List.length parsed.Obs.Pcapng.frames);
          List.iter
            (fun (f : Obs.Pcapng.frame) ->
              match Ipv6.Codec.decode f.Obs.Pcapng.frame_data with
              | Ok _ -> ()
              | Error e ->
                Alcotest.failf "corruption leaked into the capture at %.6f: %s"
                  f.Obs.Pcapng.frame_ts e)
            parsed.Obs.Pcapng.frames);
    Alcotest.test_case "unknown names rejected" `Quick (fun () ->
        let scenario = Scenario.paper_figure1 Scenario.default_spec in
        (match Obs.Capture.attach ~links:[ "L99" ] scenario.Scenario.net with
         | _ -> Alcotest.fail "unknown link accepted"
         | exception Invalid_argument _ -> ());
        match Obs.Capture.attach ~nodes:[ "Z" ] scenario.Scenario.net with
        | _ -> Alcotest.fail "unknown node accepted"
        | exception Invalid_argument _ -> ())
  ]

(* ---- Obs.Registry + Obs.Probe ---- *)

let registry_tests =
  [ Alcotest.test_case "periodic sampling of gauges and counters" `Quick (fun () ->
        let sim = Engine.Sim.create () in
        let reg = Obs.Registry.create sim in
        let c = ref 0 in
        Obs.Registry.int_gauge reg "events.c" (fun () -> !c);
        Obs.Registry.int_gauge reg "pending" (fun () -> Engine.Sim.pending sim);
        ignore (Engine.Sim.schedule_at sim 2.5 (fun () -> incr c));
        Obs.Registry.run_sampler reg ~every:1.0 ~until:5.0;
        Engine.Sim.run sim;
        Alcotest.(check int) "five ticks" 5 (Obs.Registry.samples reg);
        let doc = Obs.Registry.to_json reg in
        (* The document is valid JSON and carries both series. *)
        (match Obs.Json.of_string (Obs.Json.to_string doc) with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "telemetry not valid JSON: %s" e);
        match Obs.Json.member "series" doc with
        | Some (Obs.Json.List series) ->
          let names =
            List.filter_map
              (fun s ->
                match Obs.Json.member "name" s with
                | Some (Obs.Json.String n) -> Some n
                | _ -> None)
              series
          in
          Alcotest.(check (list string)) "registration order"
            [ "events.c"; "pending" ] names;
          let points s =
            match Obs.Json.member "points" s with
            | Some (Obs.Json.List ps) -> ps
            | _ -> []
          in
          List.iter
            (fun s ->
              Alcotest.(check int) "one point per tick" 5 (List.length (points s)))
            series;
          (* The counter series steps from 0 to 1 at the t=3 tick. *)
          (match points (List.nth series 0) with
           | [ p1; p2; p3; _; _ ] ->
             let value p =
               match p with
               | Obs.Json.List [ _; v ] -> Option.get (Obs.Json.to_float_opt v)
               | _ -> nan
             in
             Alcotest.(check (float 1e-9)) "t=1" 0.0 (value p1);
             Alcotest.(check (float 1e-9)) "t=2" 0.0 (value p2);
             Alcotest.(check (float 1e-9)) "t=3" 1.0 (value p3)
           | _ -> Alcotest.fail "wrong point count")
        | _ -> Alcotest.fail "no series list");
    Alcotest.test_case "summary snapshots" `Quick (fun () ->
        let sim = Engine.Sim.create () in
        let reg = Obs.Registry.create sim in
        let s = Engine.Stats.Summary.create () in
        List.iter (Engine.Stats.Summary.add s) [ 1.0; 2.0; 3.0 ];
        Obs.Registry.summary reg ~unit_:"s" "lat" s;
        Obs.Registry.summary reg "empty" (Engine.Stats.Summary.create ());
        match Obs.Json.member "distributions" (Obs.Registry.to_json reg) with
        | Some (Obs.Json.List [ lat; empty ]) ->
          Alcotest.(check (option (float 1e-9))) "p50" (Some 2.0)
            (Option.bind (Obs.Json.member "p50" lat) Obs.Json.to_float_opt);
          Alcotest.(check bool) "unit" true
            (Obs.Json.member "unit" lat = Some (Obs.Json.String "s"));
          Alcotest.(check (option (float 1e-9))) "empty count" (Some 0.0)
            (Option.bind (Obs.Json.member "count" empty) Obs.Json.to_float_opt);
          Alcotest.(check bool) "no statistics when empty" true
            (Obs.Json.member "mean" empty = None)
        | _ -> Alcotest.fail "expected two distributions");
    Alcotest.test_case "duplicate probe names rejected" `Quick (fun () ->
        let reg = Obs.Registry.create (Engine.Sim.create ()) in
        Obs.Registry.int_gauge reg "queue" (fun () -> 0);
        (match Obs.Registry.gauge reg "queue" (fun () -> 0.0) with
         | () -> Alcotest.fail "second probe under one series name accepted"
         | exception Invalid_argument msg ->
           (* The message must name the offender so the collision is
              actionable without a stack trace. *)
           let has_sub needle hay =
             let n = String.length needle and h = String.length hay in
             let rec go i =
               i + n <= h && (String.sub hay i n = needle || go (i + 1))
             in
             go 0
           in
           Alcotest.(check bool) "message names the duplicate" true
             (has_sub "\"queue\"" msg && has_sub "already registered" msg));
        (match Obs.Registry.int_gauge reg "queue" (fun () -> 1) with
         | () -> Alcotest.fail "int gauge reused a gauge's name"
         | exception Invalid_argument _ -> ());
        let s = Engine.Stats.Summary.create () in
        Obs.Registry.summary reg "lat" s;
        (match Obs.Registry.summary reg "lat" s with
         | () -> Alcotest.fail "duplicate distribution name accepted"
         | exception Invalid_argument _ -> ());
        (* Direct series access stays get-or-create: pushing points from
           two sites into one named series is deliberate and allowed. *)
        let a = Obs.Registry.series reg "direct" in
        let b = Obs.Registry.series reg "direct" in
        Alcotest.(check bool) "series is get-or-create" true (a == b));
    Alcotest.test_case "names lists every registration in order" `Quick (fun () ->
        let reg = Obs.Registry.create (Engine.Sim.create ()) in
        Alcotest.(check (list string)) "empty registry" [] (Obs.Registry.names reg);
        Obs.Registry.int_gauge reg "one" (fun () -> 1);
        ignore (Obs.Registry.series reg "two");
        Obs.Registry.summary reg "dist" (Engine.Stats.Summary.create ());
        Obs.Registry.gauge reg "three" (fun () -> 3.0);
        Alcotest.(check (list string)) "series first, then distributions"
          [ "one"; "two"; "three"; "dist" ]
          (Obs.Registry.names reg));
    Alcotest.test_case "sampler interval validated" `Quick (fun () ->
        let reg = Obs.Registry.create (Engine.Sim.create ()) in
        match Obs.Registry.run_sampler reg ~every:0.0 ~until:10.0 with
        | () -> Alcotest.fail "zero interval accepted"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "engine probes export profile categories" `Quick (fun () ->
        let sim = Engine.Sim.create () in
        let reg = Obs.Registry.create sim in
        Obs.Probe.attach reg sim;
        for i = 1 to 20 do
          ignore
            (Engine.Sim.schedule_at ~category:"work" sim (float_of_int i) (fun () -> ()))
        done;
        Obs.Registry.run_sampler reg ~every:5.0 ~until:20.0;
        Engine.Sim.run sim;
        let doc = Obs.Registry.to_json reg in
        match Obs.Json.member "series" doc with
        | Some (Obs.Json.List series) ->
          let names =
            List.filter_map
              (fun s ->
                match Obs.Json.member "name" s with
                | Some (Obs.Json.String n) -> Some n
                | _ -> None)
              series
          in
          List.iter
            (fun expected ->
              Alcotest.(check bool) expected true (List.mem expected names))
            [ "engine.queue_depth";
              "engine.events_executed";
              "engine.events_per_sim_s";
              "engine.profile.work.events" ]
        | _ -> Alcotest.fail "no series list")
  ]

(* ---- Obs.Manifest ---- *)

let manifest_tests =
  [ Alcotest.test_case "manifest fields and outputs" `Quick (fun () ->
        let m = Obs.Manifest.create ~argv:[ "tool"; "--flag" ] ~tool:"test" () in
        Obs.Manifest.add_int m "seed" 42;
        Obs.Manifest.add_string m "topology" "paper_figure1";
        Obs.Manifest.add_int m "seed" 43 (* replaces in place *);
        Obs.Manifest.add_output m ~kind:"telemetry" "out/telemetry.json";
        let doc = Obs.Manifest.to_json m in
        let str_member k =
          match Obs.Json.member k doc with
          | Some (Obs.Json.String s) -> Some s
          | _ -> None
        in
        Alcotest.(check (option string)) "schema" (Some "mmcast-manifest/1")
          (str_member "schema");
        Alcotest.(check (option string)) "tool" (Some "test") (str_member "tool");
        Alcotest.(check (option (float 1e-9))) "seed replaced" (Some 43.0)
          (Option.bind (Obs.Json.member "seed" doc) Obs.Json.to_float_opt);
        (match Obs.Json.member "argv" doc with
         | Some (Obs.Json.List [ Obs.Json.String "tool"; Obs.Json.String "--flag" ]) -> ()
         | _ -> Alcotest.fail "argv not preserved");
        (match Obs.Json.member "outputs" doc with
         | Some (Obs.Json.List [ out ]) ->
           Alcotest.(check (option string)) "output kind" (Some "telemetry")
             (match Obs.Json.member "kind" out with
              | Some (Obs.Json.String s) -> Some s
              | _ -> None)
         | _ -> Alcotest.fail "outputs missing");
        match Obs.Json.of_string (Obs.Json.to_string ~pretty:true doc) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "manifest not valid JSON: %s" e);
    Alcotest.test_case "git describe does not raise" `Quick (fun () ->
        (* Some CI sandboxes have no git or no repo: either answer is
           fine, the call just must not blow up. *)
        ignore (Obs.Manifest.git_describe ()))
  ]

(* ---- Telemetry wiring ---- *)

let telemetry_tests =
  [ Alcotest.test_case "figure-1 telemetry covers the paper's observables" `Quick
      (fun () ->
        let scenario = Scenario.paper_figure1 Scenario.default_spec in
        let metrics = Metrics.attach scenario.Scenario.net in
        let reg = Obs.Registry.create scenario.Scenario.sim in
        let tele = Telemetry.attach reg scenario metrics in
        Obs.Registry.run_sampler reg ~every:1.0 ~until:120.0;
        Traffic.at scenario 5.0 (fun () -> Scenario.subscribe_receivers scenario group);
        ignore
          (Traffic.cbr scenario (Scenario.host scenario "S") ~group ~from_t:30.0
             ~until:110.0 ~interval:0.5 ~bytes:500);
        Traffic.at scenario 60.0 (fun () ->
            Host_stack.move_to (Scenario.host scenario "R3")
              (Scenario.link scenario "L6"));
        Scenario.run_until scenario 120.0;
        (match Metrics.join_delay (Scenario.host scenario "R3") ~group with
         | Some d -> Telemetry.record_join_delay tele d
         | None -> ());
        let doc = Obs.Registry.to_json ~meta:[ ("seed", Obs.Json.Int 42) ] reg in
        (match Obs.Json.of_string (Obs.Json.to_string ~pretty:true doc) with
         | Ok reparsed -> Alcotest.(check bool) "round trips" true (reparsed = doc)
         | Error e -> Alcotest.failf "telemetry not valid JSON: %s" e);
        let series_names =
          match Obs.Json.member "series" doc with
          | Some (Obs.Json.List series) ->
            List.filter_map
              (fun s ->
                match Obs.Json.member "name" s with
                | Some (Obs.Json.String n) -> Some n
                | _ -> None)
              series
          | _ -> []
        in
        List.iter
          (fun expected ->
            Alcotest.(check bool) expected true (List.mem expected series_names))
          [ "link.L1.native_bytes";
            "link.L4.tunnelled_bytes";
            "link.L6.tunnel_overhead_bytes";
            "control.mld_bytes";
            "control.pim_bytes";
            "control.binding_updates";
            "host.R3.received";
            "host.R3.duplicates";
            "router.D.sg_entries";
            "router.D.bindings";
            "engine.queue_depth" ];
        (* A sampled series is non-trivial: native data flowed on L1. *)
        let last_value name =
          match Obs.Json.member "series" doc with
          | Some (Obs.Json.List series) ->
            List.find_map
              (fun s ->
                match (Obs.Json.member "name" s, Obs.Json.member "points" s) with
                | Some (Obs.Json.String n), Some (Obs.Json.List points)
                  when n = name -> (
                  match List.rev points with
                  | Obs.Json.List [ _; v ] :: _ -> Obs.Json.to_float_opt v
                  | _ -> None)
                | _ -> None)
              series
          | _ -> None
        in
        (match last_value "link.L1.native_bytes" with
         | Some v -> Alcotest.(check bool) "L1 carried native data" true (v > 0.0)
         | None -> Alcotest.fail "no points for link.L1.native_bytes");
        (match last_value "host.R3.received" with
         | Some v -> Alcotest.(check bool) "R3 received data" true (v > 0.0)
         | None -> Alcotest.fail "no points for host.R3.received");
        (* The recorded join delay appears as a distribution. *)
        match Obs.Json.member "distributions" doc with
        | Some (Obs.Json.List dists) ->
          let join =
            List.find_opt
              (fun d ->
                match Obs.Json.member "name" d with
                | Some (Obs.Json.String "join_delay_s") -> true
                | _ -> false)
              dists
          in
          (match Option.bind join (Obs.Json.member "count") with
           | Some (Obs.Json.Int 1) -> ()
           | _ -> Alcotest.fail "join_delay_s summary missing or empty")
        | _ -> Alcotest.fail "no distributions");
    Alcotest.test_case "telemetry attach does not perturb the run" `Quick (fun () ->
        let run instrument =
          let scenario = Scenario.paper_figure1 Scenario.default_spec in
          let metrics = Metrics.attach scenario.Scenario.net in
          if instrument then begin
            let reg = Obs.Registry.create scenario.Scenario.sim in
            ignore (Telemetry.attach reg scenario metrics);
            Obs.Registry.run_sampler reg ~every:0.5 ~until:90.0
          end;
          Traffic.at scenario 5.0 (fun () ->
              Scenario.subscribe_receivers scenario group);
          ignore
            (Traffic.cbr scenario (Scenario.host scenario "S") ~group ~from_t:30.0
               ~until:80.0 ~interval:0.5 ~bytes:500);
          Scenario.run_until scenario 90.0;
          ( List.map
              (fun name ->
                Host_stack.received_count (Scenario.host scenario name) ~group)
              [ "R1"; "R2"; "R3" ],
            Metrics.bytes metrics Metrics.Data_native )
        in
        Alcotest.(check (pair (list int) int))
          "identical observables" (run false) (run true))
  ]

let () =
  Alcotest.run "obs"
    [ ("json", json_tests);
      ("pcapng", pcapng_tests);
      ("capture", capture_tests);
      ("registry", registry_tests);
      ("manifest", manifest_tests);
      ("telemetry", telemetry_tests)
    ]

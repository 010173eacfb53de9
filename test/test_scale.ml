(* Tests for the scenario-scale subsystem: generator properties
   (connectivity, determinism, parallel-oversubscription equality),
   descriptor JSON round-trips, and the failing-scenario shrinker. *)

module Desc = Scale.Desc
module Gen = Scale.Gen
module Runner = Scale.Runner
module Suite = Scale.Suite
module Shrink = Scale.Shrink
module Repro = Scale.Repro

(* ---- generator properties (qcheck) ---- *)

let gen_params =
  QCheck.make
    ~print:(fun (model, routers, seed) ->
      Printf.sprintf "%s routers=%d seed=%d" (Gen.model_name model) routers seed)
    QCheck.Gen.(
      triple
        (map (fun b -> if b then `Waxman else `Pref) bool)
        (int_range 2 40) (int_range 0 9999))

let connected_property =
  QCheck.Test.make ~count:40 ~name:"every generated scenario is connected and valid"
    gen_params
    (fun (model, routers, seed) ->
      let d = Gen.scenario ~model ~routers ~seed () in
      (match Desc.validate d with
       | Ok () -> ()
       | Error e -> QCheck.Test.fail_reportf "validate: %s" e);
      Desc.connected d)

let graph_connected_property =
  QCheck.Test.make ~count:40
    ~name:"generator edge lists materialize into connected Net topologies"
    gen_params
    (fun (model, routers, seed) ->
      let d = Gen.scenario ~model ~routers ~hosts:2 ~seed () in
      let scenario =
        Mmcast.Scenario.build
          (Runner.spec_for d Mmcast.Approach.local_membership)
          ~links:d.Desc.d_links ~routers:d.Desc.d_routers ~hosts:d.Desc.d_hosts
      in
      Net.Topology.is_connected (Net.Network.topology scenario.Mmcast.Scenario.net))

let deterministic_property =
  QCheck.Test.make ~count:25 ~name:"generation is a pure function of (model, size, seed)"
    gen_params
    (fun (model, routers, seed) ->
      let a = Gen.scenario ~model ~routers ~seed () in
      let b = Gen.scenario ~model ~routers ~seed () in
      a = b && String.equal (Desc.digest a) (Desc.digest b))

let distinct_seeds_property =
  QCheck.Test.make ~count:25 ~name:"different seeds give different scenarios"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 9999))
    (fun seed ->
      let a = Gen.scenario ~routers:12 ~seed () in
      let b = Gen.scenario ~routers:12 ~seed:(seed + 1) () in
      not (String.equal (Desc.digest a) (Desc.digest b)))

let json_roundtrip_property =
  QCheck.Test.make ~count:40 ~name:"descriptor JSON round-trips field-for-field"
    gen_params
    (fun (model, routers, seed) ->
      let d = Gen.scenario ~model ~routers ~seed () in
      match Desc.of_json (Desc.to_json d) with
      | Ok d' -> d = d'
      | Error e -> QCheck.Test.fail_reportf "of_json: %s" e)

let soak_json_roundtrip_property =
  QCheck.Test.make ~count:40
    ~name:"soak descriptor JSON round-trips, windows and wire flag included"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 9999))
    (fun seed ->
      let d = Gen.soak ~seed in
      let j = Desc.to_json d in
      (match Desc.validate d with
       | Ok () -> ()
       | Error e -> QCheck.Test.fail_reportf "validate: %s" e);
      Obs.Json.member "wire_check" j = Some (Obs.Json.Bool true)
      && (d.Desc.d_windows = [] || Obs.Json.member "windows" j <> None)
      &&
      match Desc.of_json j with
      | Ok d' -> d = d'
      | Error e -> QCheck.Test.fail_reportf "of_json: %s" e)

let generator_properties =
  List.map QCheck_alcotest.to_alcotest
    [ connected_property; graph_connected_property; deterministic_property;
      distinct_seeds_property; json_roundtrip_property; soak_json_roundtrip_property ]

(* ---- descriptor unit tests ---- *)

let sample () = Gen.scenario ~routers:8 ~seed:3 ()

let rejects what d =
  match Desc.validate d with
  | Error _ -> ()
  | Ok () -> Alcotest.failf "%s accepted" what

let desc_tests =
  [ Alcotest.test_case "validate rejects unknown host in event" `Quick (fun () ->
        let d = sample () in
        let d =
          { d with Desc.d_events = [ Desc.Join { at = 10.0; host = "nope"; group = 0 } ] }
        in
        match Desc.validate d with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "expected rejection");
    Alcotest.test_case "validate rejects event after the run ends" `Quick (fun () ->
        let d = sample () in
        let d =
          { d with
            Desc.d_events =
              [ Desc.Join { at = d.Desc.d_duration +. 1.0; host = "H1"; group = 0 } ]
          }
        in
        match Desc.validate d with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "expected rejection");
    Alcotest.test_case "validate rejects loss rate above one" `Quick (fun () ->
        let d = sample () in
        let link = fst (List.hd d.Desc.d_links) in
        let d =
          { d with
            Desc.d_faults = [ Desc.Loss { link; rate = 1.5; from_t = 1.0; until = 2.0 } ]
          }
        in
        match Desc.validate d with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "expected rejection");
    Alcotest.test_case "validate rejects a malformed link prefix" `Quick (fun () ->
        let d = sample () in
        List.iter
          (fun bad ->
            let links =
              match d.Desc.d_links with
              | (name, _) :: rest -> (name, bad) :: rest
              | [] -> []
            in
            rejects ("prefix " ^ bad) { d with Desc.d_links = links })
          [ "2001:db8:100:0::/64x"; "2001:db8:100:0::"; "2001:db8:zz::/64"; "2001:db8::/96" ]);
    (* Each second entry would be built but never driven: a scenario
       resolves a name to the first of its kind. *)
    Alcotest.test_case "validate rejects two links of one name" `Quick (fun () ->
        let d = sample () in
        (* The second has a prefix of its own: only the name is shared. *)
        let extra = (fst (List.hd d.Desc.d_links), "2001:db8:fff::/64") in
        rejects "a link name used twice" { d with Desc.d_links = d.Desc.d_links @ [ extra ] });
    Alcotest.test_case "validate rejects two routers of one name" `Quick (fun () ->
        let d = sample () in
        rejects "a router listed twice"
          { d with Desc.d_routers = List.hd d.Desc.d_routers :: d.Desc.d_routers });
    Alcotest.test_case "validate rejects two hosts of one name" `Quick (fun () ->
        let d = sample () in
        rejects "a host listed twice"
          { d with Desc.d_hosts = List.hd d.Desc.d_hosts :: d.Desc.d_hosts });
    Alcotest.test_case "validate rejects one prefix on two links" `Quick (fun () ->
        let d = sample () in
        let links =
          match d.Desc.d_links with
          | (a, p) :: (b, _) :: rest -> (a, p) :: (b, p) :: rest
          | l -> l
        in
        rejects "shared prefix" { d with Desc.d_links = links });
    Alcotest.test_case "validate bounds group indices by group_addr's range" `Quick
      (fun () ->
        let d = sample () in
        let host = fst (List.hd d.Desc.d_hosts) in
        let join group = { d with Desc.d_events = [ Desc.Join { at = 1.0; host; group } ] } in
        Alcotest.(check bool) "0xfffe validates" true (Desc.validate (join 0xfffe) = Ok ());
        Alcotest.(check string) "and encodes" "ff0e::1:ffff"
          (Ipv6.Addr.to_string (Desc.group_addr 0xfffe));
        rejects "join group 0xffff" (join 0xffff);
        rejects "sender group 0x10000" { d with Desc.d_senders = [ (host, 0x10000) ] });
    Alcotest.test_case "validate rejects traffic times that are negative or not finite"
      `Quick (fun () ->
        let d = sample () in
        let tr = d.Desc.d_traffic in
        List.iter
          (fun (what, traffic) -> rejects what { d with Desc.d_traffic = traffic })
          [ ("from -5", { tr with Desc.tr_from = -5.0 });
            ("from nan", { tr with Desc.tr_from = Float.nan });
            ("until infinity", { tr with Desc.tr_until = Float.infinity });
            ("until -1", { tr with Desc.tr_until = -1.0 }) ]);
    (* Checked through validate only: at a zero interval the traffic
       source would reschedule at the same instant without end. *)
    Alcotest.test_case "validate rejects a traffic interval that is not positive" `Quick
      (fun () ->
        let d = sample () in
        let tr = d.Desc.d_traffic in
        List.iter
          (fun i -> rejects (Printf.sprintf "interval %g" i)
                      { d with Desc.d_traffic = { tr with Desc.tr_interval = i } })
          [ 0.0; -1.0; Float.nan; Float.infinity ]);
    Alcotest.test_case "validate rejects datagram sizes the codec cannot carry" `Quick
      (fun () ->
        let d = sample () in
        let tr = d.Desc.d_traffic in
        let sized b = { d with Desc.d_traffic = { tr with Desc.tr_bytes = b } } in
        rejects "bytes -1" (sized (-1));
        rejects "bytes below minimum" (sized (Ipv6.Codec.data_min_bytes - 1));
        rejects "bytes above maximum" (sized (Ipv6.Codec.data_max_bytes + 1));
        Alcotest.(check bool) "both bounds validate" true
          (Desc.validate (sized Ipv6.Codec.data_min_bytes) = Ok ()
          && Desc.validate (sized Ipv6.Codec.data_max_bytes) = Ok ()));
    Alcotest.test_case "validate rejects faults and windows starting after the run" `Quick
      (fun () ->
        let d = sample () in
        let link = fst (List.hd d.Desc.d_links) in
        let router, _, _ = List.hd d.Desc.d_routers in
        let late = d.Desc.d_duration +. 10.0 in
        List.iter
          (fun (what, faults, windows) ->
            match Desc.validate { d with Desc.d_faults = faults; d_windows = windows } with
            | Error _ -> ()
            | Ok () -> Alcotest.failf "%s starting after the run accepted" what)
          [ ("flap", [ Desc.Flap { link; down_at = late; up_at = late +. 5.0 } ], []);
            ( "loss",
              [ Desc.Loss { link; rate = 0.1; from_t = late; until = late +. 5.0 } ],
              [] );
            ("crash", [ Desc.Crash { router; at = late; recover_at = late +. 5.0 } ], []);
            ( "reorder window",
              [],
              [ Desc.Reorder
                  { link; rate = 0.1; jitter = 0.1; from_t = late; until = late +. 5.0 } ] )
          ];
        (* A repair after the end is fine: the run just ends faulted. *)
        let straddling =
          [ Desc.Flap { link; down_at = d.Desc.d_duration -. 1.0; up_at = late } ]
        in
        match Desc.validate { d with Desc.d_faults = straddling } with
        | Ok () -> ()
        | Error e -> Alcotest.failf "straddling flap rejected: %s" e);
    Alcotest.test_case "disconnection is detected" `Quick (fun () ->
        let d = sample () in
        let backbones = Desc.backbone_links d in
        Alcotest.(check bool) "generated is connected" true (Desc.connected d);
        (* Amputating every backbone link must disconnect an 8-router
           descriptor. *)
        let d' =
          List.fold_left
            (fun d l ->
              { d with
                Desc.d_links = List.remove_assoc l d.Desc.d_links;
                d_routers =
                  List.map
                    (fun (r, att, ha) ->
                      (r, List.filter (fun x -> not (String.equal x l)) att, ha))
                    d.Desc.d_routers })
            d backbones
        in
        Alcotest.(check bool) "amputated is disconnected" false (Desc.connected d'));
    Alcotest.test_case "digest is canonical and content-sensitive" `Quick (fun () ->
        let d = sample () in
        Alcotest.(check string) "stable" (Desc.digest d) (Desc.digest d);
        let d' = { d with Desc.d_seed = d.Desc.d_seed + 1 } in
        Alcotest.(check bool) "seed changes digest" false
          (String.equal (Desc.digest d) (Desc.digest d')));
    (* Address resolution picks one of two overlapping links, so a host
       homed on the longer prefix was provisioned on the wrong one and
       [Runner.run] raised. *)
    Alcotest.test_case "validate rejects a prefix containing another link's" `Quick
      (fun () ->
        let d = sample () in
        let widen bad =
          match List.rev d.Desc.d_links with
          | (name, _) :: rest -> List.rev ((name, bad) :: rest)
          | [] -> []
        in
        List.iter
          (fun bad -> rejects ("prefix " ^ bad) { d with Desc.d_links = widen bad })
          [ "2001:db8::/32"; "2000::/3"; "::/0" ];
        (* A sibling that contains no other link's prefix still validates. *)
        Alcotest.(check bool) "disjoint /48" true
          (Desc.validate { d with Desc.d_links = widen "2001:db8:ffff::/48" } = Ok ())) ]

(* ---- the Figure-1 chaos soak as a descriptor ---- *)

(* Fault marks of the soak schedules for seeds 7-26, as the former
   dedicated soak runner (Check.Soak) installed them: the generator
   must keep drawing exactly these schedules. *)
let pinned_soak_marks =
  [
    ( 7,
      [ "corrupt(L6)+0.58"; "crash(E)"; "crash(B)"; "crash(B) restart";
        "crash(E) restart"; "dup(L1)+"; "corrupt(L6)-0.58"; "dup(L1)-" ] );
    ( 8,
      [ "reorder(L5)+"; "corrupt(L4)+0.26"; "reorder(L5)-"; "corrupt(L4)-0.26";
        "flap(L2) down"; "flap(L2) up"; "crash(E)"; "flap(L5) down"; "flap(L5) up";
        "crash(E) restart" ] );
    ( 9,
      [ "corrupt(L4)+0.57"; "corrupt(L5)+0.36"; "corrupt(L4)-0.57"; "corrupt(L5)-0.36";
        "corrupt(L6)+0.48"; "corrupt(L6)-0.48" ] );
    ( 10,
      [ "loss(L2)+0.20"; "loss(L2)-0.20"; "flap(L3) down"; "corrupt(L1)+0.17";
        "flap(L3) up"; "corrupt(L1)-0.17" ] );
    ( 11,
      [ "reorder(L1)+"; "loss(L1)+0.39"; "reorder(L1)-"; "loss(L1)-0.39"; "reorder(L2)+";
        "dup(L4)+"; "loss(L1)+0.29"; "dup(L4)-"; "loss(L1)-0.29"; "reorder(L2)-" ] );
    ( 12,
      [ "flap(L5) down"; "flap(L5) up"; "loss(L1)+0.62"; "loss(L1)-0.62";
        "flap(L2) down"; "reorder(L3)+"; "flap(L2) up"; "reorder(L3)-" ] );
    ( 13,
      [ "flap(L2) down"; "flap(L2) up"; "dup(L2)+"; "dup(L2)-"; "reorder(L3)+";
        "reorder(L3)-" ] );
    ( 14,
      [ "flap(L6) down"; "flap(L6) up"; "dup(L6)+"; "dup(L6)-"; "reorder(L3)+";
        "flap(L6) down"; "flap(L6) up"; "reorder(L3)-" ] );
    ( 15,
      [ "crash(A)"; "dup(L3)+"; "dup(L3)-"; "crash(A) restart"; "crash(E)";
        "loss(L1)+0.61"; "crash(E) restart"; "loss(L1)-0.61" ] );
    ( 16,
      [ "reorder(L4)+"; "reorder(L2)+"; "flap(L3) down"; "reorder(L2)-"; "reorder(L4)-";
        "flap(L3) up"; "dup(L6)+"; "dup(L6)-" ] );
    ( 17,
      [ "flap(L3) down"; "flap(L1) down"; "loss(L4)+0.15"; "flap(L3) up"; "flap(L1) up";
        "loss(L4)-0.15" ] );
    ( 18,
      [ "dup(L2)+"; "crash(B)"; "dup(L2)-"; "crash(B) restart"; "flap(L2) down";
        "flap(L2) up" ] );
    ( 19,
      [ "crash(E)"; "crash(E) restart"; "crash(E)"; "crash(E) restart";
        "corrupt(L4)+0.47"; "crash(B)"; "corrupt(L4)-0.47"; "crash(B) restart" ] );
    ( 20,
      [ "loss(L2)+0.12"; "crash(B)"; "loss(L2)-0.12"; "crash(B) restart"; "reorder(L1)+";
        "reorder(L1)-" ] );
    ( 21,
      [ "reorder(L2)+"; "reorder(L1)+"; "reorder(L2)-"; "dup(L4)+"; "reorder(L1)-";
        "dup(L4)-"; "reorder(L6)+"; "reorder(L6)-"; "corrupt(L2)+0.19";
        "corrupt(L2)-0.19" ] );
    ( 22,
      [ "corrupt(L3)+0.40"; "dup(L6)+"; "corrupt(L3)-0.40"; "dup(L6)-"; "crash(B)";
        "crash(B) restart" ] );
    ( 23,
      [ "crash(E)"; "crash(E) restart"; "flap(L2) down"; "flap(L2) up";
        "corrupt(L2)+0.48"; "loss(L6)+0.32"; "loss(L3)+0.49"; "corrupt(L2)-0.48";
        "loss(L3)-0.49"; "loss(L6)-0.32" ] );
    ( 24,
      [ "crash(C)"; "crash(C) restart"; "dup(L2)+"; "dup(L2)-"; "flap(L1) down";
        "dup(L1)+"; "flap(L1) up"; "dup(L1)-" ] );
    ( 25,
      [ "crash(C)"; "crash(C) restart"; "dup(L4)+"; "dup(L4)-"; "loss(L1)+0.35";
        "loss(L1)-0.35" ] );
    ( 26,
      [ "dup(L3)+"; "dup(L3)-"; "flap(L1) down"; "loss(L3)+0.25"; "flap(L1) up";
        "loss(L3)-0.25" ] );
  ]

let soak_tests =
  [ Alcotest.test_case "soak schedules install the pinned fault marks" `Quick (fun () ->
        List.iter
          (fun (seed, marks) ->
            let d = Gen.soak ~seed in
            Alcotest.(check bool) (Printf.sprintf "seed %d is wire-exact" seed) true
              d.Desc.d_wire_check;
            let o = Runner.run d Mmcast.Approach.local_membership in
            Alcotest.(check (list string))
              (Printf.sprintf "seed %d marks" seed)
              marks
              (List.map (fun m -> m.Faults.fault_label) o.Runner.out_marks))
          pinned_soak_marks);
    Alcotest.test_case "window-free descriptors keep their pinned digest and keys" `Quick
      (fun () ->
        let d = Gen.scenario ~model:`Waxman ~routers:25 ~seed:42 () in
        Alcotest.(check string) "waxman-r25-s42 digest" "e5515d96bb8aa6d185a7d2197bf8e5bb"
          (Desc.digest d);
        let j = Desc.to_json d in
        Alcotest.(check bool) "no windows key" true (Obs.Json.member "windows" j = None);
        Alcotest.(check bool) "no wire_check key" true
          (Obs.Json.member "wire_check" j = None));
    Alcotest.test_case "windows pin the links and routers they name" `Quick (fun () ->
        (* The shrinker only keeps candidates that validate.  Seed 7
           corrupts L6, which only router E attaches and no host is
           homed on: with the faults and moves gone, dropping L6 is
           structurally harmless, so the window alone must forbid it. *)
        let d = Gen.soak ~seed:7 in
        Alcotest.(check bool) "a window names L6" true
          (List.exists
             (function Desc.Corrupt { link = "L6"; _ } -> true | _ -> false)
             d.Desc.d_windows);
        let without_l6 =
          { d with
            Desc.d_links = List.remove_assoc "L6" d.Desc.d_links;
            d_routers =
              List.map
                (fun (r, att, ha) ->
                  (r, List.filter (( <> ) "L6") att, List.filter (( <> ) "L6") ha))
                d.Desc.d_routers;
            d_events =
              List.filter (function Desc.Move _ -> false | _ -> true) d.Desc.d_events;
            d_faults = [] }
        in
        Alcotest.(check bool) "dropping L6 is rejected" true
          (Result.is_error (Desc.validate without_l6));
        Alcotest.(check bool) "dropping E and its stub L6 is rejected" true
          (Result.is_error
             (Desc.validate
                { without_l6 with
                  Desc.d_routers =
                    List.filter (fun (r, _, _) -> r <> "E") without_l6.Desc.d_routers }));
        Alcotest.(check bool) "and accepted once the window goes" true
          (Desc.validate { without_l6 with Desc.d_windows = [] } = Ok ()));
    Alcotest.test_case "shrinking keeps every window's link" `Slow (fun () ->
        (* The broken variant padded with a duplicate window on every
           link: the windows do not cause the violation, so ddmin drops
           them, and whatever the minimum keeps must still name links it
           has. *)
        let broken = Gen.broken ~seed:42 () in
        let padded =
          { broken with
            Desc.d_windows =
              List.map
                (fun (link, _) ->
                  Desc.Duplicate { link; rate = 0.1; from_t = 10.0; until = 20.0 })
                broken.Desc.d_links }
        in
        match Shrink.minimize ~sustain:10.0 padded Mmcast.Approach.local_membership with
        | None -> Alcotest.fail "padded broken variant did not violate"
        | Some r ->
          let m = r.Shrink.sh_min in
          Alcotest.(check bool) "minimum validates" true (Desc.validate m = Ok ());
          List.iter
            (fun w ->
              let link =
                match w with
                | Desc.Duplicate { link; _ }
                | Desc.Reorder { link; _ }
                | Desc.Corrupt { link; _ } ->
                  link
              in
              Alcotest.(check bool)
                (link ^ " survives") true
                (List.mem_assoc link m.Desc.d_links))
            m.Desc.d_windows;
          Alcotest.(check bool) "irrelevant windows are shrunk away" true
            (List.length m.Desc.d_windows < List.length padded.Desc.d_windows)) ]

(* ---- suite: oversubscription equality ---- *)

let strip_wall (o : Runner.outcome) = { o with Runner.out_wall_s = 0.0 }

let strip_row (r : Suite.row) =
  { r with Suite.r_outcomes = List.map strip_wall r.Suite.r_outcomes }

let suite_tests =
  [ Alcotest.test_case "suite rows identical sequential vs oversubscribed" `Slow
      (fun () ->
        let cells = Suite.cells ~sizes:[ 12 ] ~seeds:1 ~base_seed:7 () in
        let sequential = List.map strip_row (Suite.run ~jobs:1 cells) in
        (* 13 workers for 8 tasks: heavier oversubscription than any
           sane CLI invocation. *)
        let oversubscribed = List.map strip_row (Suite.run ~jobs:13 cells) in
        Alcotest.(check bool) "rows equal" true (sequential = oversubscribed);
        Alcotest.(check int) "zero violations" 0 (Suite.violation_total sequential)) ]

(* ---- shrinker ---- *)

let shrink_tests =
  [ Alcotest.test_case "broken variant shrinks to a minimal repro that replays" `Slow
      (fun () ->
        let broken = Gen.broken ~seed:42 () in
        let approach = Mmcast.Approach.local_membership in
        match Shrink.minimize ~sustain:10.0 broken approach with
        | None -> Alcotest.fail "broken variant did not violate"
        | Some r ->
          let m = r.Shrink.sh_min in
          (* The known bound for this seeded bug: one join event, no
             faults, and no more topology than the sender-to-receiver
             path. *)
          Alcotest.(check bool) "at most 1 event" true (List.length m.Desc.d_events <= 1);
          Alcotest.(check int) "no faults" 0 (List.length m.Desc.d_faults);
          Alcotest.(check bool) "at most 3 routers" true
            (List.length m.Desc.d_routers <= 3);
          Alcotest.(check bool) "smaller than the input" true
            (List.length m.Desc.d_events + List.length m.Desc.d_faults
             + List.length m.Desc.d_routers
            < List.length broken.Desc.d_events + List.length broken.Desc.d_faults
              + List.length broken.Desc.d_routers);
          (* Re-running the minimum must still violate the same
             invariant. *)
          let repro = Repro.of_shrink r ~sustain:10.0 in
          Alcotest.(check bool) "minimum replays its violation" true
            (Repro.replay repro <> []));
    Alcotest.test_case "healthy scenario yields no shrink result" `Slow (fun () ->
        let d = Gen.scenario ~routers:6 ~seed:5 () in
        match Shrink.minimize ~budget:10 ~sustain:10.0 d Mmcast.Approach.local_membership with
        | None -> ()
        | Some _ -> Alcotest.fail "healthy scenario reported a violation") ]

(* ---- repro bundle round-trip ---- *)

let repro_tests =
  [ Alcotest.test_case "repro bundle writes, loads and replays" `Slow (fun () ->
        let broken = Gen.broken ~seed:42 () in
        let approach = Mmcast.Approach.local_membership in
        match Shrink.minimize ~sustain:10.0 broken approach with
        | None -> Alcotest.fail "broken variant did not violate"
        | Some r ->
          let repro = Repro.of_shrink r ~sustain:10.0 in
          let dir =
            Filename.concat (Filename.get_temp_dir_name ())
              (Printf.sprintf "mmcast_repro_%d" (Unix.getpid ()))
          in
          let path = Repro.write repro ~dir in
          (match Repro.load path with
           | Error e -> Alcotest.fail ("load: " ^ e)
           | Ok loaded ->
             Alcotest.(check string) "descriptor survives the disk round-trip"
               (Desc.digest repro.Repro.rp_desc)
               (Desc.digest loaded.Repro.rp_desc);
             Alcotest.(check bool) "loaded bundle replays" true
               (Repro.replay loaded <> []));
          Sys.remove path) ]

(* ---- the paper's experiments as descriptors ---- *)

let paper_tests =
  [ Alcotest.test_case "every paper descriptor validates, round-trips and runs clean"
      `Slow (fun () ->
        let runs = Scale.Paper.descriptors () in
        Alcotest.(check bool) "covers the paper's runs" true (List.length runs > 100);
        List.iter
          (fun ((d : Desc.t), (spec : Mmcast.Scenario.spec)) ->
            let approach = spec.Mmcast.Scenario.approach in
            let where = Printf.sprintf "%s, approach %d" d.Desc.d_name
                (Mmcast.Approach.number approach) in
            (match Desc.validate d with
             | Ok () -> ()
             | Error e -> Alcotest.failf "%s: %s" where e);
            (match Desc.of_json (Desc.to_json d) with
             | Ok d' ->
               Alcotest.(check string) (where ^ ": digest") (Desc.digest d) (Desc.digest d')
             | Error e -> Alcotest.failf "%s: of_json: %s" where e);
            let o = Runner.run ~spec d approach in
            List.iter
              (fun v -> Alcotest.failf "%s: %a" where Check.Monitor.pp_violation v)
              o.Runner.out_violations)
          runs);
    Alcotest.test_case "a paper run that violates an invariant fails, naming it" `Quick
      (fun () ->
        (* R3 leaves at 40 s, so L3 and L4 are pruned, and re-joins at
           60 s: only a Graft brings the stream back before the prune
           expires, and the graft-disabled twin has none. *)
        let d ~graft =
          { (Scale.Paper.figure1 ~name:"broken-graft" ~until:350.0 ~duration:360.0
               [ Desc.Leave { at = 40.0; host = "R3"; group = 0 };
                 Desc.Join { at = 60.0; host = "R3"; group = 0 } ])
            with
            Desc.d_disable_graft = not graft }
        in
        let run d = Scale.Paper.run d Mmcast.Approach.local_membership (fun _ _ () -> ()) in
        run (d ~graft:true);
        match run (d ~graft:false) with
        | () -> Alcotest.fail "the graft-disabled run passed its verdict"
        | exception Scale.Paper.Violation msg ->
          let prefix = "broken-graft, approach 1: black-hole at " in
          Alcotest.(check string) "names the run and the violation" prefix
            (String.sub msg 0 (min (String.length msg) (String.length prefix)));
          Alcotest.(check bool) "one line" false (String.contains msg '\n'));
    Alcotest.test_case "the spec argument keeps the descriptor's seed and graft knob" `Quick
      (fun () ->
        let d =
          { (Scale.Paper.figure1 ~seed:7 ~name:"spec" ~until:40.0 ~duration:40.0 []) with
            Desc.d_disable_graft = true }
        in
        let seen = ref None in
        ignore
          (Runner.run ~spec:Mmcast.Scenario.default_spec
             ~inspect:(fun sc _ -> seen := Some sc.Mmcast.Scenario.spec)
             d Mmcast.Approach.bidirectional_tunnel);
        let spec = Option.get !seen in
        Alcotest.(check int) "seed" 7 spec.Mmcast.Scenario.seed;
        Alcotest.(check bool) "graft off" false
          spec.Mmcast.Scenario.pim.Pimdm.Pim_config.enable_graft;
        Alcotest.(check int) "approach" 2
          (Mmcast.Approach.number spec.Mmcast.Scenario.approach);
        Alcotest.(check (float 0.0)) "paper MLD timers, not the tightened ones"
          Mld.Mld_config.default.Mld.Mld_config.query_interval
          spec.Mmcast.Scenario.mld.Mld.Mld_config.query_interval) ]

let mobility_tests =
  [ Alcotest.test_case "script schedules each hop" `Quick (fun () ->
        (* A descriptor's moves are the mobility script: each hop
           happens at its instant. *)
        let d =
          Scale.Paper.figure1 ~name:"script" ~until:30.0 ~duration:30.0
            [ Desc.Move { at = 10.0; host = "R3"; link = "L6" };
              Desc.Move { at = 20.0; host = "R3"; link = "L1" } ]
        in
        let seen = ref [] in
        ignore
          (Runner.run ~spec:Mmcast.Scenario.default_spec
             ~inspect:(fun sc _ ->
               let r3 = Mmcast.Scenario.host sc "R3" in
               let topo = Net.Network.topology sc.Mmcast.Scenario.net in
               List.iter
                 (fun t ->
                   Mmcast.Traffic.at sc t (fun () ->
                       seen :=
                         Net.Topology.link_name topo (Mmcast.Host_stack.current_link r3)
                         :: !seen))
                 [ 5.0; 15.0; 25.0 ])
             d Mmcast.Approach.local_membership);
        Alcotest.(check (list string)) "home, then L6, then L1" [ "L4"; "L6"; "L1" ]
          (List.rev !seen)) ]

let () =
  Alcotest.run "scale"
    [ ("generator properties", generator_properties);
      ("descriptor", desc_tests);
      ("soak", soak_tests);
      ("suite", suite_tests);
      ("shrink", shrink_tests);
      ("repro", repro_tests);
      ("paper", paper_tests);
      ("mobility", mobility_tests) ]

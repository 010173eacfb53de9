(* Schedule exploration: strategies, descriptor round-trips, replay
   determinism, schedule minimization, and pinned repro bundles.

   The central property is the replay contract: a serialized schedule
   descriptor, reloaded and replayed, reproduces the byte-identical
   trace digest of the run that recorded it. *)

module Approach = Mmcast.Approach
module Json = Obs.Json
module Runner = Scale.Runner
module Schedule = Explore.Schedule
module Strategy = Explore.Strategy
module Explorer = Explore.Explorer

let broken = Scale.Gen.broken ~seed:42 ()
let clean = Scale.Gen.clean ~seed:42 ()
let a1 = Approach.local_membership
let sustain = 10.0

(* ---- strategies ---- *)

let strategy_tests =
  [ Alcotest.test_case "of_name round-trips every built-in" `Quick (fun () ->
        List.iter
          (fun n ->
            match Strategy.of_name n with
            | Some s -> Alcotest.(check string) n n (Strategy.name s)
            | None -> Alcotest.failf "of_name %S" n)
          Strategy.all_names;
        Alcotest.(check bool)
          "unknown rejected" true
          (Strategy.of_name "bogus" = None));
    Alcotest.test_case "dfs enumerates a bounded binary tree in order" `Quick
      (fun () ->
        (* Two binary choice points per run: the bounded space is
           exactly {00, 01, 10, 11}, canonical first, then None. *)
        let st = Strategy.dfs ~max_depth:2 ~max_branch:2 () in
        let runs = ref [] in
        let rec loop n =
          if n > 8 then Alcotest.fail "dfs did not exhaust"
          else
            match Strategy.next st ~seed:0 ~run_index:n with
            | None -> ()
            | Some d ->
              let a = d ~kind:Engine.Sim.Order ~arity:2 in
              let b = d ~kind:Engine.Sim.Order ~arity:2 in
              runs := (a, b) :: !runs;
              Strategy.note_result st ~distinct:true;
              loop (n + 1)
        in
        loop 0;
        Alcotest.(check (list (pair int int)))
          "in-order enumeration"
          [ (0, 0); (0, 1); (1, 0); (1, 1) ]
          (List.rev !runs));
    Alcotest.test_case "dfs max_branch caps explored alternatives" `Quick
      (fun () ->
        (* One choice point of arity 5, branch bound 2: only
           alternatives 0 and 1 are visited. *)
        let st = Strategy.dfs ~max_depth:4 ~max_branch:2 () in
        let runs = ref [] in
        let rec loop n =
          if n > 8 then Alcotest.fail "dfs did not exhaust"
          else
            match Strategy.next st ~seed:0 ~run_index:n with
            | None -> ()
            | Some d ->
              runs := d ~kind:Engine.Sim.Order ~arity:5 :: !runs;
              Strategy.note_result st ~distinct:true;
              loop (n + 1)
        in
        loop 0;
        Alcotest.(check (list int)) "branch bound" [ 0; 1 ] (List.rev !runs));
    Alcotest.test_case "dfs prunes below a revisited trace digest" `Quick
      (fun () ->
        (* The canonical run revisits a known digest: nothing beyond
           the (empty) forced prefix is worth extending, so the search
           is immediately exhausted. *)
        let st = Strategy.dfs ~max_depth:4 ~max_branch:2 () in
        (match Strategy.next st ~seed:0 ~run_index:0 with
        | None -> Alcotest.fail "first run must exist"
        | Some d ->
          ignore (d ~kind:Engine.Sim.Order ~arity:2);
          ignore (d ~kind:Engine.Sim.Order ~arity:2);
          ignore (d ~kind:Engine.Sim.Order ~arity:2));
        Strategy.note_result st ~distinct:false;
        Alcotest.(check bool)
          "exhausted" true
          (Strategy.next st ~seed:0 ~run_index:1 = None));
    Alcotest.test_case "walk and pct deciders are per-run deterministic" `Quick
      (fun () ->
        List.iter
          (fun st ->
            let draw () =
              match Strategy.next st ~seed:9 ~run_index:3 with
              | None -> Alcotest.fail "randomized strategies never exhaust"
              | Some d ->
                List.init 20 (fun i ->
                    d ~kind:Engine.Sim.Order ~arity:(1 + (i mod 4)))
            in
            Alcotest.(check (list int))
              (Strategy.name st) (draw ()) (draw ()))
          [ Strategy.walk (); Strategy.pct () ]);
    Alcotest.test_case "deciders stay within arity" `Quick (fun () ->
        List.iter
          (fun st ->
            match Strategy.next st ~seed:123 ~run_index:7 with
            | None -> Alcotest.fail "never exhausts"
            | Some d ->
              for arity = 1 to 6 do
                let c = d ~kind:Engine.Sim.Delay ~arity in
                if c < 0 || c >= arity then
                  Alcotest.failf "%s chose %d of %d" (Strategy.name st) c arity
              done)
          [ Strategy.walk (); Strategy.pct () ])
  ]

(* ---- schedule descriptors ---- *)

let schedule_of_choices choices =
  { Schedule.sc_strategy = "walk";
    sc_seed = 1;
    sc_index = 0;
    sc_length = 64;
    sc_sched =
      { Runner.sched_choices = choices;
        sched_delay_slots = 3;
        sched_delay_max = 0.05 } }

let schedule_tests =
  [ Alcotest.test_case "to_json/of_json round-trip" `Quick (fun () ->
        let sc = schedule_of_choices [ (3, 1); (17, 2) ] in
        match Schedule.of_json (Schedule.to_json sc) with
        | Error e -> Alcotest.fail e
        | Ok sc' ->
          Alcotest.(check string)
            "digest stable" (Schedule.digest sc) (Schedule.digest sc');
          Alcotest.(check bool) "equal" true (sc = sc'));
    Alcotest.test_case "of_json rejects malformed descriptors" `Quick
      (fun () ->
        let base = Schedule.to_json (schedule_of_choices [ (3, 1) ]) in
        let mutate f =
          match base with
          | Json.Obj fields -> Json.Obj (f fields)
          | _ -> Alcotest.fail "descriptor is an object"
        in
        let set k v fields =
          List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) fields
        in
        List.iter
          (fun (what, doc) ->
            match Schedule.of_json doc with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %s" what)
          [ ("wrong schema", mutate (set "schema" (Json.String "nope/9")));
            ("zero delay slots", mutate (set "delay_slots" (Json.Int 0)));
            ( "canonical choice",
              mutate
                (set "choices" (Json.List [ Json.List [ Json.Int 3; Json.Int 0 ] ])) );
            ( "descending positions",
              mutate
                (set "choices"
                   (Json.List
                      [ Json.List [ Json.Int 9; Json.Int 1 ];
                        Json.List [ Json.Int 3; Json.Int 1 ] ])) )
          ]);
    Alcotest.test_case "canonical schedule is recognized" `Quick (fun () ->
        Alcotest.(check bool) "canonical" true (Schedule.is_canonical Schedule.canonical);
        Alcotest.(check bool)
          "non-canonical" false
          (Schedule.is_canonical (schedule_of_choices [ (0, 1) ])))
  ]

(* ---- replay determinism ---- *)

let replay_tests =
  [ Alcotest.test_case "pinned deviated schedule replays deterministically"
      `Quick (fun () ->
        let sched =
          { Runner.sched_choices = [ (5, 1); (40, 2) ];
            sched_delay_slots = 3;
            sched_delay_max = 0.05 }
        in
        let r1 = Runner.run ~sustain ~sched broken a1 in
        let r2 = Runner.run ~sustain ~sched broken a1 in
        Alcotest.(check string)
          "byte-identical digest" r1.Runner.out_digest r2.Runner.out_digest;
        Alcotest.(check bool)
          "broken oracle still violated" true
          (r1.Runner.out_violations <> []));
    Alcotest.test_case "deviations actually change the interleaving" `Quick
      (fun () ->
        let canonical = Runner.run ~sustain broken a1 in
        let deviated =
          Runner.run ~sustain
            ~sched:
              { Runner.sched_choices = [ (5, 2); (6, 2); (7, 2); (8, 2) ];
                sched_delay_slots = 3;
                sched_delay_max = 0.05 }
            broken a1
        in
        Alcotest.(check bool)
          "digests differ" true
          (canonical.Runner.out_digest <> deviated.Runner.out_digest));
    Alcotest.test_case "all-zero schedule equals the canonical run" `Quick
      (fun () ->
        (* Installing the choice-point machinery without deviating from
           it must not perturb the simulation: slot 0 of every choice
           is the canonical resolution. *)
        let plain = Runner.run ~sustain broken a1 in
        let zeroed =
          Runner.run ~sustain
            ~sched:
              { Runner.sched_choices = [];
                sched_delay_slots = 3;
                sched_delay_max = 0.05 }
            broken a1
        in
        Alcotest.(check string)
          "same digest" plain.Runner.out_digest zeroed.Runner.out_digest)
  ]

let replay_properties =
  let round_trip =
    QCheck.Test.make
      ~name:"serialized schedule reloads and replays byte-identically" ~count:12
      QCheck.(int_range 0 10_000)
      (fun seed ->
        let strat = Strategy.walk () in
        let o =
          Explorer.explore ~budget:1 ~sustain ~seed ~strategy:strat broken a1
        in
        match o.Explorer.ex_violation with
        | None -> QCheck.Test.fail_report "broken oracle must violate"
        | Some (sc, _) -> (
          let text = Json.to_string (Schedule.to_json sc) in
          match Result.bind (Json.of_string text) Schedule.of_json with
          | Error e -> QCheck.Test.fail_report e
          | Ok sc' ->
            let replay sched =
              (Runner.run ~sustain ~sched:sched.Schedule.sc_sched broken a1)
                .Runner.out_digest
            in
            String.equal (replay sc) (replay sc')
            && String.equal (Schedule.digest sc) (Schedule.digest sc')))
  in
  List.map QCheck_alcotest.to_alcotest [ round_trip ]

(* ---- exploration driver ---- *)

let explorer_tests =
  [ Alcotest.test_case "finds the seeded graft violation immediately" `Quick
      (fun () ->
        let o =
          Explorer.explore ~budget:25 ~sustain ~strategy:(Strategy.pct ())
            broken a1
        in
        match o.Explorer.ex_violation with
        | None -> Alcotest.fail "violation not found"
        | Some (sc, v) ->
          Alcotest.(check string)
            "invariant" "prune-graft"
            (Check.Monitor.invariant_name v.Check.Monitor.v_invariant);
          Alcotest.(check bool)
            "stops at the first violating run" true
            (o.Explorer.ex_runs = sc.Schedule.sc_index + 1));
    Alcotest.test_case "outcomes are deterministic" `Quick (fun () ->
        let go () =
          let o =
            Explorer.explore ~budget:12 ~sustain ~seed:5
              ~stop_on_violation:false
              ~strategy:(Strategy.walk ())
              clean a1
          in
          ( o.Explorer.ex_runs,
            o.Explorer.ex_distinct,
            Option.map (fun (sc, _) -> Schedule.digest sc) o.Explorer.ex_violation )
        in
        let r1, d1, v1 = go () in
        let r2, d2, v2 = go () in
        Alcotest.(check int) "runs" r1 r2;
        Alcotest.(check int) "distinct" d1 d2;
        Alcotest.(check (option string)) "violation" v1 v2);
    Alcotest.test_case "clean twin survives a short pct budget" `Quick
      (fun () ->
        let o =
          Explorer.explore ~budget:15 ~sustain ~strategy:(Strategy.pct ())
            clean a1
        in
        Alcotest.(check bool)
          "no violation" true
          (o.Explorer.ex_violation = None);
        Alcotest.(check int) "full budget used" 15 o.Explorer.ex_runs);
    Alcotest.test_case "progress telemetry carries schema and rows" `Quick
      (fun () ->
        let o =
          Explorer.explore ~budget:3 ~sustain ~strategy:(Strategy.walk ())
            clean a1
        in
        match Explorer.progress_to_json o with
        | Json.Obj fields ->
          Alcotest.(check (option string))
            "schema"
            (Some "mmcast-explore-progress/1")
            (match List.assoc_opt "schema" fields with
            | Some (Json.String s) -> Some s
            | _ -> None);
          Alcotest.(check bool)
            "has rows" true
            (match List.assoc_opt "rows" fields with
            | Some (Json.List (_ :: _)) -> true
            | _ -> false)
        | _ -> Alcotest.fail "progress must be an object")
  ]

(* ---- schedule minimization + repro bundles ---- *)

let shrink_tests =
  [ Alcotest.test_case "minimize_schedule strips spurious deviations" `Quick
      (fun () ->
        let sched =
          { Runner.sched_choices = [ (5, 1); (9, 2); (23, 1) ];
            sched_delay_slots = 3;
            sched_delay_max = 0.05 }
        in
        match Scale.Shrink.minimize_schedule ~sustain broken a1 sched with
        | None -> Alcotest.fail "must reproduce"
        | Some ss ->
          (* The broken oracle fires under the canonical schedule, so
             every deviation is spurious and ddmin strips them all. *)
          Alcotest.(check (list (pair int int)))
            "canonical" []
            ss.Scale.Shrink.ss_sched.Runner.sched_choices;
          Alcotest.(check string)
            "invariant" "prune-graft"
            (Check.Monitor.invariant_name ss.Scale.Shrink.ss_invariant);
          let repro = Scale.Repro.of_schedule_shrink ss ~desc:broken ~sustain in
          Alcotest.(check bool)
            "bundle replays" true
            (Scale.Repro.replay repro <> []));
    Alcotest.test_case "minimize_schedule refuses a passing schedule" `Quick
      (fun () ->
        Alcotest.(check bool)
          "clean scenario yields None" true
          (Scale.Shrink.minimize_schedule ~sustain clean a1
             Runner.canonical_schedule
          = None))
  ]

(* A repro/2 bundle captured from `mmcast_sim explore` on the seeded
   broken variant, pinned verbatim (schedule deviations added) so
   format drift that would orphan previously-written bundles fails
   here.  The v1 test below derives the legacy form from the same
   document. *)
let pinned_bundle =
  {x|{
  "schema": "mmcast-repro/2",
  "approach": 1,
  "invariant": "prune-graft",
  "sustain_s": 10.0,
  "schedule": {
    "choices": [[5, 1], [40, 2]],
    "delay_slots": 3,
    "delay_max_s": 0.05
  },
  "detail": "prune-graft on N2: pruned upstream although downstream interfaces want the traffic",
  "scenario": {
    "schema": "mmcast-scenario/1",
    "name": "broken-graft-r5-s42",
    "seed": 42,
    "links": [
      {"name": "S0", "prefix": "2001:db8:100:0::/64"},
      {"name": "S1", "prefix": "2001:db8:100:1::/64"},
      {"name": "S2", "prefix": "2001:db8:100:2::/64"},
      {"name": "S3", "prefix": "2001:db8:100:3::/64"},
      {"name": "S4", "prefix": "2001:db8:100:4::/64"},
      {"name": "B0", "prefix": "2001:db8:200:0::/64"},
      {"name": "B1", "prefix": "2001:db8:200:1::/64"},
      {"name": "B2", "prefix": "2001:db8:200:2::/64"},
      {"name": "B3", "prefix": "2001:db8:200:3::/64"}
    ],
    "routers": [
      {"name": "N0", "attached": ["S0", "B0", "B1", "B2"], "ha": ["S0"]},
      {"name": "N1", "attached": ["S1", "B0", "B3"], "ha": ["S1"]},
      {"name": "N2", "attached": ["S2", "B3"], "ha": ["S2"]},
      {"name": "N3", "attached": ["S3", "B1"], "ha": ["S3"]},
      {"name": "N4", "attached": ["S4", "B2"], "ha": ["S4"]}
    ],
    "hosts": [
      {"name": "H0", "home": "S1"},
      {"name": "H1", "home": "S2"},
      {"name": "H2", "home": "S2"}
    ],
    "senders": [{"host": "H0", "group": 0}],
    "traffic": {"from_s": 5.0, "until_s": 55.0, "interval_s": 0.5, "bytes": 256},
    "events": [
      {"kind": "move", "at_s": 20.0, "host": "H2", "link": "S1"},
      {"kind": "join", "at_s": 30.0, "host": "H1", "group": 0},
      {"kind": "join", "at_s": 32.0, "host": "H2", "group": 0},
      {"kind": "leave", "at_s": 40.0, "host": "H2", "group": 0}
    ],
    "faults": [
      {"kind": "loss", "link": "B0", "rate": 0.15, "from_s": 22.0, "until_s": 28.0},
      {"kind": "flap", "link": "B0", "down_s": 44.0, "up_s": 46.0}
    ],
    "duration_s": 60.0,
    "disable_graft": true
  },
  "scenario_digest": "784f2b853cb0109d7b56217f8d201fdf",
  "trace": []
}|x}

let repro_tests =
  [ Alcotest.test_case "pinned v2 bundle loads and still violates" `Quick
      (fun () ->
        match Result.bind (Json.of_string pinned_bundle) Scale.Repro.of_json with
        | Error e -> Alcotest.fail e
        | Ok r ->
          Alcotest.(check (list (pair int int)))
            "schedule preserved"
            [ (5, 1); (40, 2) ]
            r.Scale.Repro.rp_sched.Runner.sched_choices;
          let vs = Scale.Repro.replay r in
          Alcotest.(check bool) "violates" true (vs <> []);
          Alcotest.(check string)
            "same invariant" "prune-graft"
            (Check.Monitor.invariant_name
               (List.hd vs).Check.Monitor.v_invariant));
    Alcotest.test_case "legacy v1 bundle loads with a canonical schedule"
      `Quick (fun () ->
        let legacy =
          match Json.of_string pinned_bundle with
          | Ok (Json.Obj fields) ->
            Json.Obj
              (List.filter_map
                 (fun (k, v) ->
                   match k with
                   | "schema" -> Some (k, Json.String "mmcast-repro/1")
                   | "schedule" -> None
                   | _ -> Some (k, v))
                 fields)
          | _ -> Alcotest.fail "pinned bundle must parse"
        in
        match Scale.Repro.of_json legacy with
        | Error e -> Alcotest.fail e
        | Ok r ->
          Alcotest.(check (list (pair int int)))
            "canonical schedule" []
            r.Scale.Repro.rp_sched.Runner.sched_choices;
          Alcotest.(check bool)
            "still violates" true
            (Scale.Repro.replay r <> []));
    Alcotest.test_case "bundles with out-of-contract choice lists are rejected" `Quick
      (fun () ->
        (* Replay assumes ascending positions and non-zero choices
           ({!Runner.decider_of_choices}); bundles and schedule
           descriptors share one validating codec. *)
        let with_choices choices =
          match Json.of_string pinned_bundle with
          | Ok (Json.Obj fields) ->
            Json.Obj
              (List.map
                 (fun (k, v) ->
                   match (k, v) with
                   | "schedule", Json.Obj sf ->
                     ( k,
                       Json.Obj
                         (List.map
                            (fun (k', v') ->
                              if k' = "choices" then
                                ( k',
                                  Json.List
                                    (List.map
                                       (fun (i, c) -> Json.List [ Json.Int i; Json.Int c ])
                                       choices) )
                              else (k', v'))
                            sf) )
                   | _ -> (k, v))
                 fields)
          | _ -> Alcotest.fail "pinned bundle must parse"
        in
        List.iter
          (fun choices ->
            let what =
              String.concat ","
                (List.map (fun (i, c) -> Printf.sprintf "[%d,%d]" i c) choices)
            in
            match Scale.Repro.of_json (with_choices choices) with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "repro accepted [%s]" what)
          [ [ (-1, 2) ]; [ (0, 0) ]; [ (3, 1); (2, 1) ]; [ (3, 1); (3, 2) ] ];
        match Scale.Repro.of_json (with_choices [ (5, 1); (40, 2) ]) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "bundles and progress land in a missing nested directory"
      `Quick (fun () ->
        let root =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "mmcast_nested_%d" (Unix.getpid ()))
        in
        let dir = Filename.concat (Filename.concat root "a") "b" in
        let repro =
          match Result.bind (Json.of_string pinned_bundle) Scale.Repro.of_json with
          | Ok r -> r
          | Error e -> Alcotest.fail e
        in
        let o =
          Explorer.explore ~budget:2 ~sustain ~strategy:(Strategy.walk ()) clean a1
        in
        let written =
          [ Scale.Repro.write repro ~dir; Explorer.write_progress o ~dir ]
        in
        List.iter
          (fun path ->
            Alcotest.(check bool) (path ^ " parses") true
              (Result.is_ok (Json.of_file path)))
          written;
        (* Writing again into the now-existing directory is fine too. *)
        ignore (Explorer.write_progress o ~dir);
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        List.iter Sys.rmdir [ dir; Filename.dirname dir; root ])
  ]

let () =
  Alcotest.run "explore"
    [ ("strategy", strategy_tests);
      ("schedule", schedule_tests);
      ("replay", replay_tests @ replay_properties);
      ("explorer", explorer_tests);
      ("shrink", shrink_tests);
      ("repro", repro_tests)
    ]

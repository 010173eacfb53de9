(* The Domain pool, and the determinism contract of the sweeps built on
   it: whatever [jobs] is, results arrive in input order and every row
   is field-for-field identical to a sequential run.

   MMCAST_TEST_JOBS overrides the fan-out width used here (default 4 —
   deliberately more domains than most CI hosts have cores, so the
   ordering guarantees are exercised under oversubscription too). *)

open Mmcast

let test_jobs =
  match Option.bind (Sys.getenv_opt "MMCAST_TEST_JOBS") int_of_string_opt with
  | Some j when j >= 1 -> j
  | Some _ | None -> 4

let pool_tests =
  [ Alcotest.test_case "default_jobs is positive" `Quick (fun () ->
        Alcotest.(check bool) "at least 1" true (Parallel.default_jobs () >= 1));
    Alcotest.test_case "map preserves input order" `Quick (fun () ->
        let items = List.init 100 Fun.id in
        Alcotest.(check (list int))
          "same as List.map"
          (List.map (fun x -> x * x) items)
          (Parallel.map ~jobs:test_jobs (fun x -> x * x) items));
    Alcotest.test_case "map with more jobs than items" `Quick (fun () ->
        Alcotest.(check (list int))
          "order kept" [ 2; 4; 6 ]
          (Parallel.map ~jobs:8 (fun x -> 2 * x) [ 1; 2; 3 ]));
    Alcotest.test_case "map jobs=1 is plain List.map" `Quick (fun () ->
        (* Sequential path must not spawn domains or reorder. *)
        let trail = ref [] in
        let out =
          Parallel.map ~jobs:1
            (fun x ->
              trail := x :: !trail;
              x + 1)
            [ 1; 2; 3 ]
        in
        Alcotest.(check (list int)) "results" [ 2; 3; 4 ] out;
        Alcotest.(check (list int)) "left-to-right" [ 1; 2; 3 ] (List.rev !trail));
    Alcotest.test_case "map on empty list" `Quick (fun () ->
        Alcotest.(check (list int)) "sequential" []
          (Parallel.map ~jobs:1 (fun x -> x) []);
        Alcotest.(check (list int)) "parallel" []
          (Parallel.map ~jobs:test_jobs (fun x -> x) []));
    Alcotest.test_case "first exception in input order wins" `Quick (fun () ->
        let f i = if i = 1 || i = 3 then failwith (string_of_int i) else i in
        Alcotest.check_raises "earliest failing index" (Failure "1") (fun () ->
            ignore (Parallel.map ~jobs:test_jobs f [ 0; 1; 2; 3; 4 ])));
    Alcotest.test_case "pool runs several batches" `Quick (fun () ->
        Parallel.with_pool ~jobs:test_jobs (fun pool ->
            Alcotest.(check int) "width" test_jobs (Parallel.jobs pool);
            let batch n =
              Parallel.run pool (List.init n (fun i () -> i * 10))
            in
            Alcotest.(check (list int)) "batch 1" [ 0; 10; 20 ] (batch 3);
            Alcotest.(check (list int)) "batch 2"
              (List.init 50 (fun i -> i * 10))
              (batch 50);
            Alcotest.(check (list int)) "empty batch" [] (Parallel.run pool [])));
    Alcotest.test_case "run after shutdown is rejected" `Quick (fun () ->
        let pool = Parallel.create ~jobs:2 () in
        Parallel.shutdown pool;
        Alcotest.check_raises "invalid"
          (Invalid_argument "Parallel.run: pool is shut down") (fun () ->
            ignore (Parallel.run pool [ (fun () -> ()) ])))
  ]

(* Field-for-field comparison with a useful failure message, rather than
   one opaque structural-equality bool over the whole row list. *)

let check_recovery_rows ~what expected actual =
  Alcotest.(check int)
    (what ^ ": row count")
    (List.length expected) (List.length actual);
  List.iter2
    (fun (e : Scale.Paper.recovery_row) (a : Scale.Paper.recovery_row) ->
      let where =
        Printf.sprintf "%s: %s @ loss %.2f" what
          (Approach.name e.Scale.Paper.rec_approach)
          e.loss_rate
      in
      Alcotest.(check bool)
        (where ^ ": approach") true
        (e.rec_approach = a.Scale.Paper.rec_approach);
      Alcotest.(check (float 0.0)) (where ^ ": loss_rate") e.loss_rate a.loss_rate;
      let e = e.recovery and a = a.recovery in
      Alcotest.(check (option (float 0.0)))
        (where ^ ": mean_recovery_s") e.mean_recovery_s a.Recovery.mean_recovery_s;
      Alcotest.(check (option (float 0.0)))
        (where ^ ": max_recovery_s") e.max_recovery_s a.max_recovery_s;
      Alcotest.(check int) (where ^ ": unrecovered") e.unrecovered a.unrecovered;
      Alcotest.(check bool) (where ^ ": samples") true (e.samples = a.samples))
    expected actual

let determinism_tests =
  [ Alcotest.test_case "fault_recovery rows identical at any jobs" `Slow (fun () ->
        let loss_rates = [ 0.0; 0.1 ] in
        let approaches =
          [ Approach.local_membership; Approach.bidirectional_tunnel ]
        in
        let sequential =
          Scale.Paper.fault_recovery ~loss_rates ~approaches ~jobs:1 ()
        in
        let parallel =
          Scale.Paper.fault_recovery ~loss_rates ~approaches ~jobs:test_jobs ()
        in
        check_recovery_rows
          ~what:(Printf.sprintf "jobs=%d vs jobs=1" test_jobs)
          sequential parallel);
    Alcotest.test_case "flap_recovery rows identical at any jobs" `Slow (fun () ->
        let seq = Scale.Paper.flap_recovery ~flap_counts:[ 1; 2 ] ~jobs:1 () in
        let par =
          Scale.Paper.flap_recovery ~flap_counts:[ 1; 2 ] ~jobs:test_jobs ()
        in
        Alcotest.(check bool) "field-for-field equal" true (seq = par));
    (* Table 1 under both MLD configurations, as `mmcast_sim paper
       table1` prints it. *)
    Alcotest.test_case "run_all rows identical at any jobs" `Slow (fun () ->
        List.iter
          (fun (what, spec) ->
            let seq = Scale.Paper.table1 ~spec ~jobs:1 () in
            let par = Scale.Paper.table1 ~spec ~jobs:test_jobs () in
            Alcotest.(check bool) (what ^ ": field-for-field equal") true (seq = par);
            Alcotest.(check int) (what ^ ": all four approaches")
              (List.length Approach.all) (List.length par))
          [ ("unsolicited Reports", Scenario.default_spec);
            ("RFC-default MLD", Scale.Paper.rfc_mld) ]) ]

let () =
  Alcotest.run "parallel"
    [ ("pool", pool_tests); ("determinism", determinism_tests) ]

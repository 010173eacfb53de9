(* Golden-trace regression tests.

   One canonical run per approach on the paper's Figure 1 network:
   receivers subscribe at t=5, S streams CBR from t=30 to t=110, R3
   moves from Link 4 to Link 6 at t=60, and the run ends at t=120.
   The full event trace is digested ({!Engine.Trace.digest}) and
   pinned here, so any change to protocol behaviour — message order,
   timer schedule, forwarding decisions — fails loudly and has to be
   re-pinned deliberately.

   When a pin goes stale the failure message prints the new digest;
   update the table below only after confirming the behaviour change
   is intended. *)

open Mmcast

let golden =
  [ (Approach.local_membership, "7ecebb7af20ac591bd4fce9737f021ef");
    (Approach.bidirectional_tunnel, "1dc33aa5ad971910262a4c856ac0cb01");
    (Approach.tunnel_to_home_agent, "31c85789d8f678f4be952e82187b903d");
    (Approach.tunnel_from_home_agent, "bb3a07d1e1630a6aa01b2ff078763103") ]

(* The run itself lives in [Figure1_golden], shared with [test_engine]. *)
let canonical_run ?wire_check ?capture ?lineage approach =
  let trace = Figure1_golden.canonical_trace ?wire_check ?capture ?lineage approach in
  (Engine.Trace.digest trace, Engine.Trace.count trace)

let golden_tests =
  List.map
    (fun (approach, expected) ->
      Alcotest.test_case (Approach.name approach) `Quick (fun () ->
          let actual, events = canonical_run approach in
          if not (String.equal actual expected) then
            Alcotest.failf
              "trace digest for %s drifted:@ pinned %s@ actual %s (%d records).@ If \
               the behaviour change is intended, re-pin the digest in \
               test_golden.ml."
              (Approach.name approach) expected actual events))
    golden

let stability_tests =
  [ Alcotest.test_case "same approach twice gives the same digest" `Quick (fun () ->
        let a, _ = canonical_run Approach.local_membership in
        let b, _ = canonical_run Approach.local_membership in
        Alcotest.(check string) "deterministic" a b);
    Alcotest.test_case "approaches are pairwise distinct" `Quick (fun () ->
        let pinned = List.map snd golden in
        Alcotest.(check int) "four distinct traces" 4
          (List.length (List.sort_uniq String.compare pinned))) ]

(* The wire-exact path and the capture observer must be pure
   observers: running the same scenario through the interned
   encode/decode round trip (with capture forcing the shared frame at
   transmit time) has to digest identically to the structural run.
   Because the plain digests are pinned above, equality here pins the
   shared-frame path to the same behaviour. *)
let perturbation_tests =
  List.map
    (fun (approach, pinned) ->
      Alcotest.test_case
        (Printf.sprintf "wire-check+capture non-perturbing (%s)"
           (Approach.name approach))
        `Quick
        (fun () ->
          let wire, _ = canonical_run ~wire_check:true approach in
          Alcotest.(check string) "wire-check digest" pinned wire;
          let both, _ = canonical_run ~wire_check:true ~capture:true approach in
          Alcotest.(check string) "wire-check+capture digest" pinned both))
    golden

(* Lineage collection promises the Sim.enable_profiling discipline:
   off costs nothing, on perturbs nothing.  The second half of that is
   pinned here — tracing on, the golden digests must be byte-identical,
   even with the wire-exact path active. *)
let lineage_purity_tests =
  List.map
    (fun (approach, pinned) ->
      Alcotest.test_case
        (Printf.sprintf "tracing non-perturbing (%s)" (Approach.name approach))
        `Quick
        (fun () ->
          let traced, _ = canonical_run ~lineage:true approach in
          Alcotest.(check string) "tracing-on digest" pinned traced;
          let all, _ =
            canonical_run ~lineage:true ~wire_check:true ~capture:true approach
          in
          Alcotest.(check string) "tracing+wire-check+capture digest" pinned all))
    golden

let () =
  Alcotest.run "golden"
    [ ("figure1 trace digests", golden_tests);
      ("stability", stability_tests);
      ("observer purity", perturbation_tests);
      ("lineage purity", lineage_purity_tests) ]

(* A lecturer multicasts slides/audio from a laptop while walking
   between rooms (links).  This is the paper's mobile-sender problem:
   with local sending every room change makes PIM-DM build a brand-new
   source-rooted tree (flooding the whole network) and abandons the old
   one; with a reverse tunnel to the home agent the tree never moves.

   Run with: dune exec examples/mobile_lecturer.exe *)

open Mmcast

let group = Scenario.group

let run approach ~rooms =
  let spec = { Scenario.default_spec with Scenario.approach } in
  let scenario = Scenario.paper_figure1 spec in
  let metrics = Metrics.attach scenario.Scenario.net in
  let lecturer = Scenario.host scenario "S" in
  Traffic.at scenario 5.0 (fun () -> Scenario.subscribe_receivers scenario group);
  ignore
    (Traffic.cbr scenario lecturer ~group ~from_t:30.0 ~until:330.0 ~interval:0.25
       ~bytes:800);
  List.iter
    (fun (at, room) ->
      Traffic.at scenario at (fun () ->
          Host_stack.move_to lecturer (Scenario.link scenario room)))
    rooms;
  Scenario.run_until scenario 360.0;
  let audience_rx =
    List.map
      (fun name -> Host_stack.received_count (Scenario.host scenario name) ~group)
      [ "R1"; "R2"; "R3" ]
  in
  let sg_states =
    List.fold_left
      (fun acc (_, r) -> acc + List.length (Pimdm.Pim_router.entries (Router_stack.pim r)))
      0 scenario.Scenario.routers
  in
  let counts = Metrics.control_counts metrics in
  (audience_rx, sg_states, counts.Metrics.asserts, counts.Metrics.grafts,
   Metrics.bytes metrics Metrics.Tunnel_overhead,
   Host_stack.data_sent lecturer)

let () =
  let rooms = [ (90.0, "L2"); (180.0, "L6"); (270.0, "L3") ] in
  print_endline "Mobile lecturer: the multicast *sender* walks through 3 rooms mid-talk\n";
  Printf.printf "%-34s %18s %9s %8s %7s %10s\n" "approach" "audience rx" "SG states"
    "asserts" "grafts" "tunnel[B]";
  List.iter
    (fun approach ->
      let rx, sg, asserts, grafts, tunnel, sent = run approach ~rooms in
      Printf.printf "%d. %-31s %5d/%5d/%5d %9d %8d %7d %10d   (sent %d)\n"
        (Approach.number approach) (Approach.name approach)
        (List.nth rx 0) (List.nth rx 1) (List.nth rx 2) sg asserts grafts tunnel sent)
    Approach.all;
  print_endline
    "\nExpected shape (paper 4.2.2/4.3): local sending (approaches 1, 4) leaves one\n\
     (S,G) tree per visited room in every router and triggers Assert processes;\n\
     reverse tunnelling (2, 3) keeps a single tree rooted at the home link at the\n\
     cost of encapsulation on the lecturer-to-home-agent path."

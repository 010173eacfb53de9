(* A commuter watches a multicast video stream on a mobile device that
   hands off between links every 45 seconds.  The example compares the
   paper's four delivery approaches on the metrics a streaming user
   cares about: datagrams lost around handoffs, worst-case rebuffering
   gap (join delay), duplicates, and the network cost (tunnel overhead
   and extra signalling).

   Run with: dune exec examples/video_stream_handoff.exe *)

open Mmcast

let group = Scenario.group
let stream_bytes = 1200 (* a video-sized datagram *)
let stream_interval = 0.04 (* 25 fps *)

type result = {
  approach : Approach.t;
  delivered : int;
  lost : int;
  dups : int;
  worst_gap_s : float;
  tunnel_bytes : int;
  signalling_bytes : int;
}

let run ~unsolicited approach =
  let mld =
    { Mld.Mld_config.default with
      unsolicited_report_count = (if unsolicited then 2 else 0) }
  in
  let spec = { Scenario.default_spec with Scenario.approach; mld } in
  let scenario = Scenario.paper_figure1 spec in
  let metrics = Metrics.attach scenario.Scenario.net in
  let viewer = Scenario.host scenario "R3" in
  let sender = Scenario.host scenario "S" in
  Traffic.at scenario 5.0 (fun () -> Host_stack.subscribe viewer group);
  ignore
    (Traffic.cbr scenario sender ~group ~from_t:30.0 ~until:330.0
       ~interval:stream_interval ~bytes:stream_bytes);
  (* The commute: L4 -> L6 -> L1 -> L2 -> back home to L4, one hop
     every 45 s. *)
  List.iter
    (fun (at, link) ->
      Traffic.at scenario at (fun () ->
          Host_stack.move_to viewer (Scenario.link scenario link)))
    [ (60.0, "L6"); (105.0, "L1"); (150.0, "L2"); (195.0, "L4") ];
  (* Track the worst inter-arrival gap while the stream is hot. *)
  let last_rx = ref None in
  let worst_gap = ref 0.0 in
  Host_stack.set_on_data viewer (fun ~group:_ _ ->
      let now = Engine.Time.seconds (Engine.Sim.now scenario.Scenario.sim) in
      (match !last_rx with
       | Some prev -> if now -. prev > !worst_gap then worst_gap := now -. prev
       | None -> ());
      last_rx := Some now);
  Scenario.run_until scenario 360.0;
  let delivered = Host_stack.received_count viewer ~group in
  { approach;
    delivered;
    lost = Host_stack.data_sent sender - delivered;
    dups = Host_stack.duplicate_count viewer ~group;
    worst_gap_s = !worst_gap;
    tunnel_bytes = Metrics.bytes metrics Metrics.Tunnel_overhead;
    signalling_bytes = Metrics.signalling_bytes metrics }

let show ~unsolicited title =
  Printf.printf "%s\n" title;
  Printf.printf "%-34s %9s %6s %5s %9s %10s %10s\n" "approach" "delivered" "lost" "dup"
    "gap[s]" "tunnel[B]" "signal[B]";
  List.iter
    (fun approach ->
      let r = run ~unsolicited approach in
      Printf.printf "%d. %-31s %9d %6d %5d %9.2f %10d %10d\n"
        (Approach.number r.approach) (Approach.name r.approach) r.delivered r.lost r.dups
        r.worst_gap_s r.tunnel_bytes r.signalling_bytes)
    Approach.all;
  print_newline ()

let () =
  print_endline
    "Mobile video streaming: R3 hands off 4 times during a 25 fps multicast stream";
  print_endline "(7500 datagrams offered; losses happen around handoffs)\n";
  show ~unsolicited:false
    "RFC-default hosts (wait for the next MLD Query after each handoff):";
  show ~unsolicited:true "With the paper's fix (unsolicited Reports on join):";
  print_endline
    "Expected shape (paper 4.3): with default timers, local-membership approaches\n\
     (1 and 3) drop the stream for tens of seconds per handoff while tunnel\n\
     delivery (2 and 4) barely loses a frame, at the price of tunnel overhead.\n\
     Unsolicited Reports close most of the gap, exactly as section 4.4 argues."

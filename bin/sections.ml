(* The sections of `mmcast_sim paper`: one per figure and table of the
   paper, plus the ablations of DESIGN.md's design decisions, the
   extensions, churn and fault recovery.  Every run is a Scale.Paper
   descriptor through Scale.Runner, with the invariant monitor
   attached. *)

open Mmcast
module Desc = Scale.Desc
module Paper = Scale.Paper

(* What a section may use besides stdout: the sweep fan-out width, and
   [report ~kind name fields], which writes the JSON object [fields]
   (plus a run manifest) as report [name] and returns its path. *)
type ctx = {
  jobs : int;
  report : kind:string -> string -> (string * Obs.Json.t) list -> string;
}

let section title =
  Printf.printf "\n============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "============================================================\n"

let pp_fig (r : Paper.fig_result) =
  Printf.printf "%s\n\n%s\n" r.Paper.description r.tree;
  List.iter (fun (k, v) -> Printf.printf "  %-28s %s\n" k v) r.notes

(* ---- figures ---- *)

let fig1 _ =
  section "Figure 1: initial multicast distribution tree";
  pp_fig (Paper.fig1 ());
  print_endline "\npaper: the tree connects Sender S (Link 1) to receivers on L1, L2, L4"

let fig2 _ =
  section "Figure 2: mobile receiver, local group membership (R3: L4 -> L6)";
  pp_fig (Paper.fig2 ());
  print_endline "\npaper: tree grafts onto Link 6; Router D keeps forwarding onto Link 4";
  print_endline "until the MLD listener interval (260 s) expires -- the leave delay.";
  print_endline "\nsame handoff when hosts wait for the next Query (no unsolicited Reports):";
  List.iter
    (fun (k, v) -> Printf.printf "  %-28s %s\n" k v)
    (Paper.fig2 ~spec:Paper.rfc_mld ()).Paper.notes

let fig3 _ =
  section "Figure 3: mobile receiver via home-agent tunnel (R3: L4 -> L1)";
  pp_fig (Paper.fig3 ());
  print_endline "\npaper: the distribution tree is unchanged; Router D (home agent)";
  print_endline "delivers through the tunnel, so there is no significant join delay."

let fig4 _ =
  section "Figure 4: mobile sender via reverse tunnel (S: L1 -> L6)";
  pp_fig (Paper.fig4 ());
  print_endline "\npaper: datagrams are tunnelled to home agent A and distributed over";
  print_endline "the existing tree; no new source-rooted tree is flooded."

let fig5 _ =
  section "Figure 5: Multicast Group List Sub-Option wire format";
  print_string (Paper.fig5 ())

(* ---- table 1 / section 4.3 ---- *)

let table1 { jobs; _ } =
  section "Table 1 + section 4.3: the four approaches, quantitatively";
  print_endline "MLD with the paper's recommended unsolicited Reports:";
  Paper.pp_table Format.std_formatter (Paper.table1 ~jobs ());
  print_endline "";
  print_endline "MLD with RFC-default behaviour (hosts wait for the next Query):";
  Paper.pp_table Format.std_formatter (Paper.table1 ~spec:Paper.rfc_mld ~jobs ());
  print_endline
    "\npaper's expected shape: approach 1 routes optimally but suffers join delay\n\
     and tree rebuilds; approach 2 has no join delay but doubles loads and\n\
     stretch; approach 3 mixes the good halves; approach 4 the bad halves."

let convergence { jobs; _ } =
  section "Section 4.3.2: two mobile members share one foreign link";
  Printf.printf "  %-34s %16s %10s %18s\n" "approach" "L6 data [B]" "L6 pkts"
    "per-receiver rx";
  List.iter
    (fun (r : Paper.convergence_row) ->
      Printf.printf "  %-34s %16d %10d %18s\n"
        (Approach.name r.Paper.conv_approach)
        r.foreign_link_data_bytes r.foreign_link_packets
        (String.concat "/" (List.map string_of_int r.per_receiver_rx)))
    (Paper.tunnel_convergence ~jobs ());
  print_endline
    "\npaper: 'the same multicast datagrams will be sent via unicast to each group\n\
     member on the foreign link' -- tunnel delivery doubles the shared link's\n\
     traffic for two members (and scales linearly with more), where local\n\
     membership keeps a single multicast copy."

(* ---- section 4.4 ---- *)

(* The sweep table, shifted right by [indent] columns with its join
   column widened to match ([mmcast_sim sweep] prints it unshifted). *)
let pp_sweep ?(indent = 0) rows =
  let pad = String.make indent ' ' in
  Printf.printf "%s%8s %*s %10s %12s %10s\n" pad "TQuery" (22 + indent)
    "join mean/min/max [s]" "leave [s]" "wasted [B]" "MLD [B/s]";
  List.iter
    (fun (r : Paper.sweep_row) ->
      Printf.printf "%s%8.0f %*.1f/%5.1f/%6.1f %10.1f %12.0f %10.2f\n" pad r.Paper.tquery_s
        (8 + indent) r.join_mean_s r.join_min_s r.join_max_s r.leave_mean_s
        r.wasted_mean_bytes r.mld_bytes_per_s)
    rows

let timer_sweep { jobs; _ } =
  section "Section 4.4: MLD Query Interval sweep (mobile receiver handoffs)";
  print_endline "hosts wait for the next Query:";
  pp_sweep ~indent:2 (Paper.timer_sweep ~trials:8 ~unsolicited:false ~jobs ());
  print_endline "\nwith unsolicited Reports (paper's recommendation):";
  pp_sweep ~indent:2 (Paper.timer_sweep ~trials:8 ~unsolicited:true ~jobs ());
  print_endline
    "\npaper's expected shape: join and leave delays fall roughly linearly with\n\
     TQuery while the Query/Report signalling cost grows as 1/TQuery and stays\n\
     tiny compared to the data bandwidth saved on stale branches."

(* ---- section 4.3.1 ---- *)

let sender_overhead { jobs; _ } =
  section "Section 4.3.1: mobile sender overheads vs mobility rate (local sending)";
  let print spec =
    Printf.printf "  %6s %8s %14s %10s %16s\n" "moves" "asserts" "flood on L5 [B]"
      "SG states" "total data [B]";
    List.iter
      (fun (r : Paper.overhead_row) ->
        Printf.printf "  %6d %8d %14d %10d %16d\n" r.Paper.moves r.asserts
          r.flood_bytes_l5 r.sg_states r.total_data_bytes)
      (Paper.sender_overhead ~spec ~jobs ())
  in
  print Scenario.default_spec;
  print_endline "\nsame sweep with a reverse tunnel (approach 3): movement costs vanish";
  print { Scenario.default_spec with approach = Approach.tunnel_to_home_agent }

(* ---- ablations (DESIGN.md section 4) ---- *)

let group = Scenario.group
let move ~at host link = Desc.Move { at; host; link }

(* R3's join delay after its handoff, or "-" if it never re-received. *)
let r3_join sc =
  Option.fold ~none:"-" ~some:(Printf.sprintf "%.2f")
    (Metrics.join_delay (Scenario.host sc "R3") ~group)

(* A host's worst inter-arrival gap after [after] (once its handoff
   settled), tracked from the hook. *)
let worst_gap scenario host ~after =
  let last_rx = ref None in
  let worst = ref 0.0 in
  Host_stack.set_on_data (Scenario.host scenario host) (fun ~group:_ _ ->
      let now = Engine.Time.seconds (Engine.Sim.now scenario.Scenario.sim) in
      (match !last_rx with
       | Some prev when now > after -> if now -. prev > !worst then worst := now -. prev
       | Some _ | None -> ());
      last_rx := Some now);
  fun () -> !worst

let ablation_prune_delay () =
  section "Ablation: Prune Delay Time TPruneDel (join-override window)";
  (* The interesting regime is TPruneDel smaller than the downstream
     routers' Join-override jitter (fixed here at up to 1.5 s): the
     prune then takes effect before the override lands, and receivers
     behind the overriding router see a delivery gap. *)
  Printf.printf "  %12s %8s %8s %10s %18s\n" "TPruneDel[s]" "prunes" "joins"
    "R3 rx" "worst R3 gap [s]";
  let d =
    Paper.figure1 ~name:"prune-delay" ~until:340.0 ~duration:350.0 [ move ~at:60.0 "R3" "L6" ]
  in
  List.iter
    (fun prune_delay ->
      let pim =
        { Pimdm.Pim_config.default with prune_delay; join_override_max = 1.5 }
      in
      let spec = { Scenario.default_spec with pim } in
      Paper.run ~spec d spec.Scenario.approach (fun sc m ->
          let r3 = Scenario.host sc "R3" in
          let rx_at_move = ref 0 in
          Traffic.at sc 60.0 (fun () -> rx_at_move := Host_stack.received_count r3 ~group);
          let gap = worst_gap sc "R3" ~after:70.0 in
          fun () ->
            let counts = Metrics.control_counts m in
            Printf.printf "  %12.2f %8d %8d %10d %18.2f\n" prune_delay counts.Metrics.prunes
              counts.Metrics.joins
              (Host_stack.received_count r3 ~group - !rx_at_move)
              (gap ())))
    [ 0.05; 0.5; 3.0; 10.0 ];
  print_endline
    "\nTPruneDel trades prune reaction speed against the window other routers\n\
     get to keep a shared link alive; a too-small value lets D's prune of L3\n\
     briefly cut off R3 (behind E) until E's overriding Join lands."

let ablation_ha_mode () =
  section "Ablation: home-agent group signalling (4.3.2's two solutions)";
  Printf.printf "  %-28s %10s %10s %10s %8s\n" "mode" "join[s]" "mld[B]" "mipv6[B]" "rx";
  let d =
    Paper.figure1 ~name:"ha-mode" ~until:320.0 ~duration:330.0 [ move ~at:60.0 "R3" "L6" ]
  in
  List.iter
    (fun (name, ha_mode) ->
      let spec = { Scenario.default_spec with ha_mode } in
      Paper.run ~spec d Approach.bidirectional_tunnel (fun sc m () ->
          let r3 = Scenario.host sc "R3" in
          Printf.printf "  %-28s %10s %10d %10d %8d\n" name (r3_join sc)
            (Metrics.bytes m Metrics.Mld_signalling)
            (Metrics.bytes m Metrics.Mipv6_signalling)
            (Host_stack.received_count r3 ~group)))
    [ ("extended Binding Update", Router_stack.Ha_bu_groups);
      ("MLD through the tunnel", Router_stack.Ha_pim_tunnel_mld) ];
  print_endline
    "\nBoth solutions deliver equivalently; the Multicast Group List Sub-Option\n\
     replaces per-group MLD chatter over the tunnel with one option in the\n\
     Binding Updates the host sends anyway (the paper's proposal)."

let ablation_leaf_flood () =
  section "Ablation: flooding the first datagram onto empty leaf links";
  Printf.printf "  %-12s %14s %14s\n" "leaf flood" "L5 data [B]" "L6 data [B]";
  let d = Paper.figure1 ~name:"leaf-flood" ~until:100.0 ~duration:100.0 [] in
  List.iter
    (fun flood ->
      let pim = { Pimdm.Pim_config.default with flood_to_leaf_links = flood } in
      let spec = { Scenario.default_spec with pim } in
      Paper.run ~spec d spec.Scenario.approach (fun sc m () ->
          Printf.printf "  %-12b %14d %14d\n" flood
            (Metrics.data_bytes_on m (Scenario.link sc "L5"))
            (Metrics.data_bytes_on m (Scenario.link sc "L6"))))
    [ true; false ];
  print_endline
    "\ntrue reproduces the paper's 'flooded to all links of the network';\n\
     false is the draft's oif-list rule (empty leaves never see data)."

let ablations _ =
  ablation_prune_delay ();
  ablation_ha_mode ();
  ablation_leaf_flood ()

(* ---- extensions ---- *)

let ext_state_refresh () =
  section "Extension: PIM-DM State Refresh (re-flood suppression)";
  (* A two-router chain: B's link L3 has no member, so its branch is
     pruned and, without State Refresh, re-flooded every 210 s. *)
  let d =
    { (Paper.figure1 ~name:"state-refresh" ~until:700.0 ~duration:700.0 []) with
      Desc.d_links =
        [ ("L1", "2001:db8:1::/64"); ("L2", "2001:db8:2::/64"); ("L3", "2001:db8:3::/64") ];
      d_routers = [ ("A", [ "L1"; "L2" ], [ "L1" ]); ("B", [ "L2"; "L3" ], []) ];
      d_hosts = [ ("S", "L1"); ("R1", "L1") ];
      d_events = [ Desc.Join { at = 5.0; host = "R1"; group = 0 } ] }
  in
  Printf.printf "  %-14s %16s %12s %10s %8s\n" "state refresh" "pruned-link data" "pim bytes"
    "refreshes" "prunes";
  List.iter
    (fun flag ->
      let pim =
        { Pimdm.Pim_config.default with
          state_refresh_interval = (if flag then Some 60.0 else None) }
      in
      let spec = { Scenario.default_spec with Scenario.pim } in
      Paper.run ~spec d spec.Scenario.approach (fun sc m () ->
          let c = Metrics.control_counts m in
          Printf.printf "  %-14b %16d %12d %10d %8d\n" flag
            (Metrics.data_bytes_on m (Scenario.link sc "L2"))
            (Metrics.bytes m Metrics.Pim_signalling)
            c.Metrics.state_refreshes c.Metrics.prunes))
    [ false; true ];
  print_endline
    "\nWithout the extension, a pruned branch re-floods every 210 s (the dense-mode\n\
     cycle the paper describes); State Refresh keeps the prune alive for a few\n\
     bytes of periodic signalling.  670 s run, 2 Hz stream."

let ext_ra_sweep () =
  section "Extension: router-advertisement movement detection";
  Printf.printf "  %-14s %12s %14s\n" "RA interval" "join [s]" "nd [B/s]";
  let d =
    { (Paper.figure1 ~name:"ra-sweep" ~until:100.0 ~duration:100.0
         [ move ~at:40.0 "R3" "L6" ]) with
      Desc.d_traffic =
        { Desc.tr_from = 10.0; tr_until = 100.0; tr_interval = 0.25; tr_bytes = 200 } }
  in
  List.iter
    (fun interval ->
      let spec = { Scenario.default_spec with ra_interval = Some interval } in
      Paper.run ~spec d spec.Scenario.approach (fun sc m () ->
          Printf.printf "  %-14.2f %12s %14.1f\n" interval (r3_join sc)
            (float_of_int (Metrics.bytes m Metrics.Nd_signalling) /. 100.0)))
    [ 0.2; 0.5; 1.0; 2.0 ];
  print_endline
    "\nThe movement-detection component of the join delay tracks the advertisement\n\
     interval; the paper models it as an abstract constant (default 100 ms)."

let ext_failover () =
  section "Extension: home-agent redundancy (paper's cited further work)";
  let spec = { Scenario.default_spec with ha_failover = true } in
  (* Two home agents share L1; the active one, HA1, crashes at 60 s and
     recovers at 120 s while MH, away on L2, receives through it. *)
  let d =
    { (Paper.figure1 ~name:"ha-failover" ~until:200.0 ~duration:200.0 []) with
      Desc.d_links =
        [ ("L1", "2001:db8:1::/64"); ("LB", "2001:db8:b::/64"); ("L2", "2001:db8:2::/64") ];
      d_routers =
        [ ("HA1", [ "L1"; "LB" ], [ "L1" ]);
          ("HA2", [ "L1"; "LB" ], [ "L1" ]);
          ("R", [ "LB"; "L2" ], [ "L2" ]) ];
      d_hosts = [ ("S", "L2"); ("MH", "L1") ];
      d_traffic =
        { Desc.tr_from = 20.0; tr_until = 200.0; tr_interval = 0.1; tr_bytes = 400 };
      d_events =
        [ Desc.Join { at = 5.0; host = "MH"; group = 0 }; move ~at:30.0 "MH" "L2" ];
      d_faults = [ Desc.Crash { router = "HA1"; at = 60.0; recover_at = 120.0 } ] }
  in
  Paper.run ~spec d Approach.bidirectional_tunnel (fun sc _ ->
      let gap = worst_gap sc "MH" ~after:40.0 in
      fun () ->
        Printf.printf
          "  10 Hz stream via bi-directional tunnel; active home agent HA1 crashes at \
           t=60,\n\
          \  recovers at t=120 (heartbeats every 1 s, takeover after 3.5 missed).\n\n\
          \  delivered %d / %d datagrams; service outage (worst gap) %.1f s;\n\
          \  bindings resynchronised on both takeover and fail-back.\n"
          (Host_stack.received_count (Scenario.host sc "MH") ~group)
          (Host_stack.data_sent (Scenario.host sc "S"))
          (gap ()))

let extensions _ =
  ext_state_refresh ();
  ext_ra_sweep ();
  ext_failover ()

(* Six receivers random-walking an 8-router random tree (a Scale.Gen
   preferential-attachment graph with one attachment per router): each
   leaves its stub after an exponential dwell (mean 80 s) from t=60 to
   any other link, until t=550. *)
let churn_desc () =
  let d =
    Scale.Gen.scenario ~model:`Pref ~m:1 ~routers:8 ~hosts:7 ~mobiles:0 ~churn:0 ~faults:0
      ~seed:77 ()
  in
  let links = List.map fst d.Desc.d_links in
  let rng = Engine.Rng.create 5 in
  let walk (host, home) =
    let rec hop t here acc =
      let t = t +. Engine.Rng.exponential rng 80.0 in
      if t >= 550.0 then List.rev acc
      else
        let there =
          Engine.Rng.pick rng (Array.of_list (List.filter (fun l -> l <> here) links))
        in
        hop t there (move ~at:t host there :: acc)
    in
    Desc.Join { at = 0.0; host; group = 0 } :: hop 60.0 home []
  in
  let receivers = List.tl d.Desc.d_hosts in
  { d with
    Desc.d_traffic =
      { Desc.tr_from = 30.0; tr_until = 600.0; tr_interval = 0.5; tr_bytes = 400 };
    d_events =
      List.stable_sort
        (fun a b -> compare (Desc.event_time a) (Desc.event_time b))
        (List.concat_map walk receivers);
    d_duration = 620.0 }

let churn _ =
  section "Stress: many roaming receivers (random-walk churn, all four approaches)";
  Printf.printf "  %-34s %9s %9s %7s %10s %12s\n" "approach" "delivered" "offered"
    "moves" "signal [B]" "tunnel [B]";
  let d = churn_desc () in
  let receivers = List.tl d.Desc.d_hosts in
  let moves =
    List.length
      (List.filter (function Desc.Move _ -> true | _ -> false) d.Desc.d_events)
  in
  List.iter
    (fun approach ->
      Paper.run d approach (fun sc m () ->
          let delivered =
            List.fold_left
              (fun acc (h, _) ->
                acc + Host_stack.received_count (Scenario.host sc h) ~group)
              0 receivers
          in
          Printf.printf "  %-34s %9d %9d %7d %10d %12d\n" (Approach.name approach) delivered
            (Host_stack.data_sent (Scenario.host sc "H0") * List.length receivers)
            moves (Metrics.signalling_bytes m)
            (Metrics.bytes m Metrics.Tunnel_overhead)))
    Approach.all;
  print_endline
    "\n6 receivers random-walking an 8-router tree (a handoff roughly every 80 s\n\
     each) for 10 simulated minutes of a 2 Hz stream.  Every approach loses only\n\
     a handful of datagrams to handoffs; tunnel delivery pays encapsulation\n\
     bytes for it, local membership with unsolicited Reports does not."

(* ---- fault injection: reconvergence after failures ---- *)

let faults { jobs; report } =
  section "Faults: reconvergence after link flap, per approach and loss rate";
  let loss_rates = [ 0.0; 0.05; 0.15 ] in
  let rows = Paper.fault_recovery ~loss_rates ~jobs () in
  let flaps = Paper.flap_recovery ~jobs () in
  let opt_s = function
    | Some v -> Printf.sprintf "%.3f" v
    | None -> "-"
  in
  Printf.printf "  %-34s %6s %12s %12s %6s\n" "approach" "loss" "mean rec [s]"
    "max rec [s]" "unrec";
  List.iter
    (fun { Paper.rec_approach; loss_rate; recovery = r } ->
      Printf.printf "  %-34s %6.2f %12s %12s %3d/%-3d\n" (Approach.name rec_approach) loss_rate
        (opt_s r.Recovery.mean_recovery_s) (opt_s r.max_recovery_s) r.unrecovered
        (List.length r.samples))
    rows;
  Printf.printf "\n  L3 flap count sweep (10 s outages, fixed approach):\n";
  Printf.printf "  %6s %12s %12s %6s\n" "flaps" "mean rec [s]" "max rec [s]" "unrec";
  List.iter
    (fun (count, (r : Recovery.report)) ->
      Printf.printf "  %6d %12s %12s %6d\n" count (opt_s r.mean_recovery_s)
        (opt_s r.max_recovery_s) r.unrecovered)
    flaps;
  (* Machine-readable report alongside the table. *)
  let stats (r : Recovery.report) =
    [ ("mean_recovery_s", Obs.Json.opt Obs.Json.float r.mean_recovery_s);
      ("max_recovery_s", Obs.Json.opt Obs.Json.float r.max_recovery_s);
      ("unrecovered", Obs.Json.Int r.unrecovered) ]
  in
  let row_json { Paper.rec_approach; loss_rate; recovery = r } =
    Obs.Json.Obj
      ([ ("approach", Obs.Json.String (Approach.name rec_approach));
         ("loss_rate", Obs.Json.float loss_rate) ]
      @ stats r
      @ [ ("samples", Obs.Json.Int (List.length r.samples)) ])
  in
  let flap_json (count, r) = Obs.Json.Obj (("flaps", Obs.Json.Int count) :: stats r) in
  let path =
    report ~kind:"fault-recovery" "fault_recovery.json"
      [ ("schema", Obs.Json.String "mmcast-fault-recovery/1");
        ("seed", Obs.Json.Int Scenario.default_spec.Scenario.seed);
        ( "flap_schedule",
          Obs.Json.Obj
            [ ("link", Obs.Json.String "L3");
              ("down_at", Obs.Json.float 80.0);
              ("up_at", Obs.Json.float 100.0) ] );
        ("loss_rates", Obs.Json.List (List.map Obs.Json.float loss_rates));
        ("recovery", Obs.Json.List (List.map row_json rows));
        ("flap_sweep", Obs.Json.List (List.map flap_json flaps)) ]
  in
  Printf.printf "\n  JSON report written to %s\n" path;
  print_endline
    "\nPIM-DM's flood-and-prune state survives short outages, so lossless recovery\n\
     is one inter-packet gap; ambient loss stretches it to the Graft-retry /\n\
     binding-update backoff timescale, and tunnelled delivery pays the extra\n\
     unicast leg."

let all =
  [ ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("table1", table1);
    ("convergence", convergence);
    ("timer_sweep", timer_sweep);
    ("sender_overhead", sender_overhead);
    ("ablations", ablations);
    ("extensions", extensions);
    ("churn", churn);
    ("faults", faults) ]

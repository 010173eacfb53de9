(* Reproduction harness: one section per table/figure of the paper,
   plus ablations for the design decisions called out in DESIGN.md,
   fault recovery, Bechamel microbenchmarks of the substrate and the
   perf section that bench/check_perf.py gates.  Every section but perf
   runs its scenarios as descriptors through Scale.Runner, with the
   invariant monitor attached; perf times the bare engine on a
   hand-scripted Figure 1.  The scale matrix, chaos soak and schedule
   exploration belong to mmcast_sim's scale, check and explore
   commands.

   Run everything:        dune exec bench/main.exe
   Run one section:       dune exec bench/main.exe -- fig2 table1 micro
   Multicore sweeps:      dune exec bench/main.exe -- table1 --jobs 4
   Perf trajectory:       dune exec bench/main.exe -- perf   (writes BENCH_perf.json)

   --jobs N fans sweep-shaped sections over N domains (default: all
   cores; output is byte-identical to --jobs 1).  --quick shrinks the
   perf section's measurement budget for CI smoke runs. *)

open Mmcast
module Desc = Scale.Desc
module Paper = Scale.Paper

(* Sweep fan-out width; sections read it when they call the drivers. *)
let jobs_setting = ref (Parallel.default_jobs ())
let quick_setting = ref false

(* Where the machine-readable reports land (--telemetry DIR; default:
   the working directory, the historical behaviour). *)
let telemetry_dir = ref "."
let capture_setting : string option ref = ref None
let outputs : (string * string) list ref = ref []

(* Every report embeds a manifest (tool, argv, git describe, wall time)
   so a checked-in BENCH_*.json is enough to re-run what produced it. *)
let report_manifest () =
  let m = Obs.Manifest.create ~tool:"bench" () in
  Obs.Manifest.add_int m "jobs" !jobs_setting;
  Obs.Manifest.add m "quick" (Obs.Json.Bool !quick_setting);
  m

let write_report ~kind name doc =
  Obs.Json.ensure_dir !telemetry_dir;
  let path = Filename.concat !telemetry_dir name in
  Obs.Json.write_file ~pretty:true ~path doc;
  outputs := (kind, path) :: !outputs;
  path

let section title =
  Printf.printf "\n============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "============================================================\n"

let pp_fig (r : Paper.fig_result) =
  Printf.printf "%s\n\n%s\n" r.Paper.description r.tree;
  List.iter (fun (k, v) -> Printf.printf "  %-28s %s\n" k v) r.notes

(* ---- figures ---- *)

let fig1 () =
  section "Figure 1: initial multicast distribution tree";
  pp_fig (Paper.fig1 ());
  print_endline "\npaper: the tree connects Sender S (Link 1) to receivers on L1, L2, L4"

let fig2 () =
  section "Figure 2: mobile receiver, local group membership (R3: L4 -> L6)";
  pp_fig (Paper.fig2 ());
  print_endline "\npaper: tree grafts onto Link 6; Router D keeps forwarding onto Link 4";
  print_endline "until the MLD listener interval (260 s) expires -- the leave delay.";
  print_endline "\nsame handoff when hosts wait for the next Query (no unsolicited Reports):";
  List.iter
    (fun (k, v) -> Printf.printf "  %-28s %s\n" k v)
    (Paper.fig2 ~spec:Paper.rfc_mld ()).Paper.notes

let fig3 () =
  section "Figure 3: mobile receiver via home-agent tunnel (R3: L4 -> L1)";
  pp_fig (Paper.fig3 ());
  print_endline "\npaper: the distribution tree is unchanged; Router D (home agent)";
  print_endline "delivers through the tunnel, so there is no significant join delay."

let fig4 () =
  section "Figure 4: mobile sender via reverse tunnel (S: L1 -> L6)";
  pp_fig (Paper.fig4 ());
  print_endline "\npaper: datagrams are tunnelled to home agent A and distributed over";
  print_endline "the existing tree; no new source-rooted tree is flooded."

let fig5 () =
  section "Figure 5: Multicast Group List Sub-Option wire format";
  print_string (Paper.fig5 ())

(* ---- table 1 / section 4.3 ---- *)

let table1 () =
  section "Table 1 + section 4.3: the four approaches, quantitatively";
  let jobs = !jobs_setting in
  print_endline "MLD with the paper's recommended unsolicited Reports:";
  Paper.pp_table Format.std_formatter (Paper.table1 ~jobs ());
  print_endline "";
  print_endline "MLD with RFC-default behaviour (hosts wait for the next Query):";
  Paper.pp_table Format.std_formatter (Paper.table1 ~spec:Paper.rfc_mld ~jobs ());
  print_endline
    "\npaper's expected shape: approach 1 routes optimally but suffers join delay\n\
     and tree rebuilds; approach 2 has no join delay but doubles loads and\n\
     stretch; approach 3 mixes the good halves; approach 4 the bad halves."

let convergence () =
  section "Section 4.3.2: two mobile members share one foreign link";
  Printf.printf "  %-34s %16s %10s %18s\n" "approach" "L6 data [B]" "L6 pkts"
    "per-receiver rx";
  List.iter
    (fun (r : Paper.convergence_row) ->
      Printf.printf "  %-34s %16d %10d %18s\n"
        (Approach.name r.Paper.conv_approach)
        r.foreign_link_data_bytes r.foreign_link_packets
        (String.concat "/" (List.map string_of_int r.per_receiver_rx)))
    (Paper.tunnel_convergence ~jobs:!jobs_setting ());
  print_endline
    "\npaper: 'the same multicast datagrams will be sent via unicast to each group\n\
     member on the foreign link' -- tunnel delivery doubles the shared link's\n\
     traffic for two members (and scales linearly with more), where local\n\
     membership keeps a single multicast copy."

(* ---- section 4.4 ---- *)

let pp_sweep rows =
  Printf.printf "  %8s %24s %10s %12s %10s\n" "TQuery" "join mean/min/max [s]" "leave [s]"
    "wasted [B]" "MLD [B/s]";
  List.iter
    (fun (r : Paper.sweep_row) ->
      Printf.printf "  %8.0f %10.1f/%5.1f/%6.1f %10.1f %12.0f %10.2f\n"
        r.Paper.tquery_s r.join_mean_s r.join_min_s r.join_max_s r.leave_mean_s
        r.wasted_mean_bytes r.mld_bytes_per_s)
    rows

let timer_sweep () =
  section "Section 4.4: MLD Query Interval sweep (mobile receiver handoffs)";
  let jobs = !jobs_setting in
  print_endline "hosts wait for the next Query:";
  pp_sweep (Paper.timer_sweep ~trials:8 ~unsolicited:false ~jobs ());
  print_endline "\nwith unsolicited Reports (paper's recommendation):";
  pp_sweep (Paper.timer_sweep ~trials:8 ~unsolicited:true ~jobs ());
  print_endline
    "\npaper's expected shape: join and leave delays fall roughly linearly with\n\
     TQuery while the Query/Report signalling cost grows as 1/TQuery and stays\n\
     tiny compared to the data bandwidth saved on stale branches."

(* ---- section 4.3.1 ---- *)

let sender_overhead () =
  section "Section 4.3.1: mobile sender overheads vs mobility rate (local sending)";
  let print spec =
    Printf.printf "  %6s %8s %14s %10s %16s\n" "moves" "asserts" "flood on L5 [B]"
      "SG states" "total data [B]";
    List.iter
      (fun (r : Paper.overhead_row) ->
        Printf.printf "  %6d %8d %14d %10d %16d\n" r.Paper.moves r.asserts
          r.flood_bytes_l5 r.sg_states r.total_data_bytes)
      (Paper.sender_overhead ~spec ~jobs:!jobs_setting ())
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

let ablations () =
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

let extensions () =
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

let churn () =
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

let faults () =
  section "Faults: reconvergence after link flap, per approach and loss rate";
  let loss_rates = [ 0.0; 0.05; 0.15 ] in
  let jobs = !jobs_setting in
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
  let doc =
    Obs.Json.Obj
      [ ("schema", Obs.Json.String "mmcast-fault-recovery/1");
        ("seed", Obs.Json.Int Scenario.default_spec.Scenario.seed);
        ( "flap_schedule",
          Obs.Json.Obj
            [ ("link", Obs.Json.String "L3");
              ("down_at", Obs.Json.float 80.0);
              ("up_at", Obs.Json.float 100.0) ] );
        ("loss_rates", Obs.Json.List (List.map Obs.Json.float loss_rates));
        ("recovery", Obs.Json.List (List.map row_json rows));
        ("flap_sweep", Obs.Json.List (List.map flap_json flaps));
        ("manifest", Obs.Manifest.to_json (report_manifest ())) ]
  in
  let path = write_report ~kind:"fault-recovery" "fault_recovery.json" doc in
  Printf.printf "\n  JSON report written to %s\n" path;
  print_endline
    "\nPIM-DM's flood-and-prune state survives short outages, so lossless recovery\n\
     is one inter-packet gap; ambient loss stretches it to the Graft-retry /\n\
     binding-update backoff timescale, and tunnelled delivery pays the extra\n\
     unicast leg."

(* ---- microbenchmarks ---- *)

let run_micro name tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name tests) in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (label, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some (estimate :: _) -> Printf.printf "  %-44s %14.1f ns/run\n" label estimate
      | Some [] | None -> Printf.printf "  %-44s %14s\n" label "n/a")
    (List.sort compare rows)

let micro () =
  section "Microbenchmarks (Bechamel)";
  let open Bechamel in
  (* event queue *)
  let queue_churn () =
    let q = Engine.Event_queue.create () in
    for i = 0 to 255 do
      ignore (Engine.Event_queue.push q (float_of_int (i land 31)) i)
    done;
    let rec drain () =
      match Engine.Event_queue.pop q with
      | Some _ -> drain ()
      | None -> ()
    in
    drain ()
  in
  (* codec *)
  let data_packet =
    Ipv6.Packet.make
      ~src:(Ipv6.Addr.of_string "2001:db8:1::10")
      ~dst:(Ipv6.Addr.of_string "ff0e::1:1")
      (Ipv6.Packet.Data { stream_id = 1; seq = 42; bytes = 500 })
  in
  let bu_packet =
    Ipv6.Packet.make
      ~src:(Ipv6.Addr.of_string "2001:db8:6::10")
      ~dst:(Ipv6.Addr.of_string "2001:db8:4::1")
      ~dest_options:
        [ Ipv6.Packet.Binding_update
            { sequence = 7;
              lifetime_s = 256;
              home_registration = true;
              care_of = Ipv6.Addr.of_string "2001:db8:6::10";
              sub_options =
                [ Ipv6.Packet.Multicast_group_list
                    [ Ipv6.Addr.of_string "ff0e::1:1"; Ipv6.Addr.of_string "ff0e::2:2" ] ]
            };
          Ipv6.Packet.Home_address (Ipv6.Addr.of_string "2001:db8:4::10") ]
      Ipv6.Packet.Empty
  in
  let bu_wire = Ipv6.Codec.encode bu_packet in
  (* routing *)
  let routing_topo =
    Paper.run
      (Paper.figure1 ~name:"routing" ~until:1.0 ~duration:1.0 [])
      Approach.local_membership
      (fun sc _ () -> Net.Network.topology sc.Scenario.net)
  in
  run_micro "substrate"
    [ Test.make ~name:"event queue: 256 push+pop" (Staged.stage queue_churn);
      Test.make ~name:"codec: encode data packet"
        (Staged.stage (fun () -> ignore (Ipv6.Codec.encode data_packet)));
      Test.make ~name:"codec: encode binding update"
        (Staged.stage (fun () -> ignore (Ipv6.Codec.encode bu_packet)));
      Test.make ~name:"codec: decode binding update"
        (Staged.stage (fun () -> ignore (Ipv6.Codec.decode bu_wire)));
      Test.make ~name:"routing: full BFS table (figure-1 net)"
        (Staged.stage (fun () ->
             let r = Net.Routing.create routing_topo in
             List.iter
               (fun node ->
                 List.iter
                   (fun link ->
                     ignore (Net.Routing.distance_to_link r ~from:node link))
                   (Net.Topology.links routing_topo))
               (Net.Topology.nodes routing_topo)));
      Test.make ~name:"rng: 1000 uniform draws"
        (Staged.stage
           (let rng = Engine.Rng.create 1 in
            fun () ->
              for _ = 1 to 1000 do
                ignore (Engine.Rng.float rng 1.0)
              done))
    ];
  run_micro "simulation"
    [ Test.make ~name:"figure-1 paper run (monitor on): 100 s with stream"
        (Staged.stage
           (let d = Paper.figure1 ~name:"micro" ~until:100.0 ~duration:100.0 [] in
            fun () -> Paper.run d Approach.local_membership (fun _ _ () -> ())))
    ]

(* ---- perf trajectory (BENCH_perf.json) ---- *)

(* One bechamel estimate, in ns/run, for a single staged thunk. *)
let estimate_ns name fn =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let quota = Time.second (if !quick_setting then 0.25 else 1.0) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota () in
  let raw =
    Benchmark.all cfg
      [ Toolkit.Instance.monotonic_clock ]
      (Test.make_grouped ~name:"perf" [ Test.make ~name (Staged.stage fn) ])
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun _ v acc ->
      match Analyze.OLS.estimates v with
      | Some (e :: _) -> e
      | Some [] | None -> acc)
    results nan

let time_wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Fixed integer/float spin whose ns cost tracks single-core speed.
   Every throughput number in the report is paired with this
   calibration, so two runs from different machines compare through
   [events_per_s * calib_ns] — a machine-neutral product — instead of
   raw events/s.  bench/check_perf.py relies on this. *)
let calibrate_ns () =
  let x = ref 0x2545F4914F6CDD1D in
  let acc = ref 0.0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 20_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    acc := !acc +. float_of_int (!x land 0xff)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  ignore (Sys.opaque_identity !acc);
  dt *. 1e9

(* The full-scenario perf workload: the figure-1 network under
   approach 3, a 100 Hz CBR stream from t=10 to t=seconds-10, and R3
   ping-ponging between L4 and L6 every 30 s — enough traffic that the
   run is dominated by the transmit/deliver path, with enough mobility
   to keep tunnels and prune state churning.  Returns
   (events, wall_s, allocated_bytes, minor_collections).  It scripts
   Figure 1 by hand rather than through Scale.Runner on purpose: the
   rows price the unmonitored engine against bench/baseline_perf.json,
   and the monitor's cost would dilute a slowdown of the delivery path
   that only this gate catches. *)
let perf_scenario ~wire ~capture ?(lineage = false) ~seconds () =
  let spec =
    { Scenario.default_spec with
      Scenario.approach = Approach.tunnel_to_home_agent }
  in
  let scenario = Scenario.paper_figure1 spec in
  let sim = scenario.Scenario.sim in
  let net = scenario.Scenario.net in
  if wire then Net.Network.set_wire_check net true;
  if lineage then Engine.Sim.set_lineage sim (Some (Engine.Span.create ()));
  let cap = if capture then Some (Obs.Capture.attach net) else None in
  ignore
    (Engine.Sim.schedule_at sim 5.0 (fun () ->
         Scenario.subscribe_receivers scenario group));
  let s = Scenario.host scenario "S" in
  let stop_t = seconds -. 10.0 in
  let rec tick () =
    if Engine.Time.compare (Engine.Sim.now sim) stop_t < 0 then begin
      Host_stack.send_data s ~group ~bytes:500;
      ignore (Engine.Sim.schedule_after sim 0.01 tick)
    end
  in
  ignore (Engine.Sim.schedule_at sim 10.0 tick);
  let r3 = Scenario.host scenario "R3" in
  let rec hop to_l6 () =
    Host_stack.move_to r3 (Scenario.link scenario (if to_l6 then "L6" else "L4"));
    if Engine.Time.compare (Engine.Sim.now sim) (seconds -. 30.0) < 0 then
      ignore (Engine.Sim.schedule_after sim 30.0 (hop (not to_l6)))
  in
  ignore (Engine.Sim.schedule_at sim 45.0 (hop true));
  let minor0 = (Gc.quick_stat ()).Gc.minor_collections in
  let alloc0 = Gc.allocated_bytes () in
  let (), wall = time_wall (fun () -> Scenario.run_until scenario seconds) in
  let alloc = Gc.allocated_bytes () -. alloc0 in
  let minor = (Gc.quick_stat ()).Gc.minor_collections - minor0 in
  (match cap with Some c -> ignore (Obs.Capture.frames c) | None -> ());
  (Engine.Sim.events_executed sim, wall, alloc, minor)

type perf_row = {
  pr_name : string;
  pr_events : int;
  pr_wall_s : float;
  pr_events_per_s : float;
  pr_alloc_per_sim_s : float;
  pr_minor_per_sim_s : float;
}

(* Best-of-N wall clock (events and allocation are deterministic across
   repeats — only the wall time is noisy). *)
let perf_scenario_row name ~wire ~capture ?(lineage = false) ~seconds ~runs () =
  ignore (perf_scenario ~wire ~capture ~lineage ~seconds:30.0 ()) (* warm-up *);
  let best = ref infinity and events = ref 0 and alloc = ref 0.0 and minor = ref 0 in
  for _ = 1 to runs do
    let e, w, a, m = perf_scenario ~wire ~capture ~lineage ~seconds () in
    if w < !best then best := w;
    events := e;
    alloc := a;
    minor := m
  done;
  { pr_name = name;
    pr_events = !events;
    pr_wall_s = !best;
    pr_events_per_s = float_of_int !events /. !best;
    pr_alloc_per_sim_s = !alloc /. seconds;
    pr_minor_per_sim_s = float_of_int !minor /. seconds }

let perf_row_json r =
  Obs.Json.Obj
    [ ("name", Obs.Json.String r.pr_name);
      ("events", Obs.Json.Int r.pr_events);
      ("wall_s", Obs.Json.float r.pr_wall_s);
      ("events_per_s", Obs.Json.float r.pr_events_per_s);
      ("alloc_per_sim_s", Obs.Json.float r.pr_alloc_per_sim_s);
      ("minor_per_sim_s", Obs.Json.float r.pr_minor_per_sim_s) ]

(* The pre-change baseline for the same workload (seconds=120),
   measured on the machine that grew the copy-free wire path —
   identified by its calibration constant.  [vs_pre_change] in the
   report normalizes both sides through the spin, so the ratios remain
   meaningful on other machines. *)
let pre_change_calib_ns = 83.152e6

let pre_change_rows =
  [ ("structural", 765957.0, 734480.0);
    ("wire_exact", 387095.0, 3702070.0) ]

let perf () =
  section "Perf: hot-path throughput, allocation rate + multicore sweep (BENCH_perf.json)";
  let jobs = !jobs_setting in
  let cores = Parallel.default_jobs () in
  print_endline "  calibrating machine speed (fixed spin)...";
  let calib_ns = calibrate_ns () in
  Printf.printf "  %-44s %14.0f ns\n" "calibration spin (20M xorshift)" calib_ns;
  (* -- micro 1: events through the scheduler (push + pop, with a
        cancel mixed in every 4th entry to exercise lazy deletion) —
        once through the legacy binary heap, once through the timer
        wheel the simulator now uses -- *)
  let queue_events = 1024 in
  let queue_batch () =
    let q = Engine.Event_queue.create () in
    for i = 0 to queue_events - 1 do
      let h = Engine.Event_queue.push q (float_of_int (i land 63)) i in
      if i land 3 = 0 then Engine.Event_queue.cancel q h
    done;
    let rec drain () =
      match Engine.Event_queue.pop q with
      | Some _ -> drain ()
      | None -> ()
    in
    drain ()
  in
  let wheel_batch () =
    let q = Engine.Wheel.create () in
    for i = 0 to queue_events - 1 do
      let h = Engine.Wheel.push q (float_of_int (i land 63)) i in
      if i land 3 = 0 then Engine.Wheel.cancel q h
    done;
    while not (Engine.Wheel.is_empty q) do
      ignore (Engine.Wheel.take q)
    done
  in
  (* -- micro 2: packets through Network.transmit on a pristine
        multi-access link (1 sender, 3 listeners, no faults),
        structurally and in wire-check mode (where the interned frame
        shares one encode + one decode across the fan-out) -- *)
  let transmit_packets = 64 in
  let make_transmit_net ~wire =
    let sim = Engine.Sim.create () in
    let topo = Net.Topology.create () in
    let link =
      Net.Topology.add_link topo ~name:"L"
        ~prefix:(Ipv6.Prefix.of_string "2001:db8:99::/64") ()
    in
    let sender = Net.Topology.add_node topo ~name:"S" ~kind:Net.Topology.Host in
    let receivers =
      List.map
        (fun name -> Net.Topology.add_node topo ~name ~kind:Net.Topology.Host)
        [ "R1"; "R2"; "R3" ]
    in
    List.iter (fun n -> Net.Topology.attach topo n link) (sender :: receivers);
    let net = Net.Network.create sim topo in
    if wire then Net.Network.set_wire_check net true;
    List.iter
      (fun n -> Net.Network.set_handler net n (fun ~link:_ ~from:_ ~chan:_ _ -> ()))
      receivers;
    (sim, net, sender, link)
  in
  let packet =
    Ipv6.Packet.make
      ~src:(Ipv6.Addr.of_string "2001:db8:99::1")
      ~dst:(Ipv6.Addr.of_string "ff0e::1:1")
      (Ipv6.Packet.Data { stream_id = 1; seq = 0; bytes = 500 })
  in
  let transmit_batch_on (sim, net, sender, link) () =
    for _ = 1 to transmit_packets do
      Net.Network.transmit net ~from:sender ~link Net.Network.To_all packet
    done;
    Engine.Sim.run sim
  in
  let transmit_batch = transmit_batch_on (make_transmit_net ~wire:false) in
  let transmit_wire_batch = transmit_batch_on (make_transmit_net ~wire:true) in
  (* Same transmit batch with a lineage collector installed; a fresh
     collector per batch keeps the span store from growing across the
     measurement and prices what tracing-on costs the hot path. *)
  let transmit_traced_batch =
    let ((sim, _, _, _) as env) = make_transmit_net ~wire:false in
    let batch = transmit_batch_on env in
    fun () ->
      Engine.Sim.set_lineage sim (Some (Engine.Span.create ()));
      batch ()
  in
  (* -- micro 3: the wire path itself — arena encode, interned-frame
        force (first touch vs memo hit) and decode -- *)
  let wire_bytes = Ipv6.Codec.encode packet in
  let forced_frame = Ipv6.Codec.Frame.of_packet packet in
  ignore (Ipv6.Codec.Frame.force forced_frame);
  print_endline "  measuring hot-path throughput (bechamel)...";
  let queue_ns = estimate_ns "event queue batch" queue_batch in
  let wheel_ns = estimate_ns "timer wheel batch" wheel_batch in
  let transmit_ns = estimate_ns "transmit batch" transmit_batch in
  let transmit_wire_ns = estimate_ns "transmit batch (wire-check)" transmit_wire_batch in
  let transmit_traced_ns = estimate_ns "transmit batch (traced)" transmit_traced_batch in
  let encode_ns =
    estimate_ns "codec encode (arena)" (fun () ->
        ignore (Ipv6.Codec.encode packet))
  in
  let force_fresh_ns =
    estimate_ns "frame intern+force" (fun () ->
        ignore (Ipv6.Codec.Frame.force (Ipv6.Codec.Frame.of_packet packet)))
  in
  let force_hit_ns =
    estimate_ns "frame force (memo hit)" (fun () ->
        ignore (Ipv6.Codec.Frame.force forced_frame))
  in
  let decode_ns =
    estimate_ns "codec decode" (fun () -> ignore (Ipv6.Codec.decode wire_bytes))
  in
  let per_s count ns = float_of_int count /. (ns *. 1e-9) in
  let events_per_s = per_s queue_events queue_ns in
  let wheel_events_per_s = per_s queue_events wheel_ns in
  let packets_per_s = per_s transmit_packets transmit_ns in
  let wire_packets_per_s = per_s transmit_packets transmit_wire_ns in
  let traced_packets_per_s = per_s transmit_packets transmit_traced_ns in
  Printf.printf "  %-44s %14.0f /s\n" "event queue (heap): push/cancel/pop" events_per_s;
  Printf.printf "  %-44s %14.0f /s\n" "timer wheel: push/cancel/pop" wheel_events_per_s;
  Printf.printf "  %-44s %14.0f /s\n" "network: packets through transmit+deliver"
    packets_per_s;
  Printf.printf "  %-44s %14.0f /s\n" "network: same, wire-check (shared frame)"
    wire_packets_per_s;
  Printf.printf "  %-44s %14.0f /s\n" "network: same, lineage tracing on"
    traced_packets_per_s;
  Printf.printf "  %-44s %14.1f ns\n" "codec: encode via arena" encode_ns;
  Printf.printf "  %-44s %14.1f ns\n" "frame: intern + first force" force_fresh_ns;
  Printf.printf "  %-44s %14.1f ns\n" "frame: force memo hit" force_hit_ns;
  Printf.printf "  %-44s %14.1f ns\n" "codec: decode" decode_ns;
  (* -- full scenario: events/s and allocation per simulated second,
        structurally and wire-exact (encode+decode+capture) -- *)
  let seconds = 120.0 in
  let runs = if !quick_setting then 2 else 3 in
  Printf.printf "\n  full figure-1 scenario, %g simulated s (best of %d):\n" seconds
    runs;
  let structural =
    perf_scenario_row "structural" ~wire:false ~capture:false ~seconds ~runs ()
  in
  let wire_exact =
    perf_scenario_row "wire_exact" ~wire:true ~capture:true ~seconds ~runs ()
  in
  (* Same workload with the lineage collector installed: the cost of
     tracing {e on}.  The structural/wire_exact rows above run with
     tracing off, so their comparison against bench/baseline_perf.json
     (recorded before the instrumentation existed) is the gate that the
     disabled-path checks cost nothing measurable. *)
  let traced =
    perf_scenario_row "traced" ~wire:false ~capture:false ~lineage:true ~seconds
      ~runs ()
  in
  let scenario_rows = [ structural; wire_exact; traced ] in
  List.iter
    (fun r ->
      Printf.printf
        "  %-12s %8d events  %8.4f s  %9.0f ev/s  %10.0f alloc B/sim-s  %5.2f minor/sim-s\n"
        r.pr_name r.pr_events r.pr_wall_s r.pr_events_per_s r.pr_alloc_per_sim_s
        r.pr_minor_per_sim_s)
    scenario_rows;
  Printf.printf "  %-12s tracing-on throughput loss vs structural: %.1f%%\n"
    "traced"
    (100.0 *. (1.0 -. (traced.pr_events_per_s /. structural.pr_events_per_s)));
  (* ratios vs the recorded pre-change baseline, speed-normalized *)
  let vs_pre_change =
    List.filter_map
      (fun r ->
        match List.assoc_opt r.pr_name (List.map (fun (n, e, a) -> (n, (e, a))) pre_change_rows) with
        | None -> None
        | Some (base_eps, base_alloc) ->
          let throughput_x =
            r.pr_events_per_s *. calib_ns /. (base_eps *. pre_change_calib_ns)
          in
          let alloc_improvement_x =
            if r.pr_alloc_per_sim_s > 0.0 then base_alloc /. r.pr_alloc_per_sim_s
            else infinity
          in
          Printf.printf
            "  %-12s vs pre-change: %.2fx throughput (normalized), %.2fx lower allocation\n"
            r.pr_name throughput_x alloc_improvement_x;
          Some
            ( r.pr_name,
              Obs.Json.Obj
                [ ("throughput_x_normalized", Obs.Json.float throughput_x);
                  ("alloc_improvement_x", Obs.Json.float alloc_improvement_x) ] ))
      scenario_rows
  in
  (* -- macro: Table 1 sweep, sequential vs fanned across domains -- *)
  Printf.printf "\n  Table 1 sweep wall-clock (jobs=1 vs jobs=%d, %d core%s visible):\n"
    jobs cores (if cores = 1 then "" else "s");
  let rows_seq, t_seq = time_wall (fun () -> Paper.table1 ~jobs:1 ()) in
  let rows_par, t_par = time_wall (fun () -> Paper.table1 ~jobs ()) in
  let identical = rows_seq = rows_par in
  let speedup = if t_par > 0.0 then t_seq /. t_par else nan in
  Printf.printf "  %-24s %10.3f s\n" "jobs=1" t_seq;
  Printf.printf "  %-24s %10.3f s   (speedup %.2fx, rows identical: %b)\n"
    (Printf.sprintf "jobs=%d" jobs) t_par speedup identical;
  let doc =
    Obs.Json.Obj
      [ ("schema", Obs.Json.String "mmcast-bench-perf/3");
        ("seed", Obs.Json.Int Scenario.default_spec.Scenario.seed);
        ("host_cores", Obs.Json.Int cores);
        ("jobs", Obs.Json.Int jobs);
        ("quick", Obs.Json.Bool !quick_setting);
        ( "calibration",
          Obs.Json.Obj
            [ ("spin_iters", Obs.Json.Int 20_000_000);
              ("ns", Obs.Json.float calib_ns) ] );
        ( "micro",
          Obs.Json.Obj
            [ ( "event_queue",
                Obs.Json.Obj
                  [ ("events_per_batch", Obs.Json.Int queue_events);
                    ("ns_per_batch", Obs.Json.float queue_ns);
                    ("events_per_s", Obs.Json.float events_per_s) ] );
              ( "timer_wheel",
                Obs.Json.Obj
                  [ ("events_per_batch", Obs.Json.Int queue_events);
                    ("ns_per_batch", Obs.Json.float wheel_ns);
                    ("events_per_s", Obs.Json.float wheel_events_per_s) ] );
              ( "transmit",
                Obs.Json.Obj
                  [ ("packets_per_batch", Obs.Json.Int transmit_packets);
                    ("ns_per_batch", Obs.Json.float transmit_ns);
                    ("packets_per_s", Obs.Json.float packets_per_s) ] );
              ( "transmit_wire_check",
                Obs.Json.Obj
                  [ ("packets_per_batch", Obs.Json.Int transmit_packets);
                    ("ns_per_batch", Obs.Json.float transmit_wire_ns);
                    ("packets_per_s", Obs.Json.float wire_packets_per_s) ] );
              ( "transmit_traced",
                Obs.Json.Obj
                  [ ("packets_per_batch", Obs.Json.Int transmit_packets);
                    ("ns_per_batch", Obs.Json.float transmit_traced_ns);
                    ("packets_per_s", Obs.Json.float traced_packets_per_s) ] );
              ( "wire_path",
                Obs.Json.Obj
                  [ ("encode_ns", Obs.Json.float encode_ns);
                    ("frame_force_fresh_ns", Obs.Json.float force_fresh_ns);
                    ("frame_force_hit_ns", Obs.Json.float force_hit_ns);
                    ("decode_ns", Obs.Json.float decode_ns) ] ) ] );
        ( "scenario",
          Obs.Json.Obj
            [ ( "workload",
                Obs.Json.String
                  "figure1 approach3 cbr-10ms handoff-30s (perf_scenario)" );
              ("seconds", Obs.Json.float seconds);
              ("runs", Obs.Json.Int runs);
              ("rows", Obs.Json.List (List.map perf_row_json scenario_rows)) ] );
        ( "baseline_pre_change",
          Obs.Json.Obj
            [ ("calib_ns", Obs.Json.float pre_change_calib_ns);
              ( "rows",
                Obs.Json.List
                  (List.map
                     (fun (n, e, a) ->
                       Obs.Json.Obj
                         [ ("name", Obs.Json.String n);
                           ("events_per_s", Obs.Json.float e);
                           ("alloc_per_sim_s", Obs.Json.float a) ])
                     pre_change_rows) ) ] );
        ("vs_pre_change", Obs.Json.Obj vs_pre_change);
        ( "macro",
          Obs.Json.Obj
            [ ("workload", Obs.Json.String "table1");
              ("jobs1_wall_s", Obs.Json.float t_seq);
              ("jobsN_wall_s", Obs.Json.float t_par);
              ("speedup", Obs.Json.float speedup);
              ("rows_identical", Obs.Json.Bool identical) ] );
        ("manifest", Obs.Manifest.to_json (report_manifest ())) ]
  in
  let path = write_report ~kind:"perf" "BENCH_perf.json" doc in
  Printf.printf "\n  JSON report written to %s\n" path;
  if not identical then (
    prerr_endline "perf: parallel Table 1 rows differ from sequential rows";
    exit 1)

(* ---- driver ---- *)

let sections =
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
    ("faults", faults);
    ("micro", micro);
    ("perf", perf) ]

(* Canonical Figure-1 capture (the README quickstart scenario): CBR
   stream plus R3's L4 -> L6 handoff, every frame byte-exact. *)
let write_quickstart_capture file =
  section "Capture: quickstart scenario (figure 1, R3 handoff at t=60)";
  let d =
    Paper.figure1 ~name:"quickstart" ~until:110.0 ~duration:120.0 [ move ~at:60.0 "R3" "L6" ]
  in
  let cap =
    Paper.run d Approach.local_membership (fun sc _ ->
        let cap = Obs.Capture.attach sc.Scenario.net in
        fun () -> cap)
  in
  Obs.Json.ensure_dir (Filename.dirname file);
  Obs.Capture.to_file cap file;
  outputs := ("capture", file) :: !outputs;
  Printf.printf "  %d frame(s) (%d unencodable) -> %s\n" (Obs.Capture.frames cap)
    (Obs.Capture.unencodable cap)
    file

let usage () =
  Printf.eprintf
    "usage: main.exe [--jobs N] [--quick] [--telemetry DIR] [--capture FILE] \
     [section ...]\n\
     sections: %s\n"
    (String.concat " " (List.map fst sections));
  exit 1

let () =
  (* Tiny hand-rolled parser: flags anywhere, the rest are sections. *)
  let rec parse acc = function
    | [] -> List.rev acc
    | ("-j" | "--jobs") :: n :: rest ->
      (match int_of_string_opt n with
       | Some j when j >= 1 -> jobs_setting := j
       | Some _ | None ->
         Printf.eprintf "--jobs expects a positive integer, got %s\n" n;
         exit 1);
      parse acc rest
    | [ ("-j" | "--jobs") ] ->
      Printf.eprintf "--jobs expects an argument\n";
      exit 1
    | "--quick" :: rest ->
      quick_setting := true;
      parse acc rest
    | "--telemetry" :: dir :: rest ->
      telemetry_dir := dir;
      parse acc rest
    | [ "--telemetry" ] ->
      Printf.eprintf "--telemetry expects a directory\n";
      exit 1
    | "--capture" :: file :: rest ->
      capture_setting := Some file;
      parse acc rest
    | [ "--capture" ] ->
      Printf.eprintf "--capture expects a file\n";
      exit 1
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
      Printf.eprintf "unknown flag %s\n" arg;
      usage ()
    | name :: rest -> parse (name :: acc) rest
  in
  let picks = parse [] (List.tl (Array.to_list Sys.argv)) in
  let chosen =
    match picks with
    | [] | [ "all" ] -> List.map fst sections
    | picks -> picks
  in
  (* With --capture and no sections, write only the capture. *)
  let chosen =
    match (picks, !capture_setting) with
    | [], Some _ -> []
    | _, _ -> chosen
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown section %s (available: %s)\n" name
          (String.concat " " (List.map fst sections));
        exit 1)
    chosen;
  Option.iter write_quickstart_capture !capture_setting;
  (* --telemetry DIR also gets a top-level manifest tying the artifacts
     of this invocation together. *)
  if !telemetry_dir <> "." || !capture_setting <> None then begin
    Obs.Json.ensure_dir !telemetry_dir;
    let m = report_manifest () in
    Obs.Manifest.add_string m "sections" (String.concat " " chosen);
    List.iter (fun (kind, path) -> Obs.Manifest.add_output m ~kind path) (List.rev !outputs);
    Obs.Manifest.write m ~path:(Filename.concat !telemetry_dir "manifest.json")
  end

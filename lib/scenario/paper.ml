open Mmcast
open Net

let group = Scenario.group

(* ---- the Figure-1 script ---- *)

let by_time events =
  List.stable_sort (fun a b -> compare (Desc.event_time a) (Desc.event_time b)) events

let figure1 ?(seed = Scenario.default_spec.Scenario.seed) ?(from_t = 30.0) ?(faults = [])
    ~name ~until ~duration events =
  let fig = Scenario.figure1 in
  let joins =
    if duration < 5.0 then []
    else List.map (fun host -> Desc.Join { at = 5.0; host; group = 0 }) [ "R1"; "R2"; "R3" ]
  in
  { Desc.d_name = name;
    d_seed = seed;
    d_links = fig.Scenario.lay_links;
    d_routers = fig.Scenario.lay_routers;
    d_hosts = fig.Scenario.lay_hosts;
    d_senders = [ ("S", 0) ];
    d_traffic = { Desc.tr_from = from_t; tr_until = until; tr_interval = 0.5; tr_bytes = 500 };
    d_events = by_time (joins @ events);
    d_faults = faults;
    d_windows = [];
    d_duration = duration;
    d_disable_graft = false;
    d_wire_check = false }

exception Violation of string

let check_verdict d (o : Runner.outcome) =
  match o.Runner.out_violations with
  | [] -> ()
  | v :: rest ->
    raise
      (Violation
         (Printf.sprintf "%s, approach %d: %s at %.3f s on %s: %s%s" d.Desc.d_name
            (Approach.number o.Runner.out_approach)
            (Check.Monitor.invariant_name v.Check.Monitor.v_invariant)
            v.Check.Monitor.v_at v.Check.Monitor.v_where v.Check.Monitor.v_detail
            (match rest with
             | [] -> ""
             | _ -> Printf.sprintf " (%d more violation(s))" (List.length rest))))

let run ?(spec = Scenario.default_spec) ?inspect d approach measure =
  let read = ref None in
  let o =
    Runner.run ~spec d approach ~inspect:(fun scenario _ ->
        let metrics = Metrics.attach scenario.Scenario.net in
        read := Some (measure scenario metrics);
        Option.iter (fun f -> f scenario metrics) inspect)
  in
  check_verdict d o;
  Option.get !read ()

let move ~at host link = Desc.Move { at; host; link }

(* What a receiver's handover cost on the link it left: the first
   datagram after the move (join delay), the last one put on the old
   link after it (leave delay) and the data bytes the old link carried
   since.  The one copy of the measure Figure 2, Table 1 and the timer
   sweep share. *)
type handover = {
  join_delay_s : float option;
  leave_delay_s : float;
  wasted_bytes : int;
}

(* The move itself is an earlier-scheduled event at [at], so the
   snapshot runs right after it; a move sends no data, so the old
   link's byte count is the one at the move. *)
let handover scenario metrics ~host ~from_link ~at =
  let old = Scenario.link scenario from_link in
  let at_move = ref 0 in
  Traffic.at scenario at (fun () -> at_move := Metrics.data_bytes_on metrics old);
  fun () ->
    { join_delay_s = Metrics.join_delay (Scenario.host scenario host) ~group;
      leave_delay_s =
        (match Metrics.last_data_tx metrics old ~group with
         | None -> 0.0
         | Some last -> Float.max 0.0 (last -. at));
      wasted_bytes = Metrics.data_bytes_on metrics old - !at_move }

let watch_flaps (d : Desc.t) ~hosts scenario =
  let flaps =
    List.filter_map
      (function
        | Desc.Flap { link; down_at; up_at } ->
          Some (Faults.link_flap ~link:(Scenario.link scenario link) ~down_at ~up_at)
        | Desc.Loss _ | Desc.Crash _ -> None)
      d.Desc.d_faults
  in
  Recovery.create scenario ~group ~hosts
    (Faults.marks (Network.topology scenario.Scenario.net) flaps)

let rfc_mld =
  { Scenario.default_spec with
    Scenario.mld = { Mld.Mld_config.default with unsolicited_report_count = 0 } }

let sg_states scenario =
  List.fold_left
    (fun acc (_, r) -> acc + List.length (Pimdm.Pim_router.entries (Router_stack.pim r)))
    0 scenario.Scenario.routers

(* ---- figures ---- *)

type fig_result = {
  description : string;
  tree : string;
  links : string list;
  tunnels : string list;
  notes : (string * string) list;
}

let snapshot scenario ~description ~notes =
  let source = Host_stack.home_address (Scenario.host scenario "S") in
  { description;
    tree = Tree.render scenario ~source ~group;
    links = Tree.links_carrying scenario ~source ~group;
    tunnels = Tree.tunnels_carrying scenario ~source ~group;
    notes }

let join_text = function
  | None -> "never re-received"
  | Some d -> Printf.sprintf "%.2f s" d

let fig1_desc ~seed = figure1 ~seed ~name:"fig1" ~until:100.0 ~duration:100.0 []

let fig2_desc ~seed =
  figure1 ~seed ~name:"fig2" ~until:340.0 ~duration:360.0 [ move ~at:60.0 "R3" "L6" ]

let fig3_desc ~seed =
  figure1 ~seed ~name:"fig3" ~until:120.0 ~duration:120.0 [ move ~at:60.0 "R3" "L1" ]

let fig4_desc ~seed =
  figure1 ~seed ~name:"fig4" ~until:200.0 ~duration:200.0 [ move ~at:100.0 "S" "L6" ]

let fig1 ?(spec = Scenario.default_spec) () =
  run ~spec (fig1_desc ~seed:spec.Scenario.seed) spec.Scenario.approach (fun sc _ () ->
      snapshot sc
        ~description:
          "Initial distribution tree for (Sender S on Link 1, Group G): flood-and-prune \
           leaves exactly the member links forwarding"
        ~notes:
          [ ("receivers", "R1 on L1, R2 on L2, R3 on L4");
            ("expected links (paper)", "L1 L2 L3 L4") ])

let fig2 ?(spec = Scenario.default_spec) () =
  run ~spec (fig2_desc ~seed:spec.Scenario.seed) spec.Scenario.approach (fun sc m ->
      let h = handover sc m ~host:"R3" ~from_link:"L4" ~at:60.0 in
      fun () ->
        let h = h () in
        snapshot sc
          ~description:
            "Mobile receiver, local group membership: R3 moved from Link 4 to Link 6; \
             the tree grew a branch to L6 while MLD state let L4 carry useless traffic"
          ~notes:
            [ ("join delay", join_text h.join_delay_s);
              ( "leave delay",
                Printf.sprintf "%.1f s (bound TMLI = %.0f s)" h.leave_delay_s
                  (Engine.Time.seconds
                     (Mld.Mld_config.multicast_listener_interval spec.Scenario.mld)) );
              ("wasted bytes on L4", string_of_int h.wasted_bytes);
              ( "unsolicited reports",
                string_of_int spec.Scenario.mld.Mld.Mld_config.unsolicited_report_count ) ])

let fig3 ?(spec = Scenario.default_spec) () =
  run ~spec (fig3_desc ~seed:spec.Scenario.seed) Approach.bidirectional_tunnel (fun sc m () ->
      snapshot sc
        ~description:
          "Mobile receiver via home agent: R3 moved from Link 4 to Link 1; the tree is \
           unchanged and Router D tunnels the group's traffic to R3's care-of address"
        ~notes:
          [ ("join delay", join_text (Metrics.join_delay (Scenario.host sc "R3") ~group));
            ( "tunnel overhead",
              Printf.sprintf "%d B" (Metrics.bytes m Metrics.Tunnel_overhead) );
            ("tunnelled data", Printf.sprintf "%d B" (Metrics.bytes m Metrics.Data_tunnelled))
          ])

let fig4 ?(spec = Scenario.default_spec) () =
  run ~spec (fig4_desc ~seed:spec.Scenario.seed) Approach.tunnel_to_home_agent (fun sc m () ->
      let coa = Host_stack.current_source_address (Scenario.host sc "S") in
      let coa_states =
        List.concat_map (fun (_, r) -> Pimdm.Pim_router.entries (Router_stack.pim r))
          sc.Scenario.routers
        |> List.filter (fun (src, _) -> Ipv6.Addr.equal src coa)
        |> List.length
      in
      snapshot sc
        ~description:
          "Mobile sender via reverse tunnel: S moved from Link 1 to Link 6; datagrams \
           are tunnelled to home agent A and distributed over the unchanged home tree"
        ~notes:
          [ ( "tunnel overhead",
              Printf.sprintf "%d B" (Metrics.bytes m Metrics.Tunnel_overhead) );
            ("(CoA,G) states created", string_of_int coa_states);
            ("asserts", string_of_int (Metrics.control_counts m).Metrics.asserts) ])

let fig5 () =
  let open Ipv6 in
  let mh_coa = Addr.of_string "2001:db8:6::10" in
  let mh_home = Addr.of_string "2001:db8:4::10" in
  let ha = Addr.of_string "2001:db8:4::1" in
  let groups = [ Addr.of_string "ff0e::1:1"; Addr.of_string "ff0e::2:8" ] in
  let sub = Packet.Multicast_group_list groups in
  let bu =
    Packet.make ~src:mh_coa ~dst:ha
      ~dest_options:
        [ Packet.Binding_update
            { sequence = 1;
              lifetime_s = 256;
              home_registration = true;
              care_of = mh_coa;
              sub_options = [ sub ] };
          Packet.Home_address mh_home ]
      Packet.Empty
  in
  let sub_wire = Codec.encode_sub_option sub in
  Format.asprintf
    "Multicast Group List Sub-Option (paper, Figure 5)@.\
     sub-option type = %d, sub-option len = 16*N = %d (N = %d groups)@.@.\
     bit layout (type | len | group addresses):@.%a@.@.\
     hex dump:@.%a@.@.\
     full Binding Update packet carrying the sub-option (%d bytes on the wire):@.%a@."
    Codec.sub_option_type_multicast_group_list
    (Char.code (Bytes.get sub_wire 1))
    (List.length groups) Hexdump.pp_bits sub_wire Hexdump.pp sub_wire (Packet.size bu)
    Hexdump.pp (Codec.encode bu)

(* ---- table 1 ---- *)

type row = {
  approach : Approach.t;
  join_delay_s : float option;
  leave_delay_s : float;
  wasted_bytes_old_link : int;
  tunnel_overhead_bytes : int;
  signalling_bytes : int;
  receiver_stretch : float;
  receiver_lost : int;
  duplicates : int;
  ha_load : int;
  mh_load : int;
  routers_load : int;
  sender_asserts : int;
  sender_flood_bytes : int;
  sender_sg_states : int;
  sender_stretch : float;
}

type phase = [ `Receiver | `Sender ]

let receiver_move_time = 60.0
let sender_move_time = 120.0

let phase ?(seed = Scenario.default_spec.Scenario.seed) = function
  | `Receiver ->
    figure1 ~seed ~name:"table1-receiver" ~until:330.0 ~duration:360.0
      [ move ~at:receiver_move_time "R3" "L6" ]
  | `Sender ->
    figure1 ~seed ~name:"table1-sender" ~until:230.0 ~duration:260.0
      [ move ~at:sender_move_time "S" "L3" ]

(* Link crossings of a unicast packet from a node to another node:
   shortest path to the closest attachment. *)
let unicast_hops net ~from_node ~to_node =
  let topo = Network.topology net in
  let routing = Network.routing net in
  Topology.links_of_node topo to_node
  |> List.filter_map (fun link ->
         match Routing.path_to_link routing ~from:from_node link with
         | None -> None
         | Some [] -> Some 1 (* same link: one crossing *)
         | Some path ->
           (* The destination link itself is not crossed when the
              target node sits on the previous link too. *)
           Some (List.length path - 1 + 1))
  |> List.fold_left min max_int
  |> fun h -> if h = max_int then None else Some h

(* Link crossings of a multicast delivery from a sender node to a
   destination link: the sender's own link plus the tree path. *)
let multicast_hops net ~from_node ~to_link =
  match Routing.path_to_link (Network.routing net) ~from:from_node to_link with
  | None -> None
  | Some [] -> Some 1
  | Some path -> Some (List.length path)

let ratio actual optimal =
  match (actual, optimal) with
  | Some a, Some o when o > 0 -> float_of_int a /. float_of_int o
  | _, _ -> nan

let receiver_stretch scenario =
  let net = scenario.Scenario.net in
  let s = Host_stack.node_id (Scenario.host scenario "S") in
  let d = Router_stack.node_id (Scenario.router scenario "D") in
  let l6 = Scenario.link scenario "L6" in
  let l4 = Scenario.link scenario "L4" in
  let optimal = multicast_hops net ~from_node:s ~to_link:l6 in
  let actual =
    match scenario.Scenario.spec.Scenario.approach.Approach.receive with
    | Approach.Receive_local -> optimal
    | Approach.Receive_tunnel -> (
      (* Tree to the home link, then tunnel from the home agent. *)
      match (multicast_hops net ~from_node:s ~to_link:l4,
             multicast_hops net ~from_node:d ~to_link:l6)
      with
      | Some a, Some b -> Some (a + b)
      | _, _ -> None)
  in
  ratio actual optimal

let sender_stretch scenario =
  (* After the sender moved to L3; reference receiver R3 on L4. *)
  let net = scenario.Scenario.net in
  let s = Host_stack.node_id (Scenario.host scenario "S") in
  let a = Router_stack.node_id (Scenario.router scenario "A") in
  let l4 = Scenario.link scenario "L4" in
  let optimal = multicast_hops net ~from_node:s ~to_link:l4 in
  let actual =
    match scenario.Scenario.spec.Scenario.approach.Approach.send with
    | Approach.Send_local -> optimal
    | Approach.Send_tunnel -> (
      match (unicast_hops net ~from_node:s ~to_node:a,
             multicast_hops net ~from_node:a ~to_link:l4)
      with
      (* Tunnel to the home agent, re-emission on the home link, then
         the tree (the home link crossing is inside multicast_hops'
         sender-link term). *)
      | Some t, Some m -> Some (t + 1 + m - 1 + 1)
      | _, _ -> None)
  in
  ratio actual optimal

(* Each phase fills its half of a row: the receiver phase builds it,
   the sender phase completes it. *)
let receiver_phase approach scenario metrics =
  let r3 = Scenario.host scenario "R3" in
  let s = Scenario.host scenario "S" in
  let h = handover scenario metrics ~host:"R3" ~from_link:"L4" ~at:receiver_move_time in
  let sent_at_move = ref 0 in
  let rx_at_move = ref 0 in
  Traffic.at scenario receiver_move_time (fun () ->
      sent_at_move := Host_stack.data_sent s;
      rx_at_move := Host_stack.received_count r3 ~group);
  fun () ->
    let h = h () in
    let work load = Load.total_work load in
    { approach;
      join_delay_s = h.join_delay_s;
      leave_delay_s = h.leave_delay_s;
      wasted_bytes_old_link = h.wasted_bytes;
      tunnel_overhead_bytes = Metrics.bytes metrics Metrics.Tunnel_overhead;
      signalling_bytes = Metrics.signalling_bytes metrics;
      receiver_stretch = receiver_stretch scenario;
      receiver_lost =
        Host_stack.data_sent s - !sent_at_move
        - (Host_stack.received_count r3 ~group - !rx_at_move);
      duplicates = Host_stack.duplicate_count r3 ~group;
      ha_load = work (Router_stack.load (Scenario.router scenario "D"));
      mh_load = work (Host_stack.load r3);
      routers_load =
        List.fold_left
          (fun acc (_, r) -> acc + work (Router_stack.load r))
          0 scenario.Scenario.routers;
      sender_asserts = 0;
      sender_flood_bytes = 0;
      sender_sg_states = 0;
      sender_stretch = nan }

let sender_phase scenario metrics =
  let l5 = Scenario.link scenario "L5" in
  let asserts () = (Metrics.control_counts metrics).Metrics.asserts in
  let asserts_at_move = ref 0 in
  let asserts_after_handoff = ref 0 in
  let l5_at_move = ref 0 in
  Traffic.at scenario sender_move_time (fun () ->
      asserts_at_move := asserts ();
      l5_at_move := Metrics.data_bytes_on metrics l5);
  (* Only asserts within the handoff window count as movement-induced;
     dense mode re-contests forwarder elections periodically anyway. *)
  Traffic.at scenario (sender_move_time +. 10.0) (fun () ->
      asserts_after_handoff := asserts () - !asserts_at_move);
  fun () row ->
    { row with
      sender_asserts = !asserts_after_handoff;
      sender_flood_bytes = Metrics.data_bytes_on metrics l5 - !l5_at_move;
      sender_sg_states = sg_states scenario;
      sender_stretch = sender_stretch scenario }

let table1_row ?(spec = Scenario.default_spec) ?inspect approach =
  let phase_run p measure =
    run ~spec
      ?inspect:(Option.map (fun f -> f p) inspect)
      (phase ~seed:spec.Scenario.seed p) approach measure
  in
  let row = phase_run `Receiver (receiver_phase approach) in
  phase_run `Sender sender_phase row

let table1 ?spec ?(jobs = 1) () =
  (* Each approach runs two fresh scenarios of its own, so the four
     rows can be computed on separate domains; input order is
     preserved, keeping the table byte-identical to sequential runs. *)
  Parallel.map ~jobs (fun a -> table1_row ?spec a) Approach.all

let pp_table ppf rows =
  Format.fprintf ppf
    "%-34s %10s %10s %10s %10s %9s %7s %5s %4s@." "approach (Table 1)" "join[s]"
    "leave[s]" "waste[B]" "tunnel[B]" "signal[B]" "stretch" "lost" "dup";
  List.iter
    (fun r ->
      Format.fprintf ppf "%d. %-31s %10s %10.1f %10d %10d %9d %7.2f %5d %4d@."
        (Approach.number r.approach)
        (Approach.name r.approach)
        (match r.join_delay_s with
         | None -> "-"
         | Some d -> Printf.sprintf "%.2f" d)
        r.leave_delay_s r.wasted_bytes_old_link r.tunnel_overhead_bytes r.signalling_bytes
        r.receiver_stretch r.receiver_lost r.duplicates)
    rows;
  Format.fprintf ppf "@.%-34s %8s %8s %8s %10s %10s %10s %9s@." "" "HA load" "MH load"
    "rtr load" "asserts" "flood[B]" "SG states" "s-stretch";
  List.iter
    (fun r ->
      Format.fprintf ppf "%d. %-31s %8d %8d %8d %10d %10d %10d %9.2f@."
        (Approach.number r.approach)
        (Approach.name r.approach) r.ha_load r.mh_load r.routers_load r.sender_asserts
        r.sender_flood_bytes r.sender_sg_states r.sender_stretch)
    rows

(* ---- section 4.3.2: several mobile members on one foreign link ---- *)

type convergence_row = {
  conv_approach : Approach.t;
  foreign_link_data_bytes : int;
  foreign_link_packets : int;
  per_receiver_rx : int list;
}

let convergence_desc ~seed =
  (* Two mobile members converge on the same foreign link. *)
  figure1 ~seed ~name:"convergence" ~until:200.0 ~duration:200.0
    [ move ~at:50.0 "R2" "L6"; move ~at:52.0 "R3" "L6" ]

let convergence_approaches = [ Approach.local_membership; Approach.bidirectional_tunnel ]

let tunnel_convergence ?(spec = Scenario.default_spec) ?(jobs = 1) () =
  let measure approach sc m =
    let l6 = Scenario.link sc "L6" in
    let packets () =
      Metrics.packets ~link:l6 m Metrics.Data_native
      + Metrics.packets ~link:l6 m Metrics.Data_tunnelled
    in
    let data_at_converge = ref 0 in
    let pkts_at_converge = ref 0 in
    Traffic.at sc 55.0 (fun () ->
        data_at_converge := Metrics.data_bytes_on m l6;
        pkts_at_converge := packets ());
    fun () ->
      { conv_approach = approach;
        foreign_link_data_bytes = Metrics.data_bytes_on m l6 - !data_at_converge;
        foreign_link_packets = packets () - !pkts_at_converge;
        per_receiver_rx =
          List.sort Int.compare
            (List.map
               (fun h -> Host_stack.received_count (Scenario.host sc h) ~group)
               [ "R2"; "R3" ]) }
  in
  Parallel.map ~jobs
    (fun a -> run ~spec (convergence_desc ~seed:spec.Scenario.seed) a (measure a))
    convergence_approaches

(* ---- section 4.4: timer sweep ---- *)

type sweep_row = {
  tquery_s : float;
  trials : int;
  join_mean_s : float;
  join_min_s : float;
  join_max_s : float;
  leave_mean_s : float;
  wasted_mean_bytes : float;
  mld_bytes_per_s : float;
}

(* One handoff trial: the handoff phase is stratified across the query
   cycle.  Returns the descriptor, its spec and the move instant. *)
let sweep_trial ~base_seed ~trials ~unsolicited ~tquery ~trial =
  let mld =
    { (Mld.Mld_config.with_query_interval tquery Mld.Mld_config.default) with
      unsolicited_report_count = (if unsolicited then 2 else 0) }
  in
  let seed = base_seed + trial in
  let move_time = 30.0 +. tquery +. (float_of_int trial /. float_of_int trials *. tquery) in
  let horizon = move_time +. (2.2 *. tquery) +. 60.0 in
  let d =
    figure1 ~seed ~from_t:20.0
      ~name:(Printf.sprintf "sweep-tq%g-t%d" tquery trial)
      ~until:horizon ~duration:(horizon +. 10.0)
      [ move ~at:move_time "R3" "L6" ]
  in
  (d, { Scenario.default_spec with Scenario.mld; seed }, move_time)

let sweep_grid ~trials tquery_values =
  List.concat_map (fun tquery -> List.init trials (fun trial -> (tquery, trial))) tquery_values

let timer_sweep ?(base_seed = 1000) ?(trials = 8) ?(unsolicited = false)
    ?(tquery_values = [ 125.0; 60.0; 30.0; 10.0 ]) ?(jobs = 1) () =
  let run_trial (tquery, trial) =
    let d, spec, move_time = sweep_trial ~base_seed ~trials ~unsolicited ~tquery ~trial in
    run ~spec d spec.Scenario.approach (fun sc m ->
        let h = handover sc m ~host:"R3" ~from_link:"L4" ~at:move_time in
        fun () ->
          let mld_rate =
            float_of_int (Metrics.bytes m Metrics.Mld_signalling) /. d.Desc.d_duration
          in
          (h (), mld_rate))
  in
  (* Fan the whole (TQuery × trial) grid out at once — parallelizing
     only within one TQuery value would cap the speedup at [trials] —
     then fold each TQuery's slice back in trial order. *)
  let outcomes =
    Array.of_list (Parallel.map ~jobs run_trial (sweep_grid ~trials tquery_values))
  in
  let mean xs =
    if xs = [] then nan else List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  List.mapi
    (fun ti tquery ->
      let results = Array.to_list (Array.sub outcomes (ti * trials) trials) in
      let joins =
        List.filter_map
          (fun ((h : handover), _) -> Option.map Engine.Time.seconds h.join_delay_s)
          results
      in
      { tquery_s = tquery;
        trials;
        join_mean_s = mean joins;
        join_min_s = (if joins = [] then nan else List.fold_left Float.min infinity joins);
        join_max_s = (if joins = [] then nan else List.fold_left Float.max neg_infinity joins);
        leave_mean_s = mean (List.map (fun ((h : handover), _) -> h.leave_delay_s) results);
        wasted_mean_bytes =
          mean (List.map (fun (h, _) -> float_of_int h.wasted_bytes) results);
        mld_bytes_per_s = mean (List.map snd results) })
    tquery_values

(* ---- section 4.3.1: sender mobility overhead ---- *)

type overhead_row = {
  moves : int;
  asserts : int;
  flood_bytes_l5 : int;
  sg_states : int;
  total_data_bytes : int;
}

let overhead_desc ~seed moves =
  (* Spread the handoffs over the run, cycling over foreign links. *)
  let horizon = 330.0 in
  let destinations = [| "L2"; "L6"; "L3"; "L1" |] in
  figure1 ~seed
    ~name:(Printf.sprintf "sender-overhead-m%d" moves)
    ~until:horizon ~duration:(horizon +. 10.0)
    (List.init moves (fun i ->
         let k = i + 1 in
         move
           ~at:(30.0 +. (float_of_int k *. (horizon -. 60.0) /. float_of_int (moves + 1)))
           "S"
           destinations.(i mod Array.length destinations)))

let sender_overhead ?(spec = Scenario.default_spec) ?(move_counts = [ 0; 1; 2; 4; 8 ])
    ?(jobs = 1) () =
  let run_one moves =
    run ~spec (overhead_desc ~seed:spec.Scenario.seed moves) spec.Scenario.approach
      (fun sc m () ->
        { moves;
          asserts = (Metrics.control_counts m).Metrics.asserts;
          flood_bytes_l5 = Metrics.data_bytes_on m (Scenario.link sc "L5");
          sg_states = sg_states sc;
          total_data_bytes =
            Metrics.bytes m Metrics.Data_native + Metrics.bytes m Metrics.Data_tunnelled })
  in
  Parallel.map ~jobs run_one move_counts

(* ---- fault recovery ---- *)

type recovery_row = {
  rec_approach : Approach.t;
  loss_rate : float;
  recovery : Recovery.report;
}

let recovery_desc ~seed loss =
  (* R3 roams before the flap so the delivery approaches actually
     differ: native grafting vs tunnelled delivery re-converge along
     different paths when L3 comes back.  The ambient loss hits
     control traffic (Grafts, Reports, Binding Updates) too, so the
     RFC retransmission timers govern how fast delivery comes back. *)
  let ambient =
    if loss > 0.0 then [ Desc.Loss { link = "L3"; rate = loss; from_t = 0.0; until = 200.0 } ]
    else []
  in
  figure1 ~seed
    ~name:(Printf.sprintf "fault-recovery-loss%g" loss)
    ~until:200.0 ~duration:200.0
    ~faults:(ambient @ [ Desc.Flap { link = "L3"; down_at = 80.0; up_at = 100.0 } ])
    [ move ~at:50.0 "R3" "L6" ]

let recovery_default_rates = [ 0.0; 0.05; 0.15 ]

let recovery_of d spec approach =
  run ~spec d approach (fun sc _ ->
      let r = watch_flaps d ~hosts:[ "R3" ] sc in
      fun () -> Recovery.report r)

let fault_recovery ?(spec = Scenario.default_spec) ?(loss_rates = recovery_default_rates)
    ?(approaches = Approach.all) ?(jobs = 1) () =
  (* Every grid point builds its own scenario (own Sim, own RNG
     streams), so the parallel map is row-for-row identical to the
     sequential one. *)
  List.concat_map (fun loss -> List.map (fun a -> (a, loss)) approaches) loss_rates
  |> Parallel.map ~jobs (fun (approach, loss) ->
         { rec_approach = approach;
           loss_rate = loss;
           recovery = recovery_of (recovery_desc ~seed:spec.Scenario.seed loss) spec approach })

let flap_desc ~seed count =
  let horizon = 320.0 in
  figure1 ~seed
    ~name:(Printf.sprintf "flap-recovery-f%d" count)
    ~until:horizon ~duration:(horizon +. 20.0)
    ~faults:
      (List.init count (fun k ->
           let down_at = 60.0 +. (float_of_int k *. 240.0 /. float_of_int count) in
           Desc.Flap { link = "L3"; down_at; up_at = down_at +. 10.0 }))
    []

let flap_recovery ?(spec = Scenario.default_spec) ?(flap_counts = [ 1; 2; 4 ]) ?(jobs = 1)
    () =
  Parallel.map ~jobs
    (fun count ->
      let d = flap_desc ~seed:spec.Scenario.seed count in
      (count, recovery_of d spec spec.Scenario.approach))
    flap_counts

(* ---- every run ---- *)

let descriptors () =
  let spec = Scenario.default_spec in
  let seed = spec.Scenario.seed in
  let runs ?(specs = [ spec ]) approaches descs =
    List.concat_map
      (fun d ->
        List.concat_map
          (fun s -> List.map (fun approach -> (d, { s with Scenario.approach })) approaches)
          specs)
      descs
  in
  let local = [ Approach.local_membership ] in
  List.concat
    [ runs local [ fig1_desc ~seed ];
      runs ~specs:[ spec; rfc_mld ] local [ fig2_desc ~seed ];
      runs [ Approach.bidirectional_tunnel ] [ fig3_desc ~seed ];
      runs [ Approach.tunnel_to_home_agent ] [ fig4_desc ~seed ];
      runs ~specs:[ spec; rfc_mld ] Approach.all
        [ phase ~seed `Receiver; phase ~seed `Sender ];
      runs convergence_approaches [ convergence_desc ~seed ];
      List.concat_map
        (fun unsolicited ->
          List.map
            (fun (tquery, trial) ->
              let d, s, _ =
                sweep_trial ~base_seed:1000 ~trials:8 ~unsolicited ~tquery ~trial
              in
              (d, s))
            (sweep_grid ~trials:8 [ 125.0; 60.0; 30.0; 10.0 ]))
        [ false; true ];
      runs
        [ Approach.local_membership; Approach.tunnel_to_home_agent ]
        (List.map (overhead_desc ~seed) [ 0; 1; 2; 4; 8 ]);
      runs Approach.all (List.map (recovery_desc ~seed) recovery_default_rates);
      runs local (List.map (flap_desc ~seed) [ 1; 2; 4 ]) ]

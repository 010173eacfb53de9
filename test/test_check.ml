(* Tests for the runtime invariant monitor and the hardened receive
   path: the monitor stays silent on healthy runs, raises on a
   deliberately broken configuration, reports a re-crossing datagram
   as a forwarding loop, and keeps its pinned verdicts on three
   generated runs; the wire-check mode drops (and only drops)
   corrupted frames, and a looping unicast packet dies at the
   hop-limit counter instead of circulating. *)

open Mmcast

let group = Scenario.group

let soak_like_spec ?(approach = Approach.tunnel_to_home_agent) ?(seed = 11) () =
  (* The soak's tightened timers, so liveness converges well inside
     short test runs. *)
  Scale.Runner.spec_for (Scale.Gen.soak ~seed) approach

let start_cbr scenario ~until =
  ignore
    (Traffic.cbr scenario (Scenario.host scenario "S") ~group ~from_t:5.0 ~until
       ~interval:0.2 ~bytes:256)

let received scenario name = Host_stack.received_count (Scenario.host scenario name) ~group

(* ---- hop-limit expiry (regression for the forwarding-loop guard) ---- *)

let hop_limit_tests =
  [ Alcotest.test_case "unicast packet with hop limit 1 dies at the first router" `Quick
      (fun () ->
        let scenario = Scenario.paper_figure1 (soak_like_spec ()) in
        let net = scenario.Scenario.net in
        let a = Scenario.router scenario "A" in
        let s = Scenario.host scenario "S" in
        let dst = Ipv6.Addr.of_string "2001:db8:99::1" in
        (* Count every frame carrying our destination: only the
           injected one may ever appear on a wire. *)
        let seen = ref 0 in
        Net.Network.add_transmit_observer net (fun _link _ p ->
            if Ipv6.Addr.equal p.Ipv6.Packet.dst dst then incr seen);
        Traffic.at scenario 10.0 (fun () ->
            let p =
              Ipv6.Packet.make ~hop_limit:1 ~src:(Host_stack.current_source_address s)
                ~dst
                (Ipv6.Packet.Data { stream_id = 99; seq = 0; bytes = 64 })
            in
            Net.Network.transmit net ~from:(Host_stack.node_id s)
              ~link:(Scenario.link scenario "L1")
              (Net.Network.To_node (Router_stack.node_id a))
              p);
        Scenario.run_until scenario 12.0;
        Alcotest.(check int) "router A counted the expiry" 1
          (Router_stack.load a).Load.hop_limit_expired;
        Alcotest.(check int) "no forwarded copy on any link" 1 !seen)
  ]

(* ---- monitor ---- *)

let monitor_tests =
  [ Alcotest.test_case "healthy run stays violation free (all approaches)" `Slow (fun () ->
        List.iter
          (fun approach ->
            let scenario = Scenario.paper_figure1 (soak_like_spec ~approach ()) in
            let monitor = Check.Monitor.attach scenario in
            Scenario.subscribe_receivers scenario group;
            start_cbr scenario ~until:115.0;
            Traffic.at scenario 50.0 (fun () ->
                Host_stack.move_to (Scenario.host scenario "R3") (Scenario.link scenario "L6"));
            Scenario.run_until scenario 120.0;
            Check.Monitor.detach monitor;
            Alcotest.(check bool) "monitor sampled" true (Check.Monitor.samples monitor > 0);
            (match Check.Monitor.violations monitor with
             | [] -> ()
             | v :: _ ->
               Alcotest.failf "approach %s: %s" (Approach.name approach)
                 (Format.asprintf "%a" Check.Monitor.pp_violation v));
            Alcotest.(check bool) "receiver got data" true (received scenario "R3" > 0))
          Approach.all);
    Alcotest.test_case "disabling Graft is caught as a liveness violation" `Slow (fun () ->
        let base = soak_like_spec () in
        let spec =
          { base with
            Scenario.pim = { base.Scenario.pim with Pimdm.Pim_config.enable_graft = false } }
        in
        let scenario = Scenario.paper_figure1 spec in
        let monitor =
          Check.Monitor.attach
            ~config:{ Check.Monitor.default_config with Check.Monitor.sustain = Some 10.0 }
            scenario
        in
        Scenario.subscribe_receivers scenario group;
        start_cbr scenario ~until:115.0;
        (* Leave-then-rejoin prunes D's branch; without Graft the
           rejoin can only be repaired by a slow re-flood, which the
           short sustain window flags first. *)
        let r3 = Scenario.host scenario "R3" in
        Traffic.at scenario 30.0 (fun () -> Host_stack.unsubscribe r3 group);
        Traffic.at scenario 45.0 (fun () -> Host_stack.subscribe r3 group);
        Scenario.run_until scenario 120.0;
        Check.Monitor.detach monitor;
        let vs = Check.Monitor.violations monitor in
        Alcotest.(check bool) "at least one violation" true (vs <> []);
        Alcotest.(check bool) "a prune-graft or black-hole violation named the gap" true
          (List.exists
             (fun v ->
               match v.Check.Monitor.v_invariant with
               | Check.Monitor.Prune_graft | Check.Monitor.Black_hole -> true
               | _ -> false)
             vs);
        List.iter
          (fun v ->
            Alcotest.(check bool) "violation carries a trace excerpt" true
              (v.Check.Monitor.v_trace <> []))
          vs);
    Alcotest.test_case "a datagram re-crossing a link is one forwarding loop" `Quick
      (fun () ->
        let scenario = Scenario.paper_figure1 (soak_like_spec ()) in
        let net = scenario.Scenario.net in
        let topo = Net.Network.topology net in
        let monitor = Check.Monitor.attach scenario in
        (* No route leads to this source, so routers drop the copies on
           the RPF check: only the injected transmissions cross a wire. *)
        let src = Ipv6.Addr.of_string "2001:db8:99::1" in
        let limit l = 1 + List.length (Net.Topology.routers_on_link topo l) in
        let l1 = Scenario.link scenario "L1" and l2 = Scenario.link scenario "L2" in
        let send host link ~seq n =
          let p =
            Ipv6.Packet.make ~src ~dst:group
              (Ipv6.Packet.Data { stream_id = 7; seq; bytes = 64 })
          in
          for _ = 1 to n do
            Net.Network.transmit net
              ~from:(Host_stack.node_id (Scenario.host scenario host))
              ~link Net.Network.To_all p
          done
        in
        (* Up to the limit per (datagram, link) is legitimate, however
           many datagrams differ only in seq or link... *)
        Traffic.at scenario 1.0 (fun () ->
            send "S" l1 ~seq:0 (limit l1);
            send "S" l1 ~seq:1 (limit l1);
            send "R2" l2 ~seq:0 (limit l2));
        Scenario.run_until scenario 1.5;
        Alcotest.(check int) "no loop within the limit" 0
          (Check.Monitor.violation_count monitor);
        (* ...and one more crossing is a loop, reported once. *)
        Traffic.at scenario 2.0 (fun () -> send "S" l1 ~seq:0 2);
        Scenario.run_until scenario 2.5;
        Check.Monitor.detach monitor;
        match Check.Monitor.violations monitor with
        | [ v ] ->
          Alcotest.(check string) "invariant" "forwarding-loop"
            (Check.Monitor.invariant_name v.Check.Monitor.v_invariant);
          Alcotest.(check string) "where" "L1" v.Check.Monitor.v_where;
          Alcotest.(check string) "detail gives the count"
            (Printf.sprintf
               "multicast datagram (stream 7, seq 0) from 2001:db8:99::1 crossed L1 %d \
                times where at most %d sender/assert transmissions are possible"
               (limit l1 + 1) (limit l1))
            v.Check.Monitor.v_detail
        | vs -> Alcotest.failf "expected one forwarding-loop violation, got %d" (List.length vs));
    Alcotest.test_case "soak convergence bound covers every repair path" `Quick (fun () ->
        let spec = soak_like_spec () in
        let bound = Check.Monitor.bound_for_spec spec in
        Alcotest.(check bool) "bound is positive and finite" true
          (bound > 0.0 && Float.is_finite bound);
        (* Crash recovery leans on State Refresh; turning it off must
           not enlarge the bound. *)
        let without =
          { spec with
            Scenario.pim =
              { spec.Scenario.pim with Pimdm.Pim_config.state_refresh_interval = None } }
        in
        Alcotest.(check bool) "state-refresh path dominates this spec" true
          (Check.Monitor.bound_for_spec without <= bound))
  ]

(* ---- verdict pins ----

   Three monitored runs per approach that between them reach the
   multiple-querier, assert, prune-graft and black-hole paths.  Each run's verdicts are rendered one line per violation and
   pinned by digest together with the sample count, so any change to
   which violations are reported, when, where, or with what detail
   fails here. *)

let verdict_runs =
  [ ( "waxman-r25",
      Scale.Gen.scenario ~model:`Waxman ~routers:25 ~seed:42 (),
      0.5,
      [ ("assert-winner", 308); ("black-hole", 16) ] );
    ( "broken-42",
      Scale.Gen.broken ~seed:42 (),
      10.0,
      [ ("prune-graft", 4); ("black-hole", 4) ] );
    ("soak-7", Scale.Gen.soak ~seed:7, 1.0, [ ("mld-querier", 4); ("black-hole", 12) ]) ]

let verdict_pins =
  (* (run, approach number) -> (md5 of the rendered verdicts, samples) *)
  [ (("waxman-r25", 1), ("d160cb925332f692b8743df04d51cf05", 298));
    (("waxman-r25", 2), ("52018268df62202c39e04cfede25f0db", 298));
    (("waxman-r25", 3), ("52018268df62202c39e04cfede25f0db", 298));
    (("waxman-r25", 4), ("d160cb925332f692b8743df04d51cf05", 298));
    (("broken-42", 1), ("2f70567fdc22cc52697d4118a747f514", 120));
    (("broken-42", 2), ("2f70567fdc22cc52697d4118a747f514", 120));
    (("broken-42", 3), ("2f70567fdc22cc52697d4118a747f514", 120));
    (("broken-42", 4), ("2f70567fdc22cc52697d4118a747f514", 120));
    (("soak-7", 1), ("b73b0c41b78312e7cb4896f4ad226d7f", 480));
    (("soak-7", 2), ("b73b0c41b78312e7cb4896f4ad226d7f", 480));
    (("soak-7", 3), ("b73b0c41b78312e7cb4896f4ad226d7f", 480));
    (("soak-7", 4), ("b73b0c41b78312e7cb4896f4ad226d7f", 480)) ]

let render_verdicts vs =
  String.concat ""
    (List.map
       (fun v ->
         Printf.sprintf "%s|%h|%s|%s\n"
           (Check.Monitor.invariant_name v.Check.Monitor.v_invariant)
           v.Check.Monitor.v_at v.Check.Monitor.v_where v.Check.Monitor.v_detail)
       vs)

let verdict_tests =
  List.map
    (fun (name, desc, sustain, counts) ->
      Alcotest.test_case (Printf.sprintf "%s verdicts are pinned" name) `Slow (fun () ->
          let tally = Hashtbl.create 8 in
          List.iter
            (fun approach ->
              let n = Approach.number approach in
              let o = Scale.Runner.run ~sustain desc approach in
              let vs = o.Scale.Runner.out_violations in
              List.iter
                (fun v ->
                  let k = Check.Monitor.invariant_name v.Check.Monitor.v_invariant in
                  Hashtbl.replace tally k
                    (1 + Option.value (Hashtbl.find_opt tally k) ~default:0))
                vs;
              let got =
                (Digest.to_hex (Digest.string (render_verdicts vs)), o.Scale.Runner.out_samples)
              in
              Alcotest.(check (pair string int))
                (Printf.sprintf "approach %d digest and samples" n)
                (List.assoc (name, n) verdict_pins)
                got)
            Approach.all;
          let got =
            List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) tally [])
          in
          Alcotest.(check (list (pair string int)))
            "violations per invariant over all approaches"
            (List.sort compare counts) got))
    verdict_runs

(* ---- generation-gated snapshots ----

   The monitor keeps a router's PIM snapshot for as long as the
   router's generation counter stands still.  That is only sound if
   every state change a snapshot can observe moves the counter: probe
   it on the verdict-pin runs at the monitor's own sample instants. *)

let generation_oracle_test =
  Alcotest.test_case "an unmoved PIM generation means an unchanged snapshot" `Slow
    (fun () ->
      let module P = Pimdm.Pim_router in
      let probes = ref 0 and unmoved = ref 0 in
      let inspect (sc : Scenario.t) _ =
        let topo = Net.Network.topology sc.Scenario.net in
        let last = Hashtbl.create 64 in
        let check () =
          List.iter
            (fun (name, r) ->
              if not (Router_stack.is_failed r) then begin
                let p = Router_stack.pim r in
                let gen = P.generation p and snap = P.snapshot p in
                incr probes;
                (match Hashtbl.find_opt last name with
                 | Some (gen', snap') when gen = gen' ->
                   incr unmoved;
                   if snap <> snap' then
                     Alcotest.failf "%s at %.1f s: snapshot changed under generation %d" name
                       (Engine.Sim.now sc.Scenario.sim) gen
                 | Some _ | None -> ());
                Hashtbl.replace last name (gen, snap);
                List.iter
                  (fun l ->
                    let i = Net.Ids.Link_id.to_int l in
                    Alcotest.(check bool)
                      (Printf.sprintf "%s has_neighbors on iface %d" name i)
                      (P.neighbors p ~iface:i <> [])
                      (P.has_neighbors p i))
                  (Net.Topology.links_of_node topo (Router_stack.node_id r))
              end)
            sc.Scenario.routers
        in
        (* Scheduled after the monitor attached, so at each sample
           instant this probe runs right after the sample. *)
        let interval = Check.Monitor.default_config.Check.Monitor.sample_interval in
        let rec loop () =
          check ();
          ignore (Engine.Sim.schedule_after sc.Scenario.sim interval loop)
        in
        ignore (Engine.Sim.schedule_after sc.Scenario.sim interval loop)
      in
      List.iter
        (fun (_, desc, sustain, _) ->
          List.iter
            (fun approach -> ignore (Scale.Runner.run ~sustain ~inspect desc approach))
            Approach.all)
        verdict_runs;
      Alcotest.(check bool) "most probes found the generation unmoved" true
        (!unmoved * 2 > !probes))

(* The ROADMAP's 100-router Waxman cell, approach 3: the scale at which
   the monitor's generation-gated snapshots and the array routing
   tables do most of their work.  Pinned from the implementation that
   snapshotted every router at every sample and routed over map-based
   tables. *)
let waxman_r100_test =
  Alcotest.test_case "waxman-r100 approach 3 verdicts are pinned" `Slow (fun () ->
      let desc = Scale.Gen.scenario ~model:`Waxman ~routers:100 ~seed:42 () in
      let o = Scale.Runner.run ~sustain:0.5 desc (Approach.of_number 3) in
      let vs = o.Scale.Runner.out_violations in
      let count inv =
        List.length
          (List.filter (fun v -> Check.Monitor.invariant_name v.Check.Monitor.v_invariant = inv) vs)
      in
      Alcotest.(check (pair string int))
        "digest and samples"
        ("8a128b5673e2d3efb1ced6cbb344a1c4", 319)
        (Digest.to_hex (Digest.string (render_verdicts vs)), o.Scale.Runner.out_samples);
      Alcotest.(check (list (pair string int)))
        "violations per invariant"
        [ ("assert-winner", 2213); ("black-hole", 19) ]
        [ ("assert-winner", count "assert-winner"); ("black-hole", count "black-hole") ])

(* ---- wire-check mode ---- *)

let wire_tests =
  [ Alcotest.test_case "wire check is transparent on clean links" `Quick (fun () ->
        let run wire_check =
          let scenario = Scenario.paper_figure1 (soak_like_spec ~seed:5 ()) in
          Net.Network.set_wire_check scenario.Scenario.net wire_check;
          Scenario.subscribe_receivers scenario group;
          start_cbr scenario ~until:55.0;
          Scenario.run_until scenario 60.0;
          ( received scenario "R1",
            received scenario "R2",
            received scenario "R3",
            Net.Network.total_malformed_drops scenario.Scenario.net )
        in
        let r1, r2, r3, drops = run true in
        Alcotest.(check bool) "delivery happened" true (r1 > 0 && r2 > 0 && r3 > 0);
        Alcotest.(check int) "nothing malformed on clean links" 0 drops;
        Alcotest.(check (triple int int int)) "same deliveries as the fast path" (r1, r2, r3)
          (let r1', r2', r3', _ = run false in
           (r1', r2', r3')));
    Alcotest.test_case "corrupted frames are dropped and counted, not crashed on" `Quick
      (fun () ->
        let scenario = Scenario.paper_figure1 (soak_like_spec ~seed:6 ()) in
        let net = scenario.Scenario.net in
        Scenario.subscribe_receivers scenario group;
        start_cbr scenario ~until:85.0;
        let faults =
          Scenario.install_faults scenario
            [ Faults.corrupt_window
                ~link:(Scenario.link scenario "L3")
                ~rate:0.3 ~from_t:20.0 ~until:50.0 ]
        in
        Scenario.run_until scenario 90.0;
        ignore (Faults.marks_of faults);
        Alcotest.(check bool) "corrupt window auto-enabled wire checking" true
          (Net.Network.wire_check net);
        Alcotest.(check bool) "some frames were mangled and dropped" true
          (Net.Network.total_malformed_drops net > 0);
        Alcotest.(check bool) "delivery survived the corruption window" true
          (received scenario "R3" > 0))
  ]

(* ---- the forwarding-loop counter against its hash-keyed oracle ---- *)

(* The loop counter the monitor used before its per-(channel, link)
   window: one global table of (addresses, stream, seq, link) keys,
   emptied whenever it passes 65,536 of them. *)
module Tx_oracle = struct
  open Ipv6

  let mix h x = (h * 0x100000001b3) lxor x
  let finish h = (h lxor (h lsr 32)) land max_int

  module Tx_key = struct
    type t =
      | Mcast of Addr.t * Addr.t * int * int * int
      | Ucast of Addr.t * Addr.t * int * int * int
      | Tunnel of Addr.t * int * int * int

    let equal a b =
      match (a, b) with
      | Mcast (s, d, st, sq, l), Mcast (s', d', st', sq', l')
      | Ucast (s, d, st, sq, l), Ucast (s', d', st', sq', l') ->
        sq = sq' && l = l' && st = st' && Addr.equal d d' && Addr.equal s s'
      | Tunnel (d, st, sq, l), Tunnel (d', st', sq', l') ->
        sq = sq' && l = l' && st = st' && Addr.equal d d'
      | _ -> false

    let hash = function
      | Mcast (s, d, st, sq, l) ->
        finish (mix (mix (mix (mix (mix 0 (Addr.hash s)) (Addr.hash d)) st) sq) l)
      | Ucast (s, d, st, sq, l) ->
        finish (mix (mix (mix (mix (mix 1 (Addr.hash s)) (Addr.hash d)) st) sq) l)
      | Tunnel (d, st, sq, l) -> finish (mix (mix (mix (mix 2 (Addr.hash d)) st) sq) l)

    let to_string = function
      | Mcast (s, d, st, sq, l) ->
        Printf.sprintf "m|%s|%s|%d|%d|%d" (Addr.to_string s) (Addr.to_string d) st sq l
      | Ucast (s, d, st, sq, l) ->
        Printf.sprintf "u|%s|%s|%d|%d|%d" (Addr.to_string s) (Addr.to_string d) st sq l
      | Tunnel (d, st, sq, l) -> Printf.sprintf "t|%s|%d|%d|%d" (Addr.to_string d) st sq l
  end

  module Tx_counts = Hashtbl.Make (Tx_key)

  let create () = Tx_counts.create 1024

  let bump t key =
    if Tx_counts.length t > 65536 then Tx_counts.reset t;
    match Tx_counts.find_opt t key with
    | Some r ->
      incr r;
      !r
    | None ->
      Tx_counts.add t key (ref 1);
      1
end

(* A channel of the random streams: its kind and addresses. *)
type chan_kind =
  | K_mcast
  | K_ucast
  | K_tunnel

let chan_addrs i =
  ( Ipv6.Addr.of_string (Printf.sprintf "2001:db8:%x::1" (i + 1)),
    Ipv6.Addr.of_string (Printf.sprintf "ff1e::%x" (i + 1)),
    Ipv6.Addr.of_string (Printf.sprintf "2001:db8:%x::2" (i + 0x100)) )

let oracle_key kind i ~stream ~seq ~link =
  let src, grp, ucast = chan_addrs i in
  match kind with
  | K_mcast -> Tx_oracle.Tx_key.Mcast (src, grp, stream, seq, link)
  | K_ucast -> Tx_oracle.Tx_key.Ucast (src, ucast, stream, seq, link)
  | K_tunnel -> Tx_oracle.Tx_key.Tunnel (ucast, stream, seq, link)

(* One random stream: channels with their kinds, per-link limits, and
   the transmits [(chan, link, stream, seq)] in order. *)
type tx_stream = {
  kinds : chan_kind array;
  limits : int array;  (* by link, for multicast *)
  txs : (int * int * int * int) list;
}

(* Datagrams cross random links a random number of times (more than a
   link's limit is a loop, two crossings of a unicast link a duplicate).
   The crossings of each run of [Check.Tx_window.size] consecutive
   datagrams are shuffled together, so copies are duplicated and
   reordered within the window but never beyond it. *)
let gen_tx_stream =
  let open QCheck.Gen in
  let* n_chans = int_range 1 4 in
  let* n_links = int_range 1 4 in
  let* kinds = array_size (return n_chans) (oneofl [ K_mcast; K_ucast; K_tunnel ]) in
  let* limits = array_size (return n_links) (int_range 1 4) in
  let* n_dgrams = int_range 1 400 in
  let* dgrams =
    list_size (return n_dgrams)
      (let* chan = int_bound (n_chans - 1) in
       let* stream = int_range 1 2 in
       let* gap = int_range 1 3 in
       let* crossings =
         list_size (int_range 1 n_links)
           (pair (int_bound (n_links - 1))
              (frequency [ (4, return 1); (2, int_range 2 3); (1, int_range 4 7) ]))
       in
       return (chan, stream, gap, crossings))
  in
  (* Seqs climb per (channel, stream); a datagram crosses each link of
     its list once, with that link's multiplicity. *)
  let next_seq = Hashtbl.create 8 in
  let dgrams =
    List.map
      (fun (chan, stream, gap, crossings) ->
        let seq = Option.value (Hashtbl.find_opt next_seq (chan, stream)) ~default:0 + gap in
        Hashtbl.replace next_seq (chan, stream) seq;
        let crossings = List.sort_uniq (fun (a, _) (b, _) -> compare a b) crossings in
        List.concat_map
          (fun (link, n) -> List.init n (fun _ -> (chan, link, stream, seq)))
          crossings)
      dgrams
  in
  let rec chunks acc = function
    | [] -> return (List.rev acc)
    | l ->
      let chunk = List.filteri (fun i _ -> i < Check.Tx_window.size) l in
      let rest = List.filteri (fun i _ -> i >= Check.Tx_window.size) l in
      let* shuffled = shuffle_l (List.concat chunk) in
      chunks (shuffled :: acc) rest
  in
  let* txs = chunks [] dgrams in
  return { kinds; limits; txs = List.concat txs }

(* The forwarding-loop findings of one counter over a stream: each
   over-limit transmission's key and count, first report per key only,
   as the monitor dedups them. *)
let findings st count =
  let reported = Hashtbl.create 8 in
  List.filter_map
    (fun (chan, link, stream, seq) ->
      let n = count (chan, link, stream, seq) in
      let limit =
        match st.kinds.(chan) with
        | K_mcast -> st.limits.(link)
        | K_ucast | K_tunnel -> 2
      in
      let key = Tx_oracle.Tx_key.to_string (oracle_key st.kinds.(chan) chan ~stream ~seq ~link) in
      if n > limit && not (Hashtbl.mem reported key) then begin
        Hashtbl.replace reported key ();
        Some (key, n)
      end
      else None)
    st.txs

let window_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"the window counter reports the hash counter's loops"
         (QCheck.make
            ~print:(fun st ->
              String.concat " "
                (List.map (fun (c, l, s, q) -> Printf.sprintf "(%d,%d,%d,%d)" c l s q) st.txs))
            gen_tx_stream)
         (fun st ->
           let oracle = Tx_oracle.create () in
           let window = Check.Tx_window.create ~links:1 in
           let by_oracle =
             findings st (fun (chan, link, stream, seq) ->
                 Tx_oracle.bump oracle (oracle_key st.kinds.(chan) chan ~stream ~seq ~link))
           in
           let by_window =
             findings st (fun (chan, link, stream, seq) ->
                 Check.Tx_window.bump window ~chan ~link ~stream ~seq)
           in
           by_oracle = by_window));
    Alcotest.test_case "a copy beyond the window starts a fresh count" `Quick (fun () ->
        let w = Check.Tx_window.create ~links:2 in
        let bump seq = Check.Tx_window.bump w ~chan:0 ~link:1 ~stream:5 ~seq in
        Alcotest.(check int) "first crossing" 1 (bump 0);
        Alcotest.(check int) "second crossing" 2 (bump 0);
        for seq = 1 to Check.Tx_window.size - 1 do
          ignore (bump seq)
        done;
        Alcotest.(check int) "still in the window" 3 (bump 0);
        ignore (bump Check.Tx_window.size);
        Alcotest.(check int) "pushed out by the next datagram" 1 (bump 0);
        Alcotest.(check int) "another link counts apart" 1
          (Check.Tx_window.bump w ~chan:0 ~link:0 ~stream:5 ~seq:0);
        Alcotest.(check int) "another channel counts apart" 1
          (Check.Tx_window.bump w ~chan:3 ~link:1 ~stream:5 ~seq:0));
    Alcotest.test_case "a loop after 65,536 transmissions on other channels is reported once"
      `Quick (fun () ->
        let scenario = Scenario.paper_figure1 (soak_like_spec ()) in
        let net = scenario.Scenario.net in
        let topo = Net.Network.topology net in
        let monitor = Check.Monitor.attach scenario in
        let l1 = Scenario.link scenario "L1" in
        let limit = 1 + List.length (Net.Topology.routers_on_link topo l1) in
        let from = Host_stack.node_id (Scenario.host scenario "S") in
        (* Unroutable sources: routers drop every copy on the RPF check. *)
        let send ~src ~seq =
          Net.Network.transmit net ~from ~link:l1 Net.Network.To_all
            (Ipv6.Packet.make ~src ~dst:group
               (Ipv6.Packet.Data { stream_id = 7; seq; bytes = 64 }))
        in
        let loop_src = Ipv6.Addr.of_string "2001:db8:99::1" in
        let others = 8 and batch = 1024 in
        let per_channel = (65536 / others) + 1 in
        (* The loop's first crossing, then more than 65,536 distinct
           datagrams on eight other channels of the same link — the old
           counter emptied its table in between — then the crossings
           that make it a loop. *)
        Traffic.at scenario 1.0 (fun () -> send ~src:loop_src ~seq:0);
        let sent = ref 0 in
        for b = 0 to (others * per_channel / batch) + 1 do
          Traffic.at scenario (1.0 +. (0.001 *. float_of_int (b + 1))) (fun () ->
              for _ = 1 to batch do
                if !sent < others * per_channel then begin
                  let k = !sent in
                  incr sent;
                  let src = Printf.sprintf "2001:db8:98::%x" ((k mod others) + 1) in
                  send ~src:(Ipv6.Addr.of_string src) ~seq:(k / others)
                end
              done)
        done;
        Traffic.at scenario 1.5 (fun () ->
            for _ = 1 to limit do
              send ~src:loop_src ~seq:0
            done);
        Scenario.run_until scenario 2.0;
        Check.Monitor.detach monitor;
        Alcotest.(check bool) "more than 65,536 other transmissions" true (!sent > 65536);
        match Check.Monitor.violations monitor with
        | [ v ] ->
          Alcotest.(check string) "invariant" "forwarding-loop"
            (Check.Monitor.invariant_name v.Check.Monitor.v_invariant);
          Alcotest.(check string) "where" "L1" v.Check.Monitor.v_where;
          Alcotest.(check string) "today's detail"
            (Printf.sprintf
               "multicast datagram (stream 7, seq 0) from 2001:db8:99::1 crossed L1 %d \
                times where at most %d sender/assert transmissions are possible"
               (limit + 1) limit)
            v.Check.Monitor.v_detail
        | vs -> Alcotest.failf "expected one forwarding-loop violation, got %d" (List.length vs))
  ]

(* ---- the sampled checks against the oracle ----

   [Monitor_oracle] is the monitor before its samples were gated on MLD
   and PIM generations, host arrays and candidate lists.  Both watch
   the same generated runs — faults, impairment windows, crashes,
   handoffs, churn and the graft-disabled variant, under short and
   default convergence bounds — and must report the same violations
   in the same order, and take the same number of samples. *)

type oracle_run = { o_kind : int; o_seed : int; o_approach : int; o_sustain : float option }

let oracle_desc r =
  match r.o_kind with
  | 0 ->
    Scale.Gen.scenario
      ~model:(if r.o_seed mod 2 = 0 then `Waxman else `Pref)
      ~routers:(6 + (r.o_seed mod 20))
      ~mobiles:(r.o_seed mod 3) ~churn:(r.o_seed mod 4) ~faults:(1 + (r.o_seed mod 3))
      ~seed:r.o_seed ()
  | 1 -> Scale.Gen.soak ~seed:r.o_seed
  | 2 -> Scale.Gen.broken ~seed:r.o_seed ()
  | _ -> Scale.Gen.clean ~seed:r.o_seed ()

let oracle_sustains = [| None; Some 0.5; Some 1.0; Some 10.0 |]

let gen_oracle_run =
  QCheck.Gen.(
    map
      (fun (k, seed, a, s) ->
        { o_kind = k; o_seed = seed; o_approach = a; o_sustain = oracle_sustains.(s) })
      (quad (int_bound 3) (int_range 1 500) (int_range 1 4) (int_bound 3)))

let print_oracle_run r =
  Printf.sprintf "%s approach %d sustain %s"
    (oracle_desc r).Scale.Desc.d_name r.o_approach
    (match r.o_sustain with None -> "default" | Some s -> Printf.sprintf "%g" s)

(* The querier check re-derives a link only when an MLD generation
   moved, so at every sample instant a router interface whose
   generation stands still must read as running and querier as it did
   at the previous instant. *)
let probe_mld_generations (sc : Scenario.t) =
  let last = Hashtbl.create 32 in
  let check () =
    List.iter
      (fun (name, r) ->
        List.iter
          (fun l ->
            match Router_stack.mld_on r l with
            | None -> ()
            | Some m ->
              let module M = Mld.Mld_router in
              let key = (name, Net.Ids.Link_id.to_int l) in
              let now = (M.generation m, M.is_running m, M.is_querier m) in
              (match Hashtbl.find_opt last key with
               | Some (m', (gen', _, _ as before)) when m' == m && gen' = M.generation m ->
                 if before <> now then
                   Alcotest.failf "%s on link %d at %.1f s: role or running changed under MLD \
                                   generation %d"
                     name (snd key) (Engine.Sim.now sc.Scenario.sim) gen'
               | Some _ | None -> ());
              Hashtbl.replace last key (m, now))
          (Net.Topology.links_of_node (Net.Network.topology sc.Scenario.net)
             (Router_stack.node_id r)))
      sc.Scenario.routers
  in
  let interval = Check.Monitor.default_config.Check.Monitor.sample_interval in
  let rec loop () =
    check ();
    ignore (Engine.Sim.schedule_after sc.Scenario.sim interval loop)
  in
  ignore (Engine.Sim.schedule_after sc.Scenario.sim interval loop)

(* Each run's verdicts from both monitors, as (invariant, at, where,
   detail) lists, and both sample counts. *)
let against_oracle r =
  let oracle = ref None in
  let inspect sc faults =
    let config =
      { Monitor_oracle.default_config with Monitor_oracle.sustain = r.o_sustain }
    in
    oracle := Some (Monitor_oracle.attach ~config ~faults sc);
    probe_mld_generations sc
  in
  let o =
    Scale.Runner.run ?sustain:r.o_sustain ~inspect (oracle_desc r) (Approach.of_number r.o_approach)
  in
  let m = Option.get !oracle in
  let ours =
    List.map
      (fun v ->
        Check.Monitor.
          (invariant_name v.v_invariant, v.v_at, v.v_where, v.v_detail))
      o.Scale.Runner.out_violations
  and theirs =
    List.map
      (fun v ->
        Monitor_oracle.(invariant_name v.v_invariant, v.v_at, v.v_where, v.v_detail))
      (Monitor_oracle.violations m)
  in
  (ours, o.Scale.Runner.out_samples, theirs, Monitor_oracle.samples m)

let render_verdict (inv, at, where, detail) = Printf.sprintf "[%.3f] %s %s: %s" at inv where detail

let oracle_tests =
  let seen = Hashtbl.create 8 in
  let agree =
    QCheck.Test.make ~count:100 ~name:"the gated samples report what the oracle reports"
      (QCheck.make ~print:print_oracle_run gen_oracle_run)
      (fun r ->
        let ours, samples, theirs, oracle_samples = against_oracle r in
        List.iter (fun (inv, _, _, _) -> Hashtbl.replace seen inv ()) theirs;
        if ours <> theirs || samples <> oracle_samples then
          QCheck.Test.fail_reportf "samples %d vs the oracle's %d@.ours:@.%s@.oracle:@.%s" samples
            oracle_samples
            (String.concat "\n" (List.map render_verdict ours))
            (String.concat "\n" (List.map render_verdict theirs))
        else true)
  in
  [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 27 |]) agree;
    (* Guards the property against vacuity: the generated runs must have
       made the oracle report violations of every sampled invariant. *)
    Alcotest.test_case "the generated runs reach every sampled check" `Quick (fun () ->
        List.iter
          (fun inv ->
            if not (Hashtbl.mem seen inv) then
              Alcotest.failf "no generated run raised %s" inv)
          [ "mld-querier"; "assert-winner"; "prune-graft"; "black-hole" ]) ]

(* ---- cost of a quiet sample ---- *)

(* From 50 s to 55 s the clean twin is settled: the flap ended at 46 s,
   no handoff or subscription change follows, and the stream still
   flows, so every sample is quiet.  With the engine's profiling clock
   set to [Gc.minor_words], the "monitor" category sums the words each
   sample allocated, and a "probe" event that only reschedules itself
   at the same period measures what the engine and the profiler's
   wrapper add to any such event. *)
let sample_words () =
  let desc = Scale.Gen.clean ~seed:42 () in
  let profile = ref [] in
  let inspect (sc : Scenario.t) _ =
    let sim = sc.Scenario.sim in
    ignore (Engine.Sim.schedule_at sim 55.25 (fun () -> profile := Engine.Sim.profile sim));
    (* Samples scheduled from 50 s on are wrapped by the profiler. *)
    let interval = Check.Monitor.default_config.Check.Monitor.sample_interval in
    let rec probe () = ignore (Engine.Sim.schedule_after ~category:"probe" sim interval probe) in
    ignore
      (Engine.Sim.schedule_at sim 49.75 (fun () ->
           Engine.Sim.enable_profiling ~clock:Gc.minor_words sim;
           probe ()))
  in
  let o = Scale.Runner.run ~inspect desc (Approach.of_number 3) in
  Alcotest.(check int) "the clean twin stays clean" 0
    (List.length o.Scale.Runner.out_violations);
  let per_event category =
    match List.assoc_opt category !profile with
    | None -> Alcotest.failf "no %s event ran in the settled stretch" category
    | Some p -> p.Engine.Sim.cat_seconds /. float_of_int p.Engine.Sim.cat_events
  in
  per_event "monitor" -. per_event "probe"

let cost_tests =
  [ Alcotest.test_case "a quiet sample allocates a bounded handful of words" `Quick
      (fun () ->
        let words = sample_words () in
        Printf.printf "minor words per settled sample: %.1f\n%!" words;
        if words > 16.0 then
          Alcotest.failf "%.1f minor words per settled sample (bound 16)" words)
  ]

let () =
  Alcotest.run "check"
    [ ("hop_limit", hop_limit_tests);
      ("monitor", monitor_tests);
      ("verdicts", verdict_tests @ [ waxman_r100_test; generation_oracle_test ]);
      ("wire", wire_tests);
      ("window", window_tests);
      ("oracle", oracle_tests);
      ("cost", cost_tests)
    ]

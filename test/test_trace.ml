(* Trace events as values: each constructor's rendering against the
   format string it replaced, kept here verbatim, and the allocation
   of recording one. *)

open Ipv6
module G = QCheck.Gen

(* Addresses with zero groups often enough to exercise every
   "::"-compression case: runs at either end, in the middle, two runs
   of which the first longest wins, and a lone zero group. *)
let addr =
  G.(
    map
      (fun gs ->
        let half a = Array.fold_left (fun acc g -> Int64.(logor (shift_left acc 16) (of_int g))) 0L a in
        Addr.make (half (Array.sub gs 0 4)) (half (Array.sub gs 4 4)))
      (array_repeat 8 (frequency [ (3, return 0); (1, int_bound 0xf); (2, int_bound 0xffff) ])))

let label = G.oneofl [ "A/L1"; "R3"; "HA1/L2"; "RouterD/Link4"; ""; "S: x" ]
let name = G.oneofl [ "L1"; "B3"; "S0"; "N4"; "L10"; "" ]
let number = G.(frequency [ (4, int_bound 64); (1, int); (1, map Int.neg (int_bound 100)) ])

(* Durations in each of [Time.render]'s branches, and its edges. *)
let duration =
  G.(
    oneof
      [ float_bound_exclusive 1.0;
        float_range 1.0 119.999;
        float_range 120.0 1e6;
        map Float.neg (float_bound_exclusive 100.0);
        oneofl [ 0.0; -0.0; 0.99995; 1.0; 119.9996; 120.0; Float.infinity; Float.nan ] ])

let rate = G.(oneof [ float_bound_inclusive 1.0; oneofl [ 0.005; 0.125; 0.995; 1.0 ] ])

let a = Addr.to_string

(* One generator per constructor: the event and its old rendering. *)
let cases : (string * (Engine.Trace.event * string) G.t) list =
  let open G in
  let sg f = map3 (fun l s g -> f l s g) label addr addr in
  let sg_int f = map2 (fun (l, s, g) i -> f l s g i) (triple label addr addr) number in
  let old l fmt = Format.asprintf ("%s: " ^^ fmt) l in
  [ ( "pim neighbor",
      map3
        (fun l ad iface ->
          ( Pimdm.Pim_event.Neighbor { label = l; addr = ad; iface },
            old l "neighbor %s on iface %d" (a ad) iface ))
        label addr number );
    ( "pim state created",
      map3
        (fun (l, s, g) iif up ->
          ( Pimdm.Pim_event.State_created { label = l; source = s; group = g; iif; upstream = up },
            old l "(%s,%s) state created, iif %d upstream %s" (a s) (a g) iif
              (match up with Some u -> a u | None -> "direct") ))
        (triple label addr addr) number (opt addr) );
    ( "pim state expired",
      sg (fun l s g ->
          ( Pimdm.Pim_event.State_expired { label = l; source = s; group = g },
            old l "(%s,%s) state expired" (a s) (a g) )) );
    ( "pim state refresh originated",
      sg (fun l s g ->
          ( Pimdm.Pim_event.State_refresh_originated { label = l; source = s; group = g },
            old l "(%s,%s) state refresh originated" (a s) (a g) )) );
    ( "pim pruned upstream",
      sg_int (fun l s g i ->
          ( Pimdm.Pim_event.Pruned_upstream { label = l; source = s; group = g; iface = i },
            old l "(%s,%s) pruned upstream via iface %d" (a s) (a g) i )) );
    ( "pim graft sent",
      sg (fun l s g ->
          ( Pimdm.Pim_event.Graft_sent { label = l; source = s; group = g },
            old l "(%s,%s) graft sent upstream" (a s) (a g) )) );
    ( "pim graft retransmitted",
      sg (fun l s g ->
          ( Pimdm.Pim_event.Graft_retransmitted { label = l; source = s; group = g },
            old l "(%s,%s) graft retransmitted" (a s) (a g) )) );
    ( "pim graft acknowledged",
      sg (fun l s g ->
          ( Pimdm.Pim_event.Graft_acknowledged { label = l; source = s; group = g },
            old l "(%s,%s) graft acknowledged" (a s) (a g) )) );
    ( "pim grafted",
      sg_int (fun l s g i ->
          ( Pimdm.Pim_event.Grafted { label = l; source = s; group = g; iface = i },
            old l "(%s,%s) grafted iface %d" (a s) (a g) i )) );
    ( "pim join override sent",
      sg (fun l s g ->
          ( Pimdm.Pim_event.Join_override_sent { label = l; source = s; group = g },
            old l "(%s,%s) join override sent" (a s) (a g) )) );
    ( "pim prune pending",
      sg_int (fun l s g i ->
          ( Pimdm.Pim_event.Prune_pending { label = l; source = s; group = g; iface = i },
            old l "(%s,%s) prune pending on iface %d (TPruneDel window)" (a s) (a g) i )) );
    ( "pim join cancels prune",
      sg_int (fun l s g i ->
          ( Pimdm.Pim_event.Join_cancels_prune { label = l; source = s; group = g; iface = i },
            old l "(%s,%s) join cancels prune on iface %d" (a s) (a g) i )) );
    ( "pim assert sent",
      sg_int (fun l s g i ->
          ( Pimdm.Pim_event.Assert_sent { label = l; source = s; group = g; iface = i },
            old l "(%s,%s) assert sent on iface %d" (a s) (a g) i )) );
    ( "pim assert winner",
      map2
        (fun (l, s, g) w ->
          ( Pimdm.Pim_event.Assert_winner_upstream { label = l; source = s; group = g; winner = w },
            old l "(%s,%s) assert winner %s is new upstream" (a s) (a g) (a w) ))
        (triple label addr addr) addr );
    ( "pim lost assert",
      map3
        (fun (l, s, g) i w ->
          ( Pimdm.Pim_event.Lost_assert { label = l; source = s; group = g; iface = i; winner = w },
            old l "(%s,%s) lost assert on iface %d to %s" (a s) (a g) i (a w) ))
        (triple label addr addr) number addr );
    ( "pim unroutable source",
      map2
        (fun l s ->
          ( Pimdm.Pim_event.Unroutable_source { label = l; source = s },
            old l "data from unroutable source %s dropped" (a s) ))
        label addr );
    (* MLD *)
    ( "mld joined",
      map2 (fun l g -> (Mld.Mld_event.Joined { label = l; group = g }, old l "joined %s" (a g))) label addr );
    ( "mld left",
      map2 (fun l g -> (Mld.Mld_event.Left { label = l; group = g }, old l "left %s" (a g))) label addr );
    ( "mld report sent",
      map2
        (fun l g -> (Mld.Mld_event.Report_sent { label = l; group = g }, old l "sent report for %s" (a g)))
        label addr );
    ( "mld report suppressed",
      map2
        (fun l g ->
          ( Mld.Mld_event.Report_suppressed { label = l; group = g },
            old l "suppressed report for %s" (a g) ))
        label addr );
    ( "mld response scheduled",
      map3
        (fun l g d ->
          ( Mld.Mld_event.Response_scheduled { label = l; group = g; delay = d },
            old l "response for %s scheduled in %a" (a g) Time_oracle.pp d ))
        label addr duration );
    ( "mld done sent",
      map2
        (fun l g -> (Mld.Mld_event.Done_sent { label = l; group = g }, old l "sent done for %s" (a g)))
        label addr );
    ( "mld general query",
      map (fun l -> (Mld.Mld_event.General_query_sent l, old l "sent general query")) label );
    ( "mld group query",
      map2
        (fun l g ->
          ( Mld.Mld_event.Group_query_sent { label = l; group = g },
            old l "sent group-specific query for %s" (a g) ))
        label addr );
    ( "mld new listener",
      map2
        (fun l g -> (Mld.Mld_event.New_listener { label = l; group = g }, old l "new listener for %s" (a g)))
        label addr );
    ( "mld no listeners",
      map2
        (fun l g ->
          (Mld.Mld_event.No_listeners { label = l; group = g }, old l "no more listeners for %s" (a g)))
        label addr );
    ( "mld querier resumed",
      map
        (fun l ->
          (Mld.Mld_event.Querier_resumed l, old l "other querier timed out; resuming querier role"))
        label );
    ( "mld querier deferred",
      map (fun l -> (Mld.Mld_event.Querier_deferred l, old l "deferring to lower-address querier")) label );
    (* Mobile IPv6 *)
    ( "mipv6 binding update",
      map3
        (fun (l, seq) coa n ->
          ( Mipv6.Mipv6_event.Binding_update_sent { label = l; sequence = seq; care_of = coa; groups = n },
            old l "binding update #%d (coa %s, %d groups)" seq (a coa) n ))
        (pair label number) addr number );
    ( "mipv6 deregistration",
      map (fun l -> (Mipv6.Mipv6_event.Deregistration_sent l, old l "deregistration sent")) label );
    ( "mipv6 acknowledged",
      map2
        (fun l seq ->
          ( Mipv6.Mipv6_event.Binding_acknowledged { label = l; sequence = seq },
            old l "binding #%d acknowledged" seq ))
        label number );
    ( "mipv6 rejected",
      map3
        (fun l seq status ->
          ( Mipv6.Mipv6_event.Binding_rejected { label = l; sequence = seq; status },
            old l "binding #%d rejected with status %d" seq status ))
        label number number );
    (* the network *)
    ( "net link set",
      map2
        (fun link up ->
          ( Net.Net_event.Link_set { link; up },
            Format.asprintf "link %s %s" link (if up then "up" else "down") ))
        name bool );
    ( "net blocked",
      map (fun link -> (Net.Net_event.Blocked link, Format.asprintf "blocked: %s is down" link)) name );
    ( "net not attached",
      map2
        (fun node link ->
          ( Net.Net_event.Not_attached { node; link },
            Format.asprintf "drop: %s not attached to %s" node link ))
        name name );
    ( "net malformed frame",
      map3
        (fun node link reason ->
          ( Net.Net_event.Malformed_frame { node; link; reason },
            Format.asprintf "%s dropped malformed frame on %s: %s" node link reason ))
        name name (oneofl [ "truncated"; "bad checksum"; "" ]) );
    (* fault injection *)
    ( "fault window opened",
      map3
        (fun link r (kind, jitter) ->
          let window, text =
            match kind with
            | 0 -> (Faults.Loss, Printf.sprintf "loss %.2f on %s" r link)
            | 1 -> (Faults.Duplication, Printf.sprintf "duplication %.2f on %s" r link)
            | 2 ->
              ( Faults.Reordering { jitter = Printf.sprintf "%g" jitter },
                Printf.sprintf "reordering %.2f (max +%gs) on %s" r jitter link )
            | _ -> (Faults.Corruption, Printf.sprintf "corruption %.2f on %s" r link)
          in
          (Faults.Window_opened { window; link; rate = r }, Format.asprintf "%s" text))
        name rate
        (pair (int_bound 3)
           (oneof [ float_bound_exclusive 1.0; oneofl [ 0.05; 1e-5; 1e7; 123456.5; 0.0 ] ])) );
    ( "fault window closed",
      map2
        (fun link kind ->
          let window, text =
            match kind with
            | 0 -> (Faults.Loss, Printf.sprintf "loss window on %s closed" link)
            | 1 -> (Faults.Duplication, Printf.sprintf "duplication window on %s closed" link)
            | 2 -> (Faults.Reordering { jitter = "0.1" }, Printf.sprintf "reorder window on %s closed" link)
            | _ -> (Faults.Corruption, Printf.sprintf "corruption window on %s closed" link)
          in
          (Faults.Window_closed { window; link }, Format.asprintf "%s" text))
        name (int_bound 3) );
    ( "fault crash",
      map (fun n -> (Faults.Crashed n, Format.asprintf "crash %s" n)) name );
    ( "fault restart",
      map (fun n -> (Faults.Restarted n, Format.asprintf "restart %s" n)) name );
    (* host and router stacks *)
    ( "node no on-link neighbour",
      map2
        (fun l d ->
          ( Mmcast.Node_event.No_on_link_neighbour { label = l; dst = d },
            old l "no on-link neighbour for %s" (a d) ))
        label addr );
    ( "node no router",
      map2
        (fun l link -> (Mmcast.Node_event.No_router { label = l; link }, old l "no router on %s" link))
        label name );
    ( "node movement detected",
      map2
        (fun l link ->
          ( Mmcast.Node_event.Movement_detected { label = l; link },
            old l "movement detected via router advertisement on %s" link ))
        label name );
    ( "node back home",
      map2
        (fun l link -> (Mmcast.Node_event.Back_home { label = l; link }, old l "back home on %s" link))
        label name );
    ( "node care-of address",
      map3
        (fun l coa link ->
          ( Mmcast.Node_event.Care_of_address { label = l; care_of = coa; link },
            old l "care-of address %s on %s" (a coa) link ))
        label addr name );
    ( "node handoff",
      map3
        (fun l f t ->
          ( Mmcast.Node_event.Handoff { label = l; from_link = f; to_link = t },
            old l "handoff %s -> %s" f t ))
        label name name );
    ( "node no neighbour",
      map2
        (fun l d ->
          ( Mmcast.Node_event.No_neighbour { label = l; dst = d },
            old l "no neighbour for %s, dropped" (a d) ))
        label addr );
    ( "node unreachable",
      map2
        (fun l d ->
          (Mmcast.Node_event.Unreachable { label = l; dst = d }, old l "unreachable %s, dropped" (a d)))
        label addr );
    ( "node hop limit",
      map2
        (fun l d ->
          ( Mmcast.Node_event.Hop_limit_exceeded { label = l; dst = d },
            old l "hop limit exceeded for %s" (a d) ))
        label addr );
    ( "node reverse tunnel",
      map2
        (fun l s ->
          ( Mmcast.Node_event.Reverse_tunnel_not_home { label = l; src = s },
            old l "reverse-tunnelled packet from %s not for a local home link" (a s) ))
        label addr );
    ( "node provisioned",
      map3
        (fun l h i ->
          ( Mmcast.Node_event.Mobile_host_provisioned { label = l; home = h; iface = i },
            old l "provisioned mobile host %s on tunnel iface %d" (a h) i ))
        label addr number );
    ( "node binding added",
      map3
        (fun (l, h) coa n ->
          ( Mmcast.Node_event.Binding_added { label = l; home = h; care_of = coa; groups = n },
            old l "binding %s -> %s (%d groups)" (a h) (a coa) n ))
        (pair label addr) addr number );
    ( "node binding removed",
      map2
        (fun l h ->
          (Mmcast.Node_event.Binding_removed { label = l; home = h }, old l "binding for %s removed" (a h)))
        label addr );
    ( "node binding request",
      map2
        (fun l c ->
          ( Mmcast.Node_event.Binding_request_sent { label = l; care_of = c },
            old l "binding request sent to %s" (a c) ))
        label addr );
    ( "node update without home address",
      map
        (fun l ->
          ( Mmcast.Node_event.Update_without_home_address l,
            old l "binding update without home address option, ignored" ))
        label );
    ( "node update for unserved home",
      map2
        (fun l h ->
          ( Mmcast.Node_event.Update_for_unserved_home { label = l; home = h },
            old l "binding update for unserved home %s, ignored" (a h) ))
        label addr );
    ( "node home agent active",
      map2
        (fun l link ->
          (Mmcast.Node_event.Home_agent_active { label = l; link }, old l "active home agent for %s" link))
        label name );
    ( "node home agent standby",
      map2
        (fun l link ->
          ( Mmcast.Node_event.Home_agent_standby { label = l; link },
            old l "standby home agent for %s" link ))
        label name );
    ( "node home agent peer",
      map3
        (fun l p pr ->
          ( Mmcast.Node_event.Home_agent_peer { label = l; peer = p; priority = pr },
            old l "home-agent peer %s (priority %d)" (a p) pr ))
        label addr number );
    ( "node home agent peer timed out",
      map2
        (fun l p ->
          ( Mmcast.Node_event.Home_agent_peer_timed_out { label = l; peer = p },
            old l "home-agent peer %s timed out" (a p) ))
        label addr );
    ( "node crashed", map (fun l -> (Mmcast.Node_event.Crashed l, old l "crashed")) label );
    ( "node recovered", map (fun l -> (Mmcast.Node_event.Recovered l, old l "recovered")) label ) ]

let render_tests =
  [ Alcotest.test_case "every event renders as its old format string" `Quick (fun () ->
        let rand = Random.State.make [| 31 |] in
        List.iter
          (fun (what, gen) ->
            List.iter
              (fun (event, expected) ->
                let actual = Engine.Trace.render event in
                if not (String.equal actual expected) then
                  Alcotest.failf "%s: rendered %S, the format string gives %S" what actual expected)
              (G.generate ~rand ~n:300 gen))
          cases);
    Alcotest.test_case "the digest line is the rendering, behind time and category" `Quick
      (fun () ->
        (* The digest hashes "%.9f|category|message\n" per record: the
           event must render into the trace's line exactly as alone. *)
        let rand = Random.State.make [| 32 |] in
        let sim = Engine.Sim.create () in
        let tr = Engine.Trace.create sim in
        let lines = ref [] in
        List.iter
          (fun (_, gen) ->
            List.iter
              (fun (event, expected) ->
                Engine.Trace.record tr ~category:"c" event;
                lines := Digest.string (Printf.sprintf "%.9f|c|%s\n" 0.0 expected) :: !lines)
              (G.generate ~rand ~n:5 gen))
          cases;
        Alcotest.(check string) "digest"
          (Digest.to_hex (Digest.string (String.concat "" (List.rev !lines))))
          (Engine.Trace.digest tr));
    Alcotest.test_case "an event nobody registered is refused loudly" `Quick (fun () ->
        let module M = struct
          type Engine.Trace.event += Unregistered
        end in
        Alcotest.check_raises "render"
          (Invalid_argument "Trace: an event with no registered renderer") (fun () ->
            ignore (Engine.Trace.render M.Unregistered));
        Alcotest.check_raises "register after a trace exists"
          (Invalid_argument "Trace.register: a trace already exists") (fun () ->
            ignore (Engine.Trace.create (Engine.Sim.create ()));
            Engine.Trace.register (fun _ _ -> false)))
  ]

(* Minor words per [Trace.record] of an assert event, the event built
   at the call as the PIM router builds it, once the ring is full (so
   each record also folds, renders and digests the one the ring
   drops).  With [Format] on the recording path it was 277. *)
let cost_tests =
  [ Alcotest.test_case "recording an assert event allocates at most 16 words" `Quick
      (fun () ->
        let sim = Engine.Sim.create () in
        let tr = Engine.Trace.create sim in
        let source = Addr.of_string "2001:db8:100::1:0:0:5" in
        let group = Addr.of_string "ff1e::1" in
        let label = "RouterD/Link4" in
        let record iface =
          Engine.Trace.record tr ~category:"pim"
            (Pimdm.Pim_event.Assert_sent { label; source; group; iface })
        in
        (* Fill the ring and grow the line and the partials buffer. *)
        for i = 1 to 5000 do
          record i
        done;
        let n = 1000 in
        let before = Gc.minor_words () in
        for i = 1 to n do
          record i
        done;
        let per_record = (Gc.minor_words () -. before) /. float_of_int n in
        if per_record > 16.0 then
          Alcotest.failf "recording an assert event allocates %.1f words" per_record)
  ]

let () = Alcotest.run "trace" [ ("events", render_tests); ("cost", cost_tests) ]

open Ipv6
open Net
open Mmcast
module Link_id = Ids.Link_id
module P = Pimdm.Pim_router

type invariant =
  | Assert_winner
  | Mld_querier
  | Forwarding_loop
  | Prune_graft
  | Tunnel_coherence
  | Black_hole

let invariant_name = function
  | Assert_winner -> "assert-winner"
  | Mld_querier -> "mld-querier"
  | Forwarding_loop -> "forwarding-loop"
  | Prune_graft -> "prune-graft"
  | Tunnel_coherence -> "tunnel-coherence"
  | Black_hole -> "black-hole"

let all_invariants =
  [ Assert_winner; Mld_querier; Forwarding_loop; Prune_graft; Tunnel_coherence;
    Black_hole ]

let invariant_of_name name =
  List.find_opt (fun i -> String.equal (invariant_name i) name) all_invariants

type violation = {
  v_invariant : invariant;
  v_at : Engine.Time.t;
  v_where : string;
  v_detail : string;
  v_trace : Engine.Trace.record list;
  v_chain : string list;
}

type config = {
  sample_interval : Engine.Time.t;
  sustain : Engine.Time.t option;
  trace_excerpt : int;
}

let default_config = { sample_interval = 0.5; sustain = None; trace_excerpt = 12 }

let bound_for_spec (spec : Scenario.spec) =
  let mld = spec.Scenario.mld in
  let pim = spec.Scenario.pim in
  let mip = spec.Scenario.mipv6 in
  (* Worst-case control-plane repair: detect the movement, wait out a
     full MLD query/report cycle, let the prune-override and a couple
     of graft retries play out, and allow the Binding Update
     retransmission backoff (1+2+4 s) to push a registration through. *)
  let control_path =
    mip.Mipv6.Mipv6_config.movement_detection_delay
    +. mld.Mld.Mld_config.query_interval
    +. mld.Mld.Mld_config.query_response_interval
    +. pim.Pimdm.Pim_config.prune_delay
    +. (2.0 *. pim.Pimdm.Pim_config.graft_retry)
    +. pim.Pimdm.Pim_config.join_override_max
    +. (7.0 *. mip.Mipv6.Mipv6_config.ack_initial_timeout)
  (* A binding damaged on the wire (destination options carry no
     checksum) self-heals at the next refresh. *)
  and binding_path =
    (mip.Mipv6.Mipv6_config.refresh_fraction *. mip.Mipv6.Mipv6_config.binding_lifetime)
    +. (7.0 *. mip.Mipv6.Mipv6_config.ack_initial_timeout)
  (* A restarted router rebuilds pruned-branch state from State
     Refresh (when enabled): re-learn membership over a query cycle,
     wait out a refresh period, let an Assert re-elect around the
     restart, then graft.  Without State Refresh that rebuild is only
     bounded by the prune holdtime, so it contributes nothing here and
     fault schedules must not erase the state of a pruned branch. *)
  and crash_path =
    match pim.Pimdm.Pim_config.state_refresh_interval with
    | None -> 0.0
    | Some interval ->
      mld.Mld.Mld_config.query_interval
      +. mld.Mld.Mld_config.query_response_interval
      +. interval
      +. pim.Pimdm.Pim_config.assert_time
      +. (2.0 *. pim.Pimdm.Pim_config.graft_retry)
  in
  Float.max (Float.max control_path binding_path) crash_path +. 5.0

type host_state = {
  mutable hs_attach : Engine.Time.t;
  mutable hs_subs : Addr.t list;
}

(* A liveness condition of one sampled check: when it was first seen to
   hold, and the last sample that saw it. *)
type pending = { since : Engine.Time.t; mutable seen : int }

(* Per-check liveness state under the check's own typed key: [pending]
   holds the conditions being timed, [opened] dedups a sustained
   condition into one violation record. *)
type 'k sustained = {
  pending : ('k, pending) Hashtbl.t;
  opened : ('k, unit) Hashtbl.t;
}

let sustained () = { pending = Hashtbl.create 8; opened = Hashtbl.create 8 }

(* Allocation-free hash combining for the per-packet tables (FNV-style
   multiply, then fold the high bits down: table indices use the low
   ones). *)
let mix h x = (h * 0x100000001b3) lxor x
let finish h = (h lxor (h lsr 32)) land max_int

(* One transmission of a datagram onto a link, as the loop counter sees
   it: (src, dst, stream, seq, link), or (dst, stream, seq, link) for a
   tunnelled datagram. *)
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

(* The per-packet liveness tables, keyed by group, (source, group) and
   (link, source, group). *)
module Addr_tbl = Hashtbl.Make (Addr)

module Sg_tbl = Hashtbl.Make (struct
  type t = Addr.t * Addr.t

  let equal (s, g) (s', g') = Addr.equal s s' && Addr.equal g g'
  let hash (s, g) = finish (mix (Addr.hash s) (Addr.hash g))
end)

module Link_sg_tbl = Hashtbl.Make (struct
  type t = int * Addr.t * Addr.t

  let equal (l, s, g) (l', s', g') = l = l' && Addr.equal s s' && Addr.equal g g'
  let hash (l, s, g) = finish (mix (mix l (Addr.hash s)) (Addr.hash g))
end)

(* One router's last PIM snapshot and the generation it was taken at;
   [c_pim] is compared physically, so a re-created instance never
   passes for the old one. *)
type snap_cache = {
  c_pim : P.t;
  c_gen : int;
  c_entries : P.entry_snapshot list;
}

(* Per-entry facts of the prune-graft check that depend only on the
   snapshots and the forwarder table, not on the clock: recomputed when
   a generation moves, read at every sample. *)
type pg_entry = {
  pg_name : string;
  pg_src : Addr.t;
  pg_grp : Addr.t;
  pg_state : P.upstream_snapshot;
  pg_wants_uncovered : bool;
  pg_unfed_join : bool;  (* Joined, has an upstream, wants traffic, nobody feeds its iif *)
  pg_iif : int;
}

type t = {
  scenario : Scenario.t;
  cfg : config;
  bound : Engine.Time.t;
  zero_querier_bound : Engine.Time.t;
      (* losing every querier is only repaired by the
         Other-Querier-Present timeout, which may exceed [bound] *)
  faults : Faults.t option;
  links : Link_id.t array;
  routers : (string * Router_stack.t) array;
  hosts : (string * Host_stack.t) list;
  link_routers : (Link_id.t * string * (string * Router_stack.t) array) array;
      (* every link with routers on it, its name, and those routers in
         [routers] order — routers never change links *)
  snap_cache : snap_cache option array;  (* by position in [routers]; None = failed *)
  mutable forwarders : (int * Addr.t * Addr.t, string list) Hashtbl.t;
  mutable contested : ((int * Addr.t * Addr.t) * string list) list;
      (* the [forwarders] keys with two or more routers, in fold order *)
  mutable pg_entries : pg_entry list;
  mutable running : bool;
  mutable samples : int;
  mutable violations_rev : violation list;
  mutable count : int;
  opened : (string, unit) Hashtbl.t;  (* dedups the unsustained violations *)
  querier_st : ([ `Multi | `Zero ] * int) sustained;
  assert_st : (int * Addr.t * Addr.t) sustained;  (* (link, src, group) *)
  pg_st : ([ `Stuck | `Wants | `Pair ] * string * Addr.t * Addr.t) sustained;
  bh_st : (string * Addr.t) sustained;  (* (host, group) *)
  mutable last_disruption : Engine.Time.t;
  mutable last_fired : int;
  (* While duplication or corruption is injected (and a short margin
     after), per-packet loop accounting is unsound: injected copies
     and damaged headers mimic loop symptoms without one existing. *)
  mutable chaos_until : Engine.Time.t;
  mutable ttl_baseline : int;
  host_state : (string, host_state) Hashtbl.t;
  (* A host's address on a link is the link's /64 prefix plus the
     host's interface id, so ownership is two lookups. *)
  link_of_hi : (int64, Link_id.t) Hashtbl.t;
  host_of_iid : (int64, string * Host_stack.t) Hashtbl.t;
  tx_counts : int ref Tx_counts.t;
  tx_limit : int array;  (* by link id: max legitimate transmits *)
  link_names : string array;  (* by link id *)
  last_data_tx : Engine.Time.t Addr_tbl.t;  (* group -> time *)
  src_data_tx : Engine.Time.t Sg_tbl.t;  (* (src, group) *)
  link_data_tx : Engine.Time.t Link_sg_tbl.t;
      (* (link, src, group) — a roamed sender's stale care-of source
         must not inherit liveness from the home source's stream *)
  progress : (string * Addr.t, int) Hashtbl.t;  (* (host, group) -> rx+dup *)
}

let net t = t.scenario.Scenario.net
let now t = Engine.Sim.now t.scenario.Scenario.sim
let bound t = t.bound
let samples t = t.samples
let violations t = List.rev t.violations_rev
let violation_count t = t.count

(* With lineage collection on, a violation gets the causal chain of
   the most recent packet drop — preferring one on the node or link
   the violation names — shrunk by [Span.causal_chain] to the spans
   that explain it. *)
let chain_at t ~at ~where =
  match Engine.Sim.lineage t.scenario.Scenario.sim with
  | None -> []
  | Some c ->
    let pick =
      match
        Engine.Span.last_matching c ~before:at ~dropped:true (fun sp ->
            sp.Engine.Span.sp_node = where)
      with
      | Some _ as sp -> sp
      | None -> Engine.Span.last_matching c ~before:at ~dropped:true (fun _ -> true)
    in
    (match pick with
     | None -> []
     | Some sp ->
       Engine.Span.render_chain (Engine.Span.causal_chain c sp.Engine.Span.sp_id))

let record t ~at ~inv ~where ~detail =
  let v =
    { v_invariant = inv;
      v_at = at;
      v_where = where;
      v_detail = detail;
      v_trace = Engine.Trace.recent (Network.trace (net t)) ~n:t.cfg.trace_excerpt;
      v_chain = chain_at t ~at ~where }
  in
  t.violations_rev <- v :: t.violations_rev;
  t.count <- t.count + 1

let record_keyed t ~at ~key ~inv ~where ~detail =
  if not (Hashtbl.mem t.opened key) then begin
    Hashtbl.replace t.opened key ();
    record t ~at ~inv ~where ~detail
  end

(* [items] are the (key, invariant, where, detail, threshold)
   conditions of one check that hold right now.  A condition becomes a
   violation once it has held for its threshold; one that stopped
   holding has its clock and dedup entry dropped so a later recurrence
   is timed (and reported) afresh. *)
let sustain_set t st ~at items =
  List.iter
    (fun (key, inv, where, detail, threshold) ->
      match Hashtbl.find_opt st.pending key with
      | None -> Hashtbl.replace st.pending key { since = at; seen = t.samples }
      | Some p ->
        p.seen <- t.samples;
        if Engine.Time.sub at p.since >= threshold && not (Hashtbl.mem st.opened key)
        then begin
          Hashtbl.replace st.opened key ();
          record t ~at ~inv ~where ~detail:(detail ())
        end)
    items;
  Hashtbl.filter_map_inplace
    (fun key p ->
      if p.seen = t.samples then Some p
      else begin
        Hashtbl.remove st.opened key;
        None
      end)
    st.pending

let chaos_active_now t =
  let net = net t in
  Network.impaired_links net > 0
  && Array.exists
       (fun l -> Network.corrupt_rate net l > 0.0 || Network.duplicate_rate net l > 0.0)
       t.links

let in_chaos t ~at =
  if Engine.Time.compare at t.chaos_until <= 0 then true
  else if chaos_active_now t then begin
    t.chaos_until <- Engine.Time.add at 2.0;
    true
  end
  else false

let link_name_of t li =
  if li >= 0 && li < Array.length t.link_names then t.link_names.(li)
  else Printf.sprintf "link#%d" li

(* ---- transmit-observer checks (per packet, event time) ---- *)

(* How many times this transmission has been seen, this one included.
   The table grows with traffic volume; a periodic wholesale reset keeps
   it bounded — an actual loop re-crosses its links within milliseconds
   and re-trips the counter immediately. *)
let bump_tx t key =
  if Tx_counts.length t.tx_counts > 65536 then Tx_counts.reset t.tx_counts;
  match Tx_counts.find_opt t.tx_counts key with
  | Some r ->
    incr r;
    !r
  | None ->
    Tx_counts.add t.tx_counts key (ref 1);
    1

(* Callers test [count > limit && not (in_chaos t ~at)] themselves, so
   the common path formats no detail and allocates no closure. *)
let report_loop t ~at ~li key detail =
  record_keyed t ~at
    ~key:("loop|" ^ Tx_key.to_string key)
    ~inv:Forwarding_loop ~where:(link_name_of t li) ~detail

let low_hop_limit t ~at ~li (packet : Packet.t) =
  if packet.Packet.hop_limit <= 4 && not (in_chaos t ~at) then
    record_keyed t ~at
      ~key:
        (Printf.sprintf "lowhl|%s|%s"
           (Addr.to_string packet.Packet.src)
           (Addr.to_string packet.Packet.dst))
      ~inv:Forwarding_loop ~where:(link_name_of t li)
      ~detail:
        (Printf.sprintf
           "unicast packet %s -> %s still in transit with hop limit %d — it has \
            crossed far more routers than the network holds"
           (Addr.to_string packet.Packet.src)
           (Addr.to_string packet.Packet.dst)
           packet.Packet.hop_limit)

let tunnel_coherence t ~at ~li (packet : Packet.t) =
  match
    ( Hashtbl.find_opt t.host_of_iid (Addr.lo packet.Packet.dst),
      Hashtbl.find_opt t.link_of_hi (Addr.hi packet.Packet.dst) )
  with
  | None, _ | _, None -> ()
  | Some (hname, h), Some owner_link ->
    let current = Host_stack.current_link h in
    if Link_id.to_int current <> Link_id.to_int owner_link then begin
      let settled_since =
        Float.max t.last_disruption (Host_stack.last_attach_time h)
      in
      if Engine.Time.sub at settled_since > t.bound then
        record_keyed t ~at
          ~key:(Printf.sprintf "tunnel|%s|%s" hname (Addr.to_string packet.Packet.dst))
          ~inv:Tunnel_coherence ~where:hname
          ~detail:
            (Printf.sprintf
               "packet tunnelled on %s to %s — %s's address on %s — long after %s \
                moved to %s and its binding should have been refreshed"
               (link_name_of t li)
               (Addr.to_string packet.Packet.dst)
               hname
               (link_name_of t (Link_id.to_int owner_link))
               hname
               (link_name_of t (Link_id.to_int current)))
    end

let on_transmit t link (packet : Packet.t) =
  if t.running then begin
    let at = now t in
    let li = Link_id.to_int link in
    let mcast = Packet.is_multicast_dst packet in
    match packet.Packet.payload with
    | Packet.Data { stream_id; seq; _ } ->
      if mcast then begin
        Addr_tbl.replace t.last_data_tx packet.Packet.dst at;
        Sg_tbl.replace t.src_data_tx (packet.Packet.src, packet.Packet.dst) at;
        Link_sg_tbl.replace t.link_data_tx (li, packet.Packet.src, packet.Packet.dst) at;
        let limit = if li >= 0 && li < Array.length t.tx_limit then t.tx_limit.(li) else 3 in
        let key = Tx_key.Mcast (packet.Packet.src, packet.Packet.dst, stream_id, seq, li) in
        let count = bump_tx t key in
        if count > limit && not (in_chaos t ~at) then
          report_loop t ~at ~li key
            (Printf.sprintf
               "multicast datagram (stream %d, seq %d) from %s crossed %s %d times \
                where at most %d sender/assert transmissions are possible"
               stream_id seq
               (Addr.to_string packet.Packet.src)
               (link_name_of t li) count limit)
      end
      else begin
        let key = Tx_key.Ucast (packet.Packet.src, packet.Packet.dst, stream_id, seq, li) in
        let count = bump_tx t key in
        if count > 2 && not (in_chaos t ~at) then
          report_loop t ~at ~li key
            (Printf.sprintf
               "unicast datagram (stream %d, seq %d) %s -> %s crossed %s %d times"
               stream_id seq
               (Addr.to_string packet.Packet.src)
               (Addr.to_string packet.Packet.dst)
               (link_name_of t li) count);
        low_hop_limit t ~at ~li packet
      end
    | Packet.Encapsulated inner ->
      (match inner.Packet.payload with
       | Packet.Data { stream_id; seq; _ } when Packet.is_multicast_dst inner ->
         Addr_tbl.replace t.last_data_tx inner.Packet.dst at;
         Sg_tbl.replace t.src_data_tx (inner.Packet.src, inner.Packet.dst) at;
         if not mcast then begin
           let key = Tx_key.Tunnel (packet.Packet.dst, stream_id, seq, li) in
           let count = bump_tx t key in
           if count > 2 && not (in_chaos t ~at) then
             report_loop t ~at ~li key
               (Printf.sprintf
                  "tunnelled datagram (stream %d, seq %d) for %s crossed %s %d times"
                  stream_id seq
                  (Addr.to_string packet.Packet.dst)
                  (link_name_of t li) count)
         end
       | _ -> ());
      if not mcast then begin
        low_hop_limit t ~at ~li packet;
        tunnel_coherence t ~at ~li packet
      end
    | Packet.Mld _ | Packet.Pim _ | Packet.Nd _ | Packet.Empty -> ()
  end

(* ---- sampled checks (periodic, snapshot-based) ---- *)

let poll_disruption t =
  let d = ref false in
  (match t.faults with
   | None -> ()
   | Some f ->
     let n = Faults.events_fired f in
     if n <> t.last_fired then begin
       t.last_fired <- n;
       d := true
     end);
  List.iter
    (fun (name, h) ->
      let st = Hashtbl.find t.host_state name in
      let attach = Host_stack.last_attach_time h in
      if attach <> st.hs_attach then begin
        st.hs_attach <- attach;
        d := true
      end;
      let subs = Host_stack.subscriptions h in
      if subs <> st.hs_subs then begin
        st.hs_subs <- subs;
        d := true
      end)
    t.hosts;
  !d

let unsettled t =
  let net = net t in
  (Network.impaired_links net > 0
   && Array.exists
        (fun l ->
          (not (Network.link_is_up net l))
          || Network.loss_rate net l >= 0.5
          || Network.corrupt_rate net l >= 0.5)
        t.links)
  || Array.exists (fun (_, r) -> Router_stack.is_failed r) t.routers

let check_querier t ~at =
  let items = ref [] in
  (* Walk the links backwards so consing leaves [items] in link order. *)
  for k = Array.length t.link_routers - 1 downto 0 do
    let l, lname, routers = t.link_routers.(k) in
    let li = Link_id.to_int l in
    let running = ref 0 and queriers = ref [] in
    for j = Array.length routers - 1 downto 0 do
      let name, r = routers.(j) in
      if not (Router_stack.is_failed r) then
        match Router_stack.mld_on r l with
        | Some m when Mld.Mld_router.is_running m ->
          incr running;
          if Mld.Mld_router.is_querier m then queriers := name :: !queriers
        | Some _ | None -> ()
    done;
    let running = !running and queriers = !queriers in
    if running > 0 && queriers = [] then
      items :=
        ( (`Zero, li),
          Mld_querier,
          lname,
          (fun () ->
            Printf.sprintf
              "no MLD querier on %s although %d router(s) run MLD there — the \
               Other-Querier-Present timeout failed to promote one"
              lname running),
          t.zero_querier_bound )
        :: !items;
    if List.compare_length_with queriers 2 >= 0 then
      items :=
        ( (`Multi, li),
          Mld_querier,
          lname,
          (fun () ->
            Printf.sprintf
              "%d simultaneous MLD queriers on %s (%s); the RFC 2710 election \
               must converge to the lowest link-local address"
              (List.length queriers) lname
              (String.concat ", " queriers)),
          t.bound )
        :: !items
  done;
  sustain_set t t.querier_st ~at !items

(* Who currently forwards each (S,G) onto each link. *)
let forwarders_of snaps =
  let forwarders : (int * Addr.t * Addr.t, string list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (name, entries) ->
      List.iter
        (fun e ->
          List.iter
            (fun o ->
              if o.P.snap_forwarding then begin
                let key = (o.P.snap_oif, e.P.snap_source, e.P.snap_group) in
                let prev = Option.value (Hashtbl.find_opt forwarders key) ~default:[] in
                Hashtbl.replace forwarders key (name :: prev)
              end)
            e.P.snap_oifs)
        entries)
    snaps;
  forwarders

let prune_graft_entries snaps forwarders =
  (* On a redundant LAN the Assert winner need not be the neighbour a
     router's Grafts were addressed to, so pairwise neighbour-state
     comparison is unsound: a Joined router is healthy as long as
     {e some} router forwards onto its incoming interface. *)
  let covered_by_other ~name ~src ~grp oif =
    match Hashtbl.find_opt forwarders (oif, src, grp) with
    | Some names -> List.exists (fun n -> n <> name) names
    | None -> false
  in
  List.concat_map
    (fun (name, entries) ->
      List.map
        (fun e ->
          let src = e.P.snap_source and grp = e.P.snap_group in
          let wants_traffic = List.exists (fun o -> o.P.snap_forwarding) e.P.snap_oifs in
          { pg_name = name;
            pg_src = src;
            pg_grp = grp;
            pg_state = e.P.snap_upstream_state;
            (* An assert loser whose loser state just expired reads as
               forwarding-while-pruned-upstream, but as long as the
               assert winner serves the same link nothing is owed: only
               an oif no other router covers makes a pruned upstream a
               broken branch. *)
            pg_wants_uncovered =
              List.exists
                (fun o ->
                  o.P.snap_forwarding && not (covered_by_other ~name ~src ~grp o.P.snap_oif))
                e.P.snap_oifs;
            pg_unfed_join =
              (match (e.P.snap_upstream_state, e.P.snap_upstream) with
               | P.Up_joined, Some _ ->
                 wants_traffic && not (Hashtbl.mem forwarders (e.P.snap_iif, src, grp))
               | _ -> false);
            pg_iif = e.P.snap_iif })
        entries)
    snaps

(* Re-snapshot the live routers whose PIM generation moved since the
   last sample, and rebuild the tables derived from the snapshots only
   when one did: between protocol state changes a sample re-reads
   them. *)
let refresh_snapshots t =
  let moved = ref false in
  Array.iteri
    (fun i (_, r) ->
      if Router_stack.is_failed r then begin
        match t.snap_cache.(i) with
        | Some _ ->
          t.snap_cache.(i) <- None;
          moved := true
        | None -> ()
      end
      else begin
        let p = Router_stack.pim r in
        let gen = P.generation p in
        match t.snap_cache.(i) with
        | Some c when c.c_pim == p && c.c_gen = gen -> ()
        | Some _ | None ->
          t.snap_cache.(i) <- Some { c_pim = p; c_gen = gen; c_entries = P.snapshot p };
          moved := true
      end)
    t.routers;
  if !moved then begin
    let snaps = ref [] in
    for i = Array.length t.routers - 1 downto 0 do
      match t.snap_cache.(i) with
      | Some c -> snaps := (fst t.routers.(i), c.c_entries) :: !snaps
      | None -> ()
    done;
    t.forwarders <- forwarders_of !snaps;
    t.contested <-
      Hashtbl.fold
        (fun key names acc -> if List.length names >= 2 then (key, names) :: acc else acc)
        t.forwarders [];
    t.pg_entries <- prune_graft_entries !snaps t.forwarders
  end

let check_assert t ~at =
  let items =
    List.filter_map
      (fun (((li, src, grp) as key), names) ->
        (* Only meaningful on links that actually carry the stream:
           asserts are data-driven, so without traffic two routers may
           validly both consider an interface forwarding. *)
        let data_recent =
          match Link_sg_tbl.find_opt t.link_data_tx key with
          | Some tx -> Engine.Time.sub at tx < 5.0
          | None -> false
        in
        if data_recent then
          Some
            ( key,
              Assert_winner,
              link_name_of t li,
              (fun () ->
                Printf.sprintf
                  "%d routers (%s) forward (%s, %s) onto %s while the stream is live — \
                   the Assert process never elected a single winner"
                  (List.length names)
                  (String.concat ", " (List.sort compare names))
                  (Addr.to_string src) (Addr.to_string grp) (link_name_of t li)),
              t.bound )
        else None)
      t.contested
  in
  sustain_set t t.assert_st ~at items

let check_prune_graft t ~at =
  let items = ref [] in
  let add x = items := x :: !items in
  List.iter
    (fun e ->
      let name = e.pg_name and src = e.pg_src and grp = e.pg_grp in
      let sg () = Printf.sprintf "(%s,%s)" (Addr.to_string src) (Addr.to_string grp) in
      (* Dormant state for a source that stopped transmitting — e.g. the
         care-of source of a sender that roamed and went home again — is
         data-driven residue, not a broken branch; it times out on its
         own. *)
      let stream_live () =
        match Sg_tbl.find_opt t.src_data_tx (src, grp) with
        | Some tx -> Engine.Time.sub at tx < 5.0
        | None -> false
      in
      (match e.pg_state with
       | P.Up_grafting ->
         add
           ( (`Stuck, name, src, grp),
             Prune_graft,
             name,
             (fun () ->
               Printf.sprintf
                 "%s stuck in Grafting for %s: no Graft-Ack despite the retry timer" name
                 (sg ())),
             t.bound )
       | P.Up_pruned when e.pg_wants_uncovered && stream_live () ->
         add
           ( (`Wants, name, src, grp),
             Prune_graft,
             name,
             (fun () ->
               Printf.sprintf
                 "%s holds %s pruned upstream although downstream interfaces want the \
                  traffic — a Graft should have restored the branch"
                 name (sg ())),
             t.bound )
       | P.Up_joined | P.Up_pruned -> ());
      if e.pg_unfed_join && stream_live () then
        add
          ( (`Pair, name, src, grp),
            Prune_graft,
            name,
            (fun () ->
              Printf.sprintf
                "%s is Joined and forwarding %s, but no upstream router forwards onto %s \
                 — the Graft/override exchange failed to restore the branch"
                name (sg ()) (link_name_of t e.pg_iif)),
            t.bound ))
    t.pg_entries;
  sustain_set t t.pg_st ~at !items

let ttl_sum t =
  Array.fold_left
    (fun acc (_, r) -> acc + (Router_stack.load r).Load.hop_limit_expired)
    0 t.routers

let check_ttl t ~at =
  let sum = ttl_sum t in
  if in_chaos t ~at then
    (* Corrupted hop-limit bytes expire without a loop existing; track
       the count so only post-chaos increments are violations. *)
    t.ttl_baseline <- sum
  else if sum > t.ttl_baseline then
    record_keyed t ~at ~key:"ttl" ~inv:Forwarding_loop ~where:"network"
      ~detail:
        (Printf.sprintf
           "%d unicast packet(s) exhausted their hop limit in transit — the symptom \
            of a routing loop"
           (sum - t.ttl_baseline))

let check_black_hole t ~at =
  let items =
    List.concat_map
      (fun (name, h) ->
        List.filter_map
          (fun g ->
            let progress =
              Host_stack.received_count h ~group:g + Host_stack.duplicate_count h ~group:g
            in
            let key = (name, g) in
            let prev = Hashtbl.find_opt t.progress key in
            Hashtbl.replace t.progress key progress;
            let data_active =
              match Addr_tbl.find_opt t.last_data_tx g with
              | Some tx -> Engine.Time.sub at tx < 3.0
              | None -> false
            in
            match prev with
            | Some p when p = progress && data_active ->
              Some
                ( (name, g),
                  Black_hole,
                  name,
                  (fun () ->
                    Printf.sprintf
                      "%s is subscribed to %s and the stream is live, yet nothing was \
                       delivered for the whole convergence bound (stuck at %d \
                       datagrams)"
                      name (Addr.to_string g) progress),
                  t.bound )
            | Some _ | None -> None)
          (Host_stack.subscriptions h))
      t.hosts
  in
  sustain_set t t.bh_st ~at items

let sample t =
  let at = now t in
  t.samples <- t.samples + 1;
  if chaos_active_now t then t.chaos_until <- Engine.Time.add at 2.0;
  check_ttl t ~at;
  let disrupted = poll_disruption t in
  if disrupted || unsettled t then begin
    t.last_disruption <- at;
    Hashtbl.reset t.querier_st.pending;
    Hashtbl.reset t.assert_st.pending;
    Hashtbl.reset t.pg_st.pending;
    Hashtbl.reset t.bh_st.pending
  end
  else begin
    check_querier t ~at;
    refresh_snapshots t;
    check_assert t ~at;
    check_prune_graft t ~at;
    check_black_hole t ~at
  end

(* ---- lifecycle ---- *)

let attach ?(config = default_config) ?faults (scenario : Scenario.t) =
  let spec = scenario.Scenario.spec in
  let bound =
    match config.sustain with
    | Some s -> s
    | None -> bound_for_spec spec
  in
  let zero_querier_bound =
    Float.max bound
      (Mld.Mld_config.other_querier_present_interval spec.Scenario.mld
      +. spec.Scenario.mld.Mld.Mld_config.query_response_interval
      +. 5.0)
  in
  let net = scenario.Scenario.net in
  let topo = Network.topology net in
  let links = Topology.links topo in
  let routers = scenario.Scenario.routers in
  let on_link = Hashtbl.create 64 in
  List.iter
    (fun ((_, r) as named) ->
      List.iter
        (fun l ->
          let li = Link_id.to_int l in
          Hashtbl.replace on_link li
            (named :: Option.value (Hashtbl.find_opt on_link li) ~default:[]))
        (Topology.links_of_node topo (Router_stack.node_id r)))
    routers;
  let link_routers =
    List.filter_map
      (fun l ->
        match Hashtbl.find_opt on_link (Link_id.to_int l) with
        | None -> None
        | Some rev -> Some (l, Topology.link_name topo l, Array.of_list (List.rev rev)))
      links
  in
  (* Link ids are dense from 0. *)
  let n_links = List.fold_left (fun m l -> max m (Link_id.to_int l + 1)) 0 links in
  let per_link f =
    let a = Array.make n_links (f None) in
    List.iter (fun l -> a.(Link_id.to_int l) <- f (Some l)) links;
    a
  in
  let t =
    { scenario;
      cfg = config;
      bound;
      zero_querier_bound;
      faults;
      links = Array.of_list links;
      routers = Array.of_list routers;
      hosts = scenario.Scenario.hosts;
      link_routers = Array.of_list link_routers;
      snap_cache = Array.make (List.length routers) None;
      forwarders = Hashtbl.create 16;
      contested = [];
      pg_entries = [];
      running = true;
      samples = 0;
      violations_rev = [];
      count = 0;
      opened = Hashtbl.create 32;
      querier_st = sustained ();
      assert_st = sustained ();
      pg_st = sustained ();
      bh_st = sustained ();
      last_disruption = Engine.Sim.now scenario.Scenario.sim;
      last_fired = (match faults with Some f -> Faults.events_fired f | None -> 0);
      chaos_until = neg_infinity;
      ttl_baseline = 0;
      host_state = Hashtbl.create 8;
      link_of_hi = Hashtbl.create 16;
      host_of_iid = Hashtbl.create 8;
      tx_counts = Tx_counts.create 1024;
      tx_limit =
        per_link (function
          | Some l -> 1 + List.length (Topology.routers_on_link topo l)
          | None -> 3);
      link_names =
        per_link (function
          | Some l -> Topology.link_name topo l
          | None -> "");
      last_data_tx = Addr_tbl.create 8;
      src_data_tx = Sg_tbl.create 8;
      link_data_tx = Link_sg_tbl.create 16;
      progress = Hashtbl.create 16 }
  in
  List.iter
    (fun (name, h) ->
      Hashtbl.replace t.host_state name
        { hs_attach = Host_stack.last_attach_time h;
          hs_subs = Host_stack.subscriptions h };
      Hashtbl.replace t.host_of_iid
        (Topology.interface_id topo (Host_stack.node_id h))
        (name, h))
    t.hosts;
  List.iter
    (fun l ->
      Hashtbl.replace t.link_of_hi (Addr.hi (Prefix.address (Topology.link_prefix topo l))) l)
    links;
  Network.add_transmit_observer net (fun link p -> on_transmit t link p);
  let rec loop () =
    if t.running then begin
      sample t;
      ignore
        (Engine.Sim.schedule_after ~category:"monitor" t.scenario.Scenario.sim t.cfg.sample_interval loop)
    end
  in
  ignore (Engine.Sim.schedule_after ~category:"monitor" t.scenario.Scenario.sim t.cfg.sample_interval loop);
  t

(* Nothing samples or observes a detached monitor, so the tables that
   only serve that — the loop counter above all, up to 65,536 keys —
   are released; the recorded violations stay. *)
let detach t =
  t.running <- false;
  Array.fill t.snap_cache 0 (Array.length t.snap_cache) None;
  t.forwarders <- Hashtbl.create 1;
  t.contested <- [];
  t.pg_entries <- [];
  Tx_counts.reset t.tx_counts;
  Addr_tbl.reset t.last_data_tx;
  Sg_tbl.reset t.src_data_tx;
  Link_sg_tbl.reset t.link_data_tx;
  Hashtbl.reset t.progress;
  Hashtbl.reset t.querier_st.pending;
  Hashtbl.reset t.assert_st.pending;
  Hashtbl.reset t.pg_st.pending;
  Hashtbl.reset t.bh_st.pending

(* ---- reporting ---- *)

let pp_violation ppf v =
  Format.fprintf ppf "@[<v2>[%8.3f] %-16s %s: %s" v.v_at
    (invariant_name v.v_invariant)
    v.v_where v.v_detail;
  if v.v_trace <> [] then begin
    Format.fprintf ppf "@,trace (newest first):";
    List.iter (fun r -> Format.fprintf ppf "@,  %a" Engine.Trace.pp_record r) v.v_trace
  end;
  if v.v_chain <> [] then begin
    Format.fprintf ppf "@,causal chain:";
    List.iter (fun l -> Format.fprintf ppf "@,  %s" l) v.v_chain
  end;
  Format.fprintf ppf "@]"

let pp_report ppf t =
  Format.fprintf ppf "@[<v>invariant monitor: %d sample(s), bound %.1f s, %d violation(s)"
    t.samples t.bound t.count;
  List.iter (fun v -> Format.fprintf ppf "@,%a" pp_violation v) (violations t);
  Format.fprintf ppf "@]"

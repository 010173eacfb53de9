open Ipv6
open Net
open Mmcast
module Link_id = Ids.Link_id
module Channel_id = Ids.Channel_id
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
}

let default_config = { sample_interval = 0.5; sustain = None }

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

(* A subscribed group's delivered count (received plus duplicates) at
   the last sample that checked it; -1 = never checked. *)
type progress = { mutable last : int }

(* One host as the sampled checks see it: its attach time and
   subscriptions at the last sample, the subscribed groups in set
   order with their group indices and progress records, and every
   progress record it ever had (a group left and re-joined keeps its
   count). *)
type host_slot = {
  hs_name : string;
  hs_host : Host_stack.t;
  mutable hs_attach : Engine.Time.t;
  mutable hs_subs : Addr.Set.t;
  mutable hs_groups : Addr.t array;
  mutable hs_gidx : int array;  (* index into [group_tx]; -1 = no transmit seen yet *)
  mutable hs_prog : progress array;
  mutable hs_seen : (Addr.t * progress) list;
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

module Addr_tbl = Hashtbl.Make (Addr)

module Sg_tbl = Hashtbl.Make (struct
  type t = Addr.t * Addr.t

  let equal (s, g) (s', g') = Addr.equal s s' && Addr.equal g g'

  let hash (s, g) =
    let h = (Addr.hash s * 0x100000001b3) lxor Addr.hash g in
    (h lxor (h lsr 32)) land max_int
end)

(* What the per-packet observer keeps for one data channel, from the
   channel's first transmit on; the liveness times are in arrays by
   channel and by link, so updating them allocates nothing. *)
type chan_state = {
  cs_group : int;  (* a multicast channel's index into [group_tx]; -1 otherwise *)
  mutable cs_link_tx : float array;
      (* a multicast channel's last plain data transmit, by link id;
         [||] until its first one *)
  cs_owner : (string * Host_stack.t * Link_id.t) option;
      (* a tunnel's destination resolved to a host and the link whose
         prefix it carries, when it names one *)
  (* The inner (S,G) of the channel's last encapsulated datagram and
     that pair's channel: a tunnel carries one stream at a time. *)
  mutable cs_inner_src : Addr.t;
  mutable cs_inner_grp : Addr.t;
  mutable cs_inner_chan : Channel_id.t;
}

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
   a generation moves, read at every sample.  Only the candidates are
   kept: entries in Grafting, Pruned entries with an uncovered oif, and
   unfed Joins; no other entry can raise a condition. *)
type pg_entry = {
  pg_name : string;
  pg_src : Addr.t;
  pg_grp : Addr.t;
  pg_state : P.upstream_snapshot;
  pg_wants_uncovered : bool;
  pg_unfed_join : bool;  (* Joined, has an upstream, wants traffic, nobody feeds its iif *)
  pg_iif : int;
  mutable pg_chan : int;  (* the (S,G)'s channel; -1 = no transmit seen yet *)
}

(* A (link, S, G) that two or more routers forward onto. *)
type contested = {
  ct_link : int;
  ct_src : Addr.t;
  ct_grp : Addr.t;
  ct_names : string list;
  mutable ct_chan : int;  (* as [pg_chan] *)
}

(* A condition of one sampled check that holds right now: its key,
   invariant, where, detail and threshold (see [sustain_set]). *)
type 'k item = 'k * invariant * string * (unit -> string) * Engine.Time.t

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
  link_routers : (Link_id.t * string * (string * Router_stack.t) array) array;
      (* every link with routers on it, its name, and those routers in
         [routers] order — routers never change links *)
  (* The querier check's stamps, by position in [link_routers] and then
     on the link: each router's MLD instance on the link and its
     {!Mld.Mld_router.generation} (-1 = failed, -2 = no MLD there), as
     of the link's last derivation; and that derivation's conditions. *)
  mutable q_mld : Mld.Mld_router.t option array array;
  mutable q_gen : int array array;
  mutable q_items : ([ `Multi | `Zero ] * int) item list array;
  mutable querier_items : ([ `Multi | `Zero ] * int) item list;  (* all links' [q_items] *)
  snap_cache : snap_cache option array;  (* by position in [routers]; None = failed *)
  mutable forwarders : (int * Addr.t * Addr.t, string list) Hashtbl.t;
  mutable contested : contested array;
      (* the [forwarders] keys with two or more routers, in fold order *)
  mutable pg_entries : pg_entry array;
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
  mutable host_slots : host_slot array;  (* in [scenario.hosts] order *)
  (* A host's address on a link is the link's /64 prefix plus the
     host's interface id, so ownership is two lookups. *)
  link_of_hi : (int64, Link_id.t) Hashtbl.t;
  host_of_iid : (int64, string * Host_stack.t) Hashtbl.t;
  tx_counts : Tx_window.t;
  tx_limit : int array;  (* by link id: max legitimate transmits *)
  link_names : string array;  (* by link id *)
  (* Per-packet liveness, by the network's channel ids.  [src_tx] is
     the last data transmit of each multicast channel (S,G), plain or
     encapsulated; [group_tx] the last of each group, by the index that
     [groups] assigns; each channel's [cs_link_tx] the last per link — a
     roamed sender's stale care-of source must not inherit liveness from
     the home source's stream.  [sg_chans] finds a multicast channel by
     (S,G) for the sampled checks. *)
  mutable chans : chan_state option array;  (* by channel id *)
  mutable src_tx : float array;  (* by channel id; neg_infinity = never *)
  mutable group_tx : float array;  (* by group index *)
  groups : int Addr_tbl.t;
  sg_chans : Channel_id.t Sg_tbl.t;
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
        Engine.Span.last_matching c ~before:at ~dropped:true ~node:where (fun _ -> true)
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
      v_trace = Engine.Trace.recent (Network.trace (net t));
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
  (* Nothing holds and nothing is being timed: a quiet sample's case. *)
  if not (items = [] && Hashtbl.length st.pending = 0) then begin
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
  end

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

(* The dedup key of a loop report: the transmission's addresses,
   datagram and link. *)
let loop_key kind ~src ~dst ~stream ~seq ~li =
  let a = Addr.to_string in
  match kind with
  | `Mcast -> Printf.sprintf "loop|m|%s|%s|%d|%d|%d" (a src) (a dst) stream seq li
  | `Ucast -> Printf.sprintf "loop|u|%s|%s|%d|%d|%d" (a src) (a dst) stream seq li
  | `Tunnel -> Printf.sprintf "loop|t|%s|%d|%d|%d" (a dst) stream seq li

(* Callers test [count > limit && not (in_chaos t ~at)] themselves, so
   the common path formats no detail and allocates no closure. *)
let report_loop t ~at ~li key detail =
  record_keyed t ~at ~key ~inv:Forwarding_loop ~where:(link_name_of t li) ~detail

let grow_floats a n =
  let len = Array.length a in
  if n <= len then a
  else begin
    let grown = Array.make (max n (2 * len)) neg_infinity in
    Array.blit a 0 grown 0 len;
    grown
  end

let group_index t group =
  match Addr_tbl.find_opt t.groups group with
  | Some g -> g
  | None ->
    let g = Addr_tbl.length t.groups in
    Addr_tbl.replace t.groups group g;
    t.group_tx <- grow_floats t.group_tx (g + 1);
    g

let new_chan_state t chan (packet : Packet.t) =
  let mcast = Packet.is_multicast_dst packet in
  let tunnel =
    match packet.Packet.payload with
    | Packet.Encapsulated _ -> not mcast
    | Packet.Data _ | Packet.Mld _ | Packet.Pim _ | Packet.Nd _ | Packet.Empty -> false
  in
  if mcast then Sg_tbl.replace t.sg_chans (packet.Packet.src, packet.Packet.dst) chan;
  { cs_group = (if mcast then group_index t packet.Packet.dst else -1);
    cs_link_tx = [||];
    cs_owner =
      (if not tunnel then None
       else
         let dst = packet.Packet.dst in
         match
           ( Hashtbl.find_opt t.host_of_iid (Addr.lo dst),
             Hashtbl.find_opt t.link_of_hi (Addr.hi dst) )
         with
         | Some (hname, h), Some owner_link -> Some (hname, h, owner_link)
         | None, _ | _, None -> None);
    cs_inner_src = Addr.unspecified;
    cs_inner_grp = Addr.unspecified;
    cs_inner_chan = Channel_id.none }

(* The state of the data channel [chan] of [packet]: an array read after
   the channel's first transmit. *)
let chan_state t chan packet =
  let c = (chan : Channel_id.t :> int) in
  let len = Array.length t.chans in
  if c >= len then begin
    let grown = Array.make (max (c + 1) (2 * len)) None in
    Array.blit t.chans 0 grown 0 len;
    t.chans <- grown;
    t.src_tx <- grow_floats t.src_tx (Array.length grown)
  end;
  match Array.unsafe_get t.chans c with
  | Some cs -> cs
  | None ->
    let cs = new_chan_state t chan packet in
    t.chans.(c) <- Some cs;
    cs

(* A multicast datagram of (S,G) went out: the stream is live. *)
let note_sg_tx t chan cs ~at =
  Array.unsafe_set t.src_tx (chan : Channel_id.t :> int) at;
  Array.unsafe_set t.group_tx cs.cs_group at

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

let tunnel_coherence t ~at ~li cs (packet : Packet.t) =
  match cs.cs_owner with
  | None -> ()
  | Some (hname, h, owner_link) ->
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

let on_transmit t link chan (packet : Packet.t) =
  if t.running && (chan : Channel_id.t :> int) >= 0 then begin
    let at = now t in
    let li = Link_id.to_int link in
    let mcast = Packet.is_multicast_dst packet in
    match packet.Packet.payload with
    | Packet.Data { stream_id; seq; _ } ->
      let cs = chan_state t chan packet in
      if mcast then begin
        note_sg_tx t chan cs ~at;
        if li >= Array.length cs.cs_link_tx then
          cs.cs_link_tx <- grow_floats cs.cs_link_tx (max (li + 1) (Array.length t.link_names));
        Array.unsafe_set cs.cs_link_tx li at;
        let limit = if li >= 0 && li < Array.length t.tx_limit then t.tx_limit.(li) else 3 in
        let count =
          Tx_window.bump t.tx_counts ~chan:(chan :> int) ~link:li ~stream:stream_id ~seq
        in
        if count > limit && not (in_chaos t ~at) then
          report_loop t ~at ~li
            (loop_key `Mcast ~src:packet.Packet.src ~dst:packet.Packet.dst ~stream:stream_id ~seq
               ~li)
            (Printf.sprintf
               "multicast datagram (stream %d, seq %d) from %s crossed %s %d times \
                where at most %d sender/assert transmissions are possible"
               stream_id seq
               (Addr.to_string packet.Packet.src)
               (link_name_of t li) count limit)
      end
      else begin
        let count =
          Tx_window.bump t.tx_counts ~chan:(chan :> int) ~link:li ~stream:stream_id ~seq
        in
        if count > 2 && not (in_chaos t ~at) then
          report_loop t ~at ~li
            (loop_key `Ucast ~src:packet.Packet.src ~dst:packet.Packet.dst ~stream:stream_id ~seq
               ~li)
            (Printf.sprintf
               "unicast datagram (stream %d, seq %d) %s -> %s crossed %s %d times"
               stream_id seq
               (Addr.to_string packet.Packet.src)
               (Addr.to_string packet.Packet.dst)
               (link_name_of t li) count);
        low_hop_limit t ~at ~li packet
      end
    | Packet.Encapsulated inner ->
      let cs = chan_state t chan packet in
      (match inner.Packet.payload with
       | Packet.Data { stream_id; seq; _ } when Packet.is_multicast_dst inner ->
         if
           not
             ((cs.cs_inner_chan :> int) >= 0
             && Addr.equal cs.cs_inner_src inner.Packet.src
             && Addr.equal cs.cs_inner_grp inner.Packet.dst)
         then begin
           cs.cs_inner_src <- inner.Packet.src;
           cs.cs_inner_grp <- inner.Packet.dst;
           cs.cs_inner_chan <- Network.channel (net t) inner
         end;
         let ichan = cs.cs_inner_chan in
         note_sg_tx t ichan (chan_state t ichan inner) ~at;
         if not mcast then begin
           let count =
             Tx_window.bump t.tx_counts ~chan:(chan :> int) ~link:li ~stream:stream_id ~seq
           in
           if count > 2 && not (in_chaos t ~at) then
             report_loop t ~at ~li
               (loop_key `Tunnel ~src:packet.Packet.src ~dst:packet.Packet.dst ~stream:stream_id
                  ~seq ~li)
               (Printf.sprintf
                  "tunnelled datagram (stream %d, seq %d) for %s crossed %s %d times"
                  stream_id seq
                  (Addr.to_string packet.Packet.dst)
                  (link_name_of t li) count)
         end
       | _ -> ());
      if not mcast then begin
        low_hop_limit t ~at ~li packet;
        tunnel_coherence t ~at ~li cs packet
      end
    | Packet.Mld _ | Packet.Pim _ | Packet.Nd _ | Packet.Empty -> ()
  end

(* ---- sampled checks (periodic, snapshot-based) ---- *)

(* Each sample compares what it reads against what the previous one
   read — integer and physical compares — and re-derives a check's
   conditions only where something moved; no condition holding means
   no item, no closure and no allocation. *)

let set_subscriptions hs subs =
  let groups = Array.of_list (Addr.Set.elements subs) in
  hs.hs_subs <- subs;
  hs.hs_groups <- groups;
  hs.hs_gidx <- Array.make (Array.length groups) (-1);
  hs.hs_prog <-
    Array.map
      (fun g ->
        match List.find_opt (fun (g', _) -> Addr.equal g g') hs.hs_seen with
        | Some (_, p) -> p
        | None ->
          let p = { last = -1 } in
          hs.hs_seen <- (g, p) :: hs.hs_seen;
          p)
      groups

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
  for i = 0 to Array.length t.host_slots - 1 do
    let hs = t.host_slots.(i) in
    let attach = Host_stack.last_attach_time hs.hs_host in
    if attach <> hs.hs_attach then begin
      hs.hs_attach <- attach;
      d := true
    end;
    let subs = Host_stack.subscriptions hs.hs_host in
    if not (subs == hs.hs_subs || Addr.Set.equal subs hs.hs_subs) then begin
      set_subscriptions hs subs;
      d := true
    end
  done;
  !d

(* A link down, or losing or corrupting half its frames or more. *)
let link_unsettled net l =
  (not (Network.link_is_up net l))
  || Network.loss_rate net l >= 0.5
  || Network.corrupt_rate net l >= 0.5

let unsettled t =
  let net = net t in
  let unsettled = ref false in
  if Network.impaired_links net > 0 then
    for i = 0 to Array.length t.links - 1 do
      if link_unsettled net t.links.(i) then unsettled := true
    done;
  for i = 0 to Array.length t.routers - 1 do
    if Router_stack.is_failed (snd t.routers.(i)) then unsettled := true
  done;
  !unsettled

(* The querier conditions of the [k]-th link with routers. *)
let querier_items_of t k =
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
    [ ( (`Zero, li),
        Mld_querier,
        lname,
        (fun () ->
          Printf.sprintf
            "no MLD querier on %s although %d router(s) run MLD there — the \
             Other-Querier-Present timeout failed to promote one"
            lname running),
        t.zero_querier_bound ) ]
  else if List.compare_length_with queriers 2 >= 0 then
    [ ( (`Multi, li),
        Mld_querier,
        lname,
        (fun () ->
          Printf.sprintf
            "%d simultaneous MLD queriers on %s (%s); the RFC 2710 election \
             must converge to the lowest link-local address"
            (List.length queriers) lname
            (String.concat ", " queriers)),
        t.bound ) ]
  else []

(* A link's querier set is a function of its routers' failed flags,
   MLD instances and MLD generations: re-derive it only when one of
   those moved. *)
let check_querier t ~at =
  let moved = ref false in
  for k = 0 to Array.length t.link_routers - 1 do
    let l, _, routers = t.link_routers.(k) in
    let mlds = t.q_mld.(k) and gens = t.q_gen.(k) in
    let link_moved = ref false in
    for j = 0 to Array.length routers - 1 do
      let _, r = routers.(j) in
      let m = Router_stack.mld_on r l in
      let gen =
        if Router_stack.is_failed r then -1
        else
          match m with
          | Some m -> Mld.Mld_router.generation m
          | None -> -2
      in
      if gen <> gens.(j) || m != mlds.(j) then begin
        gens.(j) <- gen;
        mlds.(j) <- m;
        link_moved := true
      end
    done;
    if !link_moved then begin
      t.q_items.(k) <- querier_items_of t k;
      moved := true
    end
  done;
  if !moved then t.querier_items <- List.concat (Array.to_list t.q_items);
  sustain_set t t.querier_st ~at t.querier_items

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
      List.filter_map
        (fun e ->
          let src = e.P.snap_source and grp = e.P.snap_group in
          let wants_traffic = List.exists (fun o -> o.P.snap_forwarding) e.P.snap_oifs in
          let state = e.P.snap_upstream_state in
          (* An assert loser whose loser state just expired reads as
             forwarding-while-pruned-upstream, but as long as the
             assert winner serves the same link nothing is owed: only
             an oif no other router covers makes a pruned upstream a
             broken branch. *)
          let wants_uncovered =
            List.exists
              (fun o ->
                o.P.snap_forwarding && not (covered_by_other ~name ~src ~grp o.P.snap_oif))
              e.P.snap_oifs
          in
          let unfed_join =
            match (state, e.P.snap_upstream) with
            | P.Up_joined, Some _ ->
              wants_traffic && not (Hashtbl.mem forwarders (e.P.snap_iif, src, grp))
            | _ -> false
          in
          let candidate =
            unfed_join
            ||
            match state with
            | P.Up_grafting -> true
            | P.Up_pruned -> wants_uncovered
            | P.Up_joined -> false
          in
          if not candidate then None
          else
            Some
              { pg_name = name;
                pg_src = src;
                pg_grp = grp;
                pg_state = state;
                pg_wants_uncovered = wants_uncovered;
                pg_unfed_join = unfed_join;
                pg_iif = e.P.snap_iif;
                pg_chan = -1 })
        entries)
    snaps

(* Re-snapshot the live routers whose PIM generation moved since the
   last sample, and rebuild the tables derived from the snapshots only
   when a snapshot changed: between protocol state changes a sample
   re-reads them. *)
let refresh_snapshots t =
  let moved = ref false in
  for i = 0 to Array.length t.routers - 1 do
    let _, r = t.routers.(i) in
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
      | cached ->
        let entries = P.snapshot p in
        t.snap_cache.(i) <- Some { c_pim = p; c_gen = gen; c_entries = entries };
        (* Most moves (a timer restarted, a neighbour refreshed) leave
           the snapshot as it was, and the tables below are a function
           of the snapshots alone. *)
        match cached with
        | Some c when c.c_entries = entries -> ()
        | Some _ | None -> moved := true
    end
  done;
  if !moved then begin
    let snaps = ref [] in
    for i = Array.length t.routers - 1 downto 0 do
      match t.snap_cache.(i) with
      | Some c -> snaps := (fst t.routers.(i), c.c_entries) :: !snaps
      | None -> ()
    done;
    t.forwarders <- forwarders_of !snaps;
    t.contested <-
      Array.of_list
        (Hashtbl.fold
           (fun (li, src, grp) names acc ->
             if List.length names >= 2 then
               { ct_link = li; ct_src = src; ct_grp = grp; ct_names = names; ct_chan = -1 }
               :: acc
             else acc)
           t.forwarders []);
    t.pg_entries <- Array.of_list (prune_graft_entries !snaps t.forwarders)
  end

(* The channel of the stream (S,G), from a [cached] one when known:
   a stream's channel never changes once the observer has seen it. *)
let sg_chan t ~src ~grp cached =
  if cached >= 0 then cached
  else
    match Sg_tbl.find_opt t.sg_chans (src, grp) with
    | Some chan -> (chan :> int)
    | None -> -1

let check_assert t ~at =
  let items = ref [] in
  (* Backwards, so consing leaves [items] in [contested] order. *)
  for k = Array.length t.contested - 1 downto 0 do
    let c = t.contested.(k) in
    let li = c.ct_link and src = c.ct_src and grp = c.ct_grp in
    c.ct_chan <- sg_chan t ~src ~grp c.ct_chan;
    (* Only meaningful on links that actually carry the stream:
       asserts are data-driven, so without traffic two routers may
       validly both consider an interface forwarding. *)
    let data_recent =
      c.ct_chan >= 0
      &&
      match t.chans.(c.ct_chan) with
      | Some cs when li >= 0 && li < Array.length cs.cs_link_tx ->
        at -. cs.cs_link_tx.(li) < 5.0
      | Some _ | None -> false
    in
    if data_recent then
      items :=
        ( (li, src, grp),
          Assert_winner,
          link_name_of t li,
          (fun () ->
            Printf.sprintf
              "%d routers (%s) forward (%s, %s) onto %s while the stream is live — \
               the Assert process never elected a single winner"
              (List.length c.ct_names)
              (String.concat ", " (List.sort compare c.ct_names))
              (Addr.to_string src) (Addr.to_string grp) (link_name_of t li)),
          t.bound )
        :: !items
  done;
  sustain_set t t.assert_st ~at !items

(* Dormant state for a source that stopped transmitting — e.g. the
   care-of source of a sender that roamed and went home again — is
   data-driven residue, not a broken branch; it times out on its
   own. *)
let stream_live t e ~at =
  e.pg_chan <- sg_chan t ~src:e.pg_src ~grp:e.pg_grp e.pg_chan;
  e.pg_chan >= 0 && at -. t.src_tx.(e.pg_chan) < 5.0

let sg_label src grp = Printf.sprintf "(%s,%s)" (Addr.to_string src) (Addr.to_string grp)

let check_prune_graft t ~at =
  let items = ref [] in
  for k = 0 to Array.length t.pg_entries - 1 do
    let e = t.pg_entries.(k) in
    let name = e.pg_name and src = e.pg_src and grp = e.pg_grp in
    (match e.pg_state with
     | P.Up_grafting ->
       items :=
         ( (`Stuck, name, src, grp),
           Prune_graft,
           name,
           (fun () ->
             Printf.sprintf
               "%s stuck in Grafting for %s: no Graft-Ack despite the retry timer" name
               (sg_label src grp)),
           t.bound )
         :: !items
     | P.Up_pruned when e.pg_wants_uncovered && stream_live t e ~at ->
       items :=
         ( (`Wants, name, src, grp),
           Prune_graft,
           name,
           (fun () ->
             Printf.sprintf
               "%s holds %s pruned upstream although downstream interfaces want the \
                traffic — a Graft should have restored the branch"
               name (sg_label src grp)),
           t.bound )
         :: !items
     | P.Up_joined | P.Up_pruned -> ());
    if e.pg_unfed_join && stream_live t e ~at then
      items :=
        ( (`Pair, name, src, grp),
          Prune_graft,
          name,
          (fun () ->
            Printf.sprintf
              "%s is Joined and forwarding %s, but no upstream router forwards onto %s \
               — the Graft/override exchange failed to restore the branch"
              name (sg_label src grp) (link_name_of t e.pg_iif)),
          t.bound )
        :: !items
  done;
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

(* Whether group [k] of host slot [hs] carried data in the last 3 s.
   The group's index is looked up once: [groups] only grows. *)
let group_active t hs k ~at =
  if hs.hs_gidx.(k) < 0 then
    hs.hs_gidx.(k) <-
      (match Addr_tbl.find t.groups hs.hs_groups.(k) with
       | gi -> gi
       | exception Not_found -> -1);
  let gi = hs.hs_gidx.(k) in
  gi >= 0 && at -. t.group_tx.(gi) < 3.0

let check_black_hole t ~at =
  let items = ref [] in
  (* Backwards, so consing leaves [items] in host, then group, order. *)
  for i = Array.length t.host_slots - 1 downto 0 do
    let hs = t.host_slots.(i) in
    for k = Array.length hs.hs_groups - 1 downto 0 do
      let g = hs.hs_groups.(k) and p = hs.hs_prog.(k) in
      let progress = Host_stack.arrivals hs.hs_host ~group:g in
      let prev = p.last in
      p.last <- progress;
      if prev = progress && group_active t hs k ~at then begin
        let name = hs.hs_name in
        items :=
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
          :: !items
      end
    done
  done;
  sustain_set t t.bh_st ~at !items

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
    Array.of_list
      (List.filter_map
         (fun l ->
           match Hashtbl.find_opt on_link (Link_id.to_int l) with
           | None -> None
           | Some rev -> Some (l, Topology.link_name topo l, Array.of_list (List.rev rev)))
         links)
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
      link_routers;
      q_mld = Array.map (fun (_, _, rs) -> Array.make (Array.length rs) None) link_routers;
      q_gen = Array.map (fun (_, _, rs) -> Array.make (Array.length rs) min_int) link_routers;
      q_items = Array.make (Array.length link_routers) [];
      querier_items = [];
      snap_cache = Array.make (List.length routers) None;
      forwarders = Hashtbl.create 16;
      contested = [||];
      pg_entries = [||];
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
      host_slots =
        Array.of_list
          (List.map
             (fun (name, h) ->
               let hs =
                 { hs_name = name;
                   hs_host = h;
                   hs_attach = Host_stack.last_attach_time h;
                   hs_subs = Addr.Set.empty;
                   hs_groups = [||];
                   hs_gidx = [||];
                   hs_prog = [||];
                   hs_seen = [] }
               in
               set_subscriptions hs (Host_stack.subscriptions h);
               hs)
             scenario.Scenario.hosts);
      link_of_hi = Hashtbl.create 16;
      host_of_iid = Hashtbl.create 8;
      tx_counts = Tx_window.create ~links:n_links;
      tx_limit =
        per_link (function
          | Some l -> 1 + List.length (Topology.routers_on_link topo l)
          | None -> 3);
      link_names =
        per_link (function
          | Some l -> Topology.link_name topo l
          | None -> "");
      chans = [||];
      src_tx = [||];
      group_tx = [||];
      groups = Addr_tbl.create 8;
      sg_chans = Sg_tbl.create 8 }
  in
  List.iter
    (fun (name, h) ->
      Hashtbl.replace t.host_of_iid (Topology.interface_id topo (Host_stack.node_id h)) (name, h))
    scenario.Scenario.hosts;
  List.iter
    (fun l ->
      Hashtbl.replace t.link_of_hi (Addr.hi (Prefix.address (Topology.link_prefix topo l))) l)
    links;
  Network.add_transmit_observer net (fun link chan p -> on_transmit t link chan p);
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
   only serve that — the loop counter above all, {!Tx_window.size}
   datagrams for every (channel, link) that carried data, and the
   address-ownership tables, an entry per link and per host — are
   released; the recorded violations stay. *)
let detach t =
  t.running <- false;
  Array.fill t.snap_cache 0 (Array.length t.snap_cache) None;
  t.q_mld <- [||];
  t.q_gen <- [||];
  t.q_items <- [||];
  t.querier_items <- [];
  t.host_slots <- [||];
  t.forwarders <- Hashtbl.create 1;
  t.contested <- [||];
  t.pg_entries <- [||];
  Tx_window.clear t.tx_counts;
  t.chans <- [||];
  t.src_tx <- [||];
  t.group_tx <- [||];
  Addr_tbl.reset t.groups;
  Sg_tbl.reset t.sg_chans;
  Hashtbl.reset t.link_of_hi;
  Hashtbl.reset t.host_of_iid;
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

open Ipv6

type prune_state =
  | Forwarding
  | Prune_pending  (* TPruneDel window: still forwarding, waiting for Joins *)
  | Pruned

type oif = {
  nbrs : int ref;  (* the router's neighbour count on this interface *)
  mutable prune : prune_state;
  prune_timer : Engine.Timer.t;  (* pending->pruned, then pruned->forwarding *)
  mutable assert_lost : (int * int * Addr.t) option;  (* winner pref, metric, addr *)
  assert_timer : Engine.Timer.t;
  mutable leaf_flooded : bool;
}

type upstream_state =
  | Joined  (* default: expect data from upstream *)
  | Pruned_up
  | Grafting

type entry = {
  source : Addr.t;
  group : Addr.t;
  iif : Pim_env.iface;
  rpf_upstream : Addr.t option;
  metric : int;
  mutable upstream : Addr.t option;  (* rpf choice, possibly assert-overridden *)
  mutable iif_assert : (int * int * Addr.t) option;
  iif_assert_timer : Engine.Timer.t;
  oifs : (Pim_env.iface, oif) Hashtbl.t;
      (* the ordered store: State Refresh goes out in its iteration order *)
  mutable oif_ifaces : Pim_env.iface array;  (* [oifs]' keys, ascending *)
  mutable oif_cells : oif array;  (* [oif_cells.(k)] is the oif of [oif_ifaces.(k)] *)
  mutable olist_gen : int;  (* router generation [olist_memo] was computed at *)
  mutable olist_memo : (Pim_env.iface * oif) list;
  expiry : Engine.Timer.t;
  mutable upstream_state : upstream_state;
  graft_timer : Engine.Timer.t;
  mutable last_prune_sent : Engine.Time.t option;
  mutable join_override : Engine.Sim.handle option;
  mutable refresh_timer : Engine.Timer.t option;  (* state-refresh origination *)
  (* Lineage: the span that recorded our own upstream Prune (so a later
     Graft can carry a causal edge back to it), and the span under which
     the Graft went out (so retransmissions from the graft timer rejoin
     the same lineage instead of rooting fresh traces); -1 = none. *)
  mutable prune_cause : int;
  mutable graft_span : int;
  mutable chan : int;  (* the [by_chan] slot caching this entry; -1 = none *)
}

(* Interfaces are small ints: hash them without a C call. *)
module Iface_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash i = i land max_int
end)

(* (S,G) keys: [Addr.equal] instead of polymorphic compare, but the
   polymorphic hash, so buckets — and with them every iteration order,
   hence Graft and State Refresh emission order — stay those of the
   generic table.

   Invariant: [entries] is the one ordered store of a router's (S,G)
   state.  Every walk over the entries ([local_members_changed],
   [interface_added], [stop], the introspection folds) goes through it,
   so the order of the Grafts and State Refreshes those walks send, and
   with it every trace digest, does not depend on how data finds its
   entry.  [by_chan] is only a cache in front of it for the data path:
   an entry is in [by_chan] at most once, under the channel recorded in
   its [chan] field, and leaves it when it leaves [entries]. *)
module Sg_tbl = Hashtbl.Make (struct
  type t = Addr.t * Addr.t

  let equal (s, g) (s', g') = Addr.equal s s' && Addr.equal g g'
  let hash = Hashtbl.hash
end)

type t = {
  env : Pim_env.t;
  entries : entry Sg_tbl.t;
  mutable by_chan : entry option array;  (* by the network's channel id of (S,G) *)
  neighbors : (Pim_env.iface * Addr.t, Engine.Timer.t) Hashtbl.t;
  neighbor_count : int ref Iface_tbl.t;  (* live entries of [neighbors], per iface *)
  hello_timer : Engine.Timer.t;
  mutable running : bool;
  mutable generation : int;
}

(* Every mutation a {!snapshot} could observe moves the generation. *)
let touch t = t.generation <- t.generation + 1

let trace t fmt = Pim_env.trace t.env fmt
let config t = t.env.Pim_env.config
let now t = Engine.Sim.now t.env.Pim_env.sim

let lineage t = Engine.Sim.lineage t.env.Pim_env.sim

(* A protocol state transition as a zero-duration span under the
   ambient lineage (the packet being handled), with an optional causal
   edge; -1 when collection is off. *)
let levent t name ?cause entry =
  match lineage t with
  | None -> -1
  | Some c ->
    Engine.Span.event c ~at:(now t) ~name:(Engine.Span.intern c name)
      ~node:t.env.Pim_env.label ?cause
      ~attrs:[ ("group", Addr.to_string entry.group) ]
      ()

let sg entry = { Pim_message.source = entry.source; group = entry.group }

(* ---- neighbours ---- *)

(* One count cell per interface, created on first use and never
   replaced, so an outgoing interface can hold on to its own. *)
let neighbor_cell t iface =
  match Iface_tbl.find_opt t.neighbor_count iface with
  | Some n -> n
  | None ->
    let n = ref 0 in
    Iface_tbl.replace t.neighbor_count iface n;
    n

let has_neighbors t iface =
  match Iface_tbl.find_opt t.neighbor_count iface with
  | Some n -> !n > 0
  | None -> false

let oif_has_neighbors o = !(o.nbrs) > 0

let neighbors t ~iface =
  Hashtbl.fold (fun (i, a) _ acc -> if i = iface then a :: acc else acc) t.neighbors []
  |> List.sort Addr.compare

let refresh_neighbor t iface addr ~holdtime =
  match Hashtbl.find_opt t.neighbors (iface, addr) with
  | Some timer -> Engine.Timer.start timer holdtime
  | None ->
    let timer =
      Engine.Timer.create ~category:"pim" t.env.Pim_env.sim
        ~name:(Printf.sprintf "%s.nbr.%d" t.env.Pim_env.label iface)
        ~on_expire:(fun () ->
          if Hashtbl.mem t.neighbors (iface, addr) then begin
            Hashtbl.remove t.neighbors (iface, addr);
            decr (neighbor_cell t iface);
            touch t
          end)
    in
    Hashtbl.replace t.neighbors (iface, addr) timer;
    incr (neighbor_cell t iface);
    touch t;
    Engine.Timer.start timer holdtime;
    trace t "neighbor %s on iface %d" (Addr.to_string addr) iface

(* ---- hello ---- *)

let send_hellos t =
  let holdtime_s = int_of_float (Engine.Time.seconds (config t).Pim_config.hello_holdtime) in
  List.iter
    (fun iface -> t.env.Pim_env.send_message iface (Pim_message.Hello { holdtime_s }))
    (t.env.Pim_env.interfaces ())

(* ---- (S,G) entries ---- *)

let entry_key source group = (source, group)

(* The outgoing interface [iface] of [entry]: a scan of a few ints. *)
let rec oif_from entry iface k =
  if k >= Array.length entry.oif_ifaces then None
  else if Array.unsafe_get entry.oif_ifaces k = iface then Some (Array.unsafe_get entry.oif_cells k)
  else oif_from entry iface (k + 1)

let find_oif entry iface = oif_from entry iface 0

let uncache t entry =
  if entry.chan >= 0 then begin
    (match t.by_chan.(entry.chan) with
     | Some e when e == entry -> t.by_chan.(entry.chan) <- None
     | Some _ | None -> ());
    entry.chan <- -1
  end

let stop_entry_timers entry =
  Engine.Timer.stop entry.expiry;
  Engine.Timer.stop entry.graft_timer;
  Engine.Timer.stop entry.iif_assert_timer;
  (match entry.refresh_timer with
   | Some timer -> Engine.Timer.stop timer
   | None -> ());
  Hashtbl.iter
    (fun _ o ->
      Engine.Timer.stop o.prune_timer;
      Engine.Timer.stop o.assert_timer)
    entry.oifs

let delete_entry t entry =
  stop_entry_timers entry;
  (match entry.join_override with
   | Some h -> Engine.Sim.cancel t.env.Pim_env.sim h
   | None -> ());
  Sg_tbl.remove t.entries (entry_key entry.source entry.group);
  uncache t entry;
  touch t;
  trace t "(%s,%s) state expired" (Addr.to_string entry.source) (Addr.to_string entry.group)

let make_oif t iface label =
  let rec o =
    lazy
      { nbrs = neighbor_cell t iface;
        prune = Forwarding;
        prune_timer =
          Engine.Timer.create ~category:"pim" t.env.Pim_env.sim ~name:(label ^ ".prune")
            ~on_expire:(fun () ->
              let o = Lazy.force o in
              match o.prune with
              | Prune_pending ->
                o.prune <- Pruned;
                touch t;
                Engine.Timer.start o.prune_timer (config t).Pim_config.prune_holdtime
              | Pruned ->
                o.prune <- Forwarding;
                touch t
              | Forwarding -> ());
        assert_lost = None;
        assert_timer =
          Engine.Timer.create ~category:"pim" t.env.Pim_env.sim ~name:(label ^ ".assert")
            ~on_expire:(fun () ->
              (Lazy.force o).assert_lost <- None;
              touch t);
        leaf_flooded = false }
  in
  Lazy.force o

(* Send a State Refresh for the entry on every interface with PIM
   neighbours (pruned ones included: that is how their prune state is
   kept alive without data). *)
let originate_state_refresh t entry ~interval =
  Hashtbl.iter
    (fun iface o ->
      if o.assert_lost = None && oif_has_neighbors o then
        t.env.Pim_env.send_message iface
          (Pim_message.State_refresh
             { refresh_source = entry.source;
               refresh_group = entry.group;
               interval_s = int_of_float (Engine.Time.seconds interval);
               prune_indicator = o.prune = Pruned }))
    entry.oifs;
  trace t "(%s,%s) state refresh originated" (Addr.to_string entry.source)
    (Addr.to_string entry.group)

(* Rebuild the lookup arrays from [oifs]. *)
let index_oifs entry =
  let sorted =
    Hashtbl.fold (fun iface o acc -> (iface, o) :: acc) entry.oifs []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  entry.oif_ifaces <- Array.of_list (List.map fst sorted);
  entry.oif_cells <- Array.of_list (List.map snd sorted)

(* [(iface, oif)] pairs, ascending by iface. *)
let oif_list entry =
  List.init (Array.length entry.oif_ifaces) (fun k -> (entry.oif_ifaces.(k), entry.oif_cells.(k)))

let create_entry t ~source ~group (rpf : Pim_env.rpf_result) =
  let label =
    Printf.sprintf "%s.(%s,%s)" t.env.Pim_env.label (Addr.to_string source)
      (Addr.to_string group)
  in
  let rec entry =
    lazy
      { source;
        group;
        iif = rpf.rpf_iface;
        rpf_upstream = rpf.upstream;
        metric = rpf.metric;
        upstream = rpf.upstream;
        iif_assert = None;
        iif_assert_timer =
          Engine.Timer.create ~category:"pim" t.env.Pim_env.sim ~name:(label ^ ".iif-assert")
            ~on_expire:(fun () ->
              let e = Lazy.force entry in
              e.iif_assert <- None;
              touch t;
              if e.upstream <> e.rpf_upstream then begin
                e.upstream <- e.rpf_upstream;
                e.last_prune_sent <- None;
                if e.upstream_state = Pruned_up then e.upstream_state <- Joined
              end);
        oifs = Hashtbl.create 4;
        oif_ifaces = [||];
        oif_cells = [||];
        olist_gen = -1;
        olist_memo = [];
        expiry =
          Engine.Timer.create ~category:"pim" t.env.Pim_env.sim ~name:(label ^ ".expiry")
            ~on_expire:(fun () -> delete_entry t (Lazy.force entry));
        upstream_state = Joined;
        graft_timer =
          Engine.Timer.create ~category:"pim" t.env.Pim_env.sim ~name:(label ^ ".graft")
            ~on_expire:(fun () ->
              let e = Lazy.force entry in
              if e.upstream_state = Grafting then begin
                (match e.upstream with
                 | Some up ->
                   let send () =
                     t.env.Pim_env.send_message e.iif
                       (Pim_message.Graft { upstream_neighbor = up; joins = [ sg e ] })
                   in
                   (* Restore the lineage under which the original
                      Graft went out, so retransmissions stay causally
                      chained to the packet that triggered grafting. *)
                   (match lineage t with
                    | Some c when e.graft_span >= 0 ->
                      Engine.Span.within c e.graft_span send
                    | Some _ | None -> send ());
                   trace t "(%s,%s) graft retransmitted" (Addr.to_string source)
                     (Addr.to_string group)
                 | None -> ());
                Engine.Timer.start (Lazy.force entry).graft_timer
                  (config t).Pim_config.graft_retry
              end);
        last_prune_sent = None;
        join_override = None;
        refresh_timer = None;
        prune_cause = -1;
        graft_span = -1;
        chan = -1 }
  in
  let entry = Lazy.force entry in
  List.iter
    (fun iface ->
      if iface <> entry.iif then
        Hashtbl.replace entry.oifs iface
          (make_oif t iface (Printf.sprintf "%s.oif%d" label iface)))
    (t.env.Pim_env.interfaces ());
  index_oifs entry;
  Sg_tbl.replace t.entries (entry_key source group) entry;
  touch t;
  Engine.Timer.start entry.expiry (config t).Pim_config.data_timeout;
  (* First-hop routers originate State Refresh when the extension is
     enabled. *)
  (match ((config t).Pim_config.state_refresh_interval, rpf.upstream) with
   | Some interval, None ->
     let rec timer =
       lazy
         (Engine.Timer.create ~category:"pim" t.env.Pim_env.sim ~name:(label ^ ".refresh")
            ~on_expire:(fun () ->
              if t.running && Sg_tbl.mem t.entries (entry_key source group) then begin
                originate_state_refresh t entry ~interval;
                Engine.Timer.start (Lazy.force timer) interval
              end))
     in
     entry.refresh_timer <- Some (Lazy.force timer);
     Engine.Timer.start (Lazy.force timer) interval
   | (Some _ | None), _ -> ());
  trace t "(%s,%s) state created, iif %d upstream %s" (Addr.to_string source)
    (Addr.to_string group) entry.iif
    (match entry.upstream with
     | Some a -> Addr.to_string a
     | None -> "direct");
  entry

let find_entry t ~source ~group = Sg_tbl.find_opt t.entries (entry_key source group)

let find_or_create_entry t ~source ~group =
  match find_entry t ~source ~group with
  | Some e -> Some e
  | None -> (
    match t.env.Pim_env.rpf ~source with
    | None -> None
    | Some rpf -> Some (create_entry t ~source ~group rpf))

(* The data path's lookup: an array read when [chan] caches the entry,
   [find_or_create_entry] otherwise.  A cached entry is checked against
   the packet's (S,G), so a caller's stray channel id costs a miss, never
   a wrong entry. *)
let entry_for_data t ~chan ~source ~group =
  let cached =
    if chan >= 0 && chan < Array.length t.by_chan then
      match Array.unsafe_get t.by_chan chan with
      | Some e as hit when Addr.equal e.source source && Addr.equal e.group group -> hit
      | Some _ | None -> None
    else None
  in
  match cached with
  | Some _ -> cached
  | None ->
    let found = find_or_create_entry t ~source ~group in
    (match found with
     | Some e when chan >= 0 ->
       let len = Array.length t.by_chan in
       if chan >= len then begin
         let grown = Array.make (max (chan + 1) (2 * len)) None in
         Array.blit t.by_chan 0 grown 0 len;
         t.by_chan <- grown
       end;
       uncache t e;
       (match t.by_chan.(chan) with
        | Some other -> other.chan <- -1
        | None -> ());
       t.by_chan.(chan) <- found;
       e.chan <- chan
     | Some _ | None -> ());
    found

(* ---- forwarding decision ---- *)

(* An interface carries (S,G) data when we won (or never contested) the
   assert, and either a local MLD listener needs it, or downstream PIM
   neighbours exist and have not pruned, or the leaf-flood of the first
   datagram is still owed. *)
let oif_would_forward t entry iface o =
  o.assert_lost = None
  && ((if oif_has_neighbors o then o.prune <> Pruned
       else
         (config t).Pim_config.flood_to_leaf_links
         && t.env.Pim_env.flood_eligible iface
         && not o.leaf_flooded)
      (* last: the membership test is the one lookup *)
      || t.env.Pim_env.has_local_members iface entry.group)

(* Every input of [oif_would_forward] moves the generation, so the list
   is recomputed only after a state change, not per datagram. *)
let olist t entry =
  if entry.olist_gen <> t.generation then begin
    let memo = ref [] in
    for k = Array.length entry.oif_ifaces - 1 downto 0 do
      let iface = entry.oif_ifaces.(k) and o = entry.oif_cells.(k) in
      if oif_would_forward t entry iface o then memo := (iface, o) :: !memo
    done;
    entry.olist_memo <- !memo;
    entry.olist_gen <- t.generation
  end;
  entry.olist_memo

(* ---- upstream prune / graft / join ---- *)

let send_prune_upstream t entry =
  match entry.upstream with
  | None -> ()
  | Some up ->
    (* Having pruned, hold that state for the prune holdtime even if
       data keeps flowing (another router's overriding Join, or local
       members at the upstream, keep the LAN alive); re-pruning every
       datagram would start a permanent prune/join fight. *)
    let rate_limited =
      match entry.last_prune_sent with
      | None -> false
      | Some at ->
        Engine.Time.compare
          (Engine.Time.sub (now t) at)
          (config t).Pim_config.prune_holdtime
        < 0
    in
    if not rate_limited then begin
      let holdtime_s =
        int_of_float (Engine.Time.seconds (config t).Pim_config.prune_holdtime)
      in
      t.env.Pim_env.send_message entry.iif
        (Pim_message.Join_prune
           { upstream_neighbor = up; holdtime_s; joins = []; prunes = [ sg entry ] });
      entry.last_prune_sent <- Some (now t);
      entry.upstream_state <- Pruned_up;
      touch t;
      entry.prune_cause <- levent t "pim-prune-sent" entry;
      trace t "(%s,%s) pruned upstream via iface %d" (Addr.to_string entry.source)
        (Addr.to_string entry.group) entry.iif
    end

let send_graft_upstream t entry =
  match entry.upstream with
  | None -> ()
  | Some up ->
    if (config t).Pim_config.enable_graft && entry.upstream_state <> Grafting then begin
      entry.upstream_state <- Grafting;
      touch t;
      (* The Graft is sent *because* an earlier Prune detached this
         branch: a causal edge back to the recorded prune span turns
         "graft sent" into an explainable event across lineages. *)
      (match lineage t with
       | None -> ()
       | Some c ->
         let cause = if entry.prune_cause >= 0 then Some entry.prune_cause else None in
         let id = levent t "pim-graft-sent" ?cause entry in
         let _, ambient = Engine.Span.context c in
         entry.graft_span <- (if ambient >= 0 then ambient else id);
         Engine.Span.mark c ~at:(now t) ~name:"graft-sent" ~node:t.env.Pim_env.label
           ~attrs:[ ("group", Addr.to_string entry.group) ]
           ());
      t.env.Pim_env.send_message entry.iif
        (Pim_message.Graft { upstream_neighbor = up; joins = [ sg entry ] });
      Engine.Timer.start entry.graft_timer (config t).Pim_config.graft_retry;
      trace t "(%s,%s) graft sent upstream" (Addr.to_string entry.source)
        (Addr.to_string entry.group)
    end

let schedule_join_override t entry =
  (* Another router pruned our upstream link but we still need the
     traffic: answer with a Join within the TPruneDel window, after a
     random delay so that one of several interested routers answers
     first and the others suppress. *)
  if entry.join_override = None then begin
    let delay =
      Engine.Rng.float t.env.Pim_env.rng
        (Engine.Time.seconds (config t).Pim_config.join_override_max)
    in
    let handle =
      Engine.Sim.schedule_after ~category:"pim" t.env.Pim_env.sim delay (fun () ->
          entry.join_override <- None;
          if t.running then
            match entry.upstream with
            | Some up ->
              let holdtime_s =
                int_of_float (Engine.Time.seconds (config t).Pim_config.prune_holdtime)
              in
              t.env.Pim_env.send_message entry.iif
                (Pim_message.Join_prune
                   { upstream_neighbor = up; holdtime_s; joins = [ sg entry ]; prunes = [] });
              trace t "(%s,%s) join override sent" (Addr.to_string entry.source)
                (Addr.to_string entry.group)
            | None -> ())
    in
    entry.join_override <- Some handle
  end

let cancel_join_override t entry =
  match entry.join_override with
  | Some h ->
    Engine.Sim.cancel t.env.Pim_env.sim h;
    entry.join_override <- None
  | None -> ()

(* ---- data plane ---- *)

let forward t entry packet =
  let targets = olist t entry in
  List.iter
    (fun (iface, o) ->
      if
        (not o.leaf_flooded)
        && (not (oif_has_neighbors o))
        && not (t.env.Pim_env.has_local_members iface entry.group)
      then begin
        o.leaf_flooded <- true;
        touch t
      end;
      t.env.Pim_env.forward_data iface packet)
    targets;
  if targets = [] then begin
    (* No downstream interface wanted it: the datagram dies here, and
       the lineage records the typed reason before the Prune goes out
       (so the chain reads drop → prune → later graft). *)
    (match lineage t with
     | None -> ()
     | Some c ->
       ignore
         (Engine.Span.drop c ~at:(now t) ~node:t.env.Pim_env.label
            ~reason:Engine.Span.Pruned_iface
            ~detail:(Addr.to_string entry.group) ()));
    send_prune_upstream t entry
  end

let my_assert_metric t entry = ((config t).Pim_config.metric_preference, entry.metric)

let send_assert t entry iface =
  let pref, metric = my_assert_metric t entry in
  t.env.Pim_env.send_message iface
    (Pim_message.Assert
       { group = entry.group; source = entry.source; metric_preference = pref; metric });
  trace t "(%s,%s) assert sent on iface %d" (Addr.to_string entry.source)
    (Addr.to_string entry.group) iface

let handle_data t ~iface ~chan packet =
  if t.running then begin
    let source = packet.Packet.src and group = packet.Packet.dst in
    match entry_for_data t ~chan ~source ~group with
    | None ->
      (match lineage t with
       | None -> ()
       | Some c ->
         ignore
           (Engine.Span.drop c ~at:(now t) ~node:t.env.Pim_env.label
              ~reason:Engine.Span.Rpf_fail
              ~detail:(Addr.to_string source) ()));
      trace t "data from unroutable source %s dropped" (Addr.to_string source)
    | Some entry ->
      if iface = entry.iif then begin
        Engine.Timer.start entry.expiry (config t).Pim_config.data_timeout;
        forward t entry packet
      end
      else begin
        (* Reverse-path failure: a datagram showed up on an interface we
           forward onto, so another forwarder is active on that LAN —
           start the Assert process (paper, section 3.1). *)
        match find_oif entry iface with
        | Some o when oif_would_forward t entry iface o -> send_assert t entry iface
        | Some _ | None -> ()
      end
  end

(* ---- control plane ---- *)

let local_addr t iface = t.env.Pim_env.local_address iface

let handle_prune t ~iface ~upstream_neighbor entry =
  let mine = Addr.equal upstream_neighbor (local_addr t iface) in
  if mine then begin
    match find_oif entry iface with
    | None -> ()
    | Some o -> (
      match o.prune with
      | Forwarding ->
        o.prune <- Prune_pending;
        touch t;
        Engine.Timer.start o.prune_timer (config t).Pim_config.prune_delay;
        ignore (levent t "pim-prune-pending" entry);
        trace t "(%s,%s) prune pending on iface %d (TPruneDel window)"
          (Addr.to_string entry.source) (Addr.to_string entry.group) iface
      | Pruned ->
        (* A repeated Prune (e.g. answering a State Refresh) renews the
           prune state instead of letting the holdtime re-flood. *)
        Engine.Timer.start o.prune_timer (config t).Pim_config.prune_holdtime
      | Prune_pending -> ())
  end
  else if
    iface = entry.iif
    && (match entry.upstream with
        | Some up -> Addr.equal up upstream_neighbor
        | None -> false)
    && olist t entry <> []
  then
    (* Someone pruned the link we depend on: override. *)
    schedule_join_override t entry

let handle_join t ~iface ~upstream_neighbor entry =
  let mine = Addr.equal upstream_neighbor (local_addr t iface) in
  if mine then begin
    match find_oif entry iface with
    | None -> ()
    | Some o ->
      if o.prune <> Forwarding then begin
        o.prune <- Forwarding;
        touch t;
        Engine.Timer.stop o.prune_timer;
        ignore (levent t "pim-join" entry);
        trace t "(%s,%s) join cancels prune on iface %d" (Addr.to_string entry.source)
          (Addr.to_string entry.group) iface
      end
  end
  else if
    iface = entry.iif
    && (match entry.upstream with
        | Some up -> Addr.equal up upstream_neighbor
        | None -> false)
  then
    (* Another router's Join keeps the traffic flowing; ours would be
       redundant. *)
    cancel_join_override t entry

let handle_graft t ~iface ~src ~upstream_neighbor joins =
  if Addr.equal upstream_neighbor (local_addr t iface) then begin
    let grafted =
      List.filter_map
        (fun { Pim_message.source; group } ->
          match find_entry t ~source ~group with
          | None -> None
          | Some entry -> (
            match find_oif entry iface with
            | None -> None
            | Some o ->
              o.prune <- Forwarding;
              Engine.Timer.stop o.prune_timer;
              o.leaf_flooded <- false;
              touch t;
              ignore (levent t "pim-grafted-iface" entry);
              trace t "(%s,%s) grafted iface %d" (Addr.to_string source)
                (Addr.to_string group) iface;
              (* Cascade: if we had pruned ourselves off, rejoin. *)
              if entry.upstream_state = Pruned_up then send_graft_upstream t entry;
              Some { Pim_message.source; group }))
        joins
    in
    if grafted <> [] then
      t.env.Pim_env.send_message iface
        (Pim_message.Graft_ack { upstream_neighbor = src; joins = grafted })
  end

let handle_graft_ack t ~iface ~upstream_neighbor joins =
  if Addr.equal upstream_neighbor (local_addr t iface) then
    List.iter
      (fun { Pim_message.source; group } ->
        match find_entry t ~source ~group with
        | Some entry when entry.upstream_state = Grafting ->
          entry.upstream_state <- Joined;
          touch t;
          Engine.Timer.stop entry.graft_timer;
          entry.prune_cause <- -1;
          entry.graft_span <- -1;
          ignore (levent t "pim-graft-acked" entry);
          (match lineage t with
           | None -> ()
           | Some c ->
             Engine.Span.mark c ~at:(now t) ~name:"graft-acked"
               ~node:t.env.Pim_env.label
               ~attrs:[ ("group", Addr.to_string group) ]
               ());
          trace t "(%s,%s) graft acknowledged" (Addr.to_string source) (Addr.to_string group)
        | Some _ | None -> ())
      joins

(* Assert comparison: lower preference wins, then lower metric, then
   the higher address (draft-ietf-pim-v2-dm-03 section 3.5). *)
let assert_beats (pref_a, metric_a, addr_a) (pref_b, metric_b, addr_b) =
  if pref_a <> pref_b then pref_a < pref_b
  else if metric_a <> metric_b then metric_a < metric_b
  else Addr.compare addr_a addr_b > 0

let handle_assert t ~iface ~src ~group ~source ~metric_preference ~metric =
  match find_entry t ~source ~group with
  | None -> ()
  | Some entry ->
    let theirs = (metric_preference, metric, src) in
    if iface = entry.iif then begin
      (* Forwarder election on our upstream link: remember the winner
         so Prunes/Grafts/Joins target the elected forwarder. *)
      let better =
        match entry.iif_assert with
        | None -> true
        | Some current -> assert_beats theirs current
      in
      if better then begin
        let changed =
          match entry.upstream with
          | Some up -> not (Addr.equal up src)
          | None -> true
        in
        entry.iif_assert <- Some theirs;
        entry.upstream <- Some src;
        touch t;
        Engine.Timer.start entry.iif_assert_timer (config t).Pim_config.assert_time;
        (* A Prune sent to the previous upstream never reached the
           elected forwarder: allow an immediate re-prune toward the
           winner. *)
        if changed then begin
          entry.last_prune_sent <- None;
          if entry.upstream_state = Pruned_up then entry.upstream_state <- Joined
        end;
        trace t "(%s,%s) assert winner %s is new upstream" (Addr.to_string source)
          (Addr.to_string group) (Addr.to_string src)
      end
    end
    else begin
      match find_oif entry iface with
      | None -> ()
      | Some o ->
        if o.assert_lost = None && oif_would_forward t entry iface o then begin
          let pref, my_metric = my_assert_metric t entry in
          let mine = (pref, my_metric, local_addr t iface) in
          if assert_beats theirs mine then begin
            o.assert_lost <- Some theirs;
            touch t;
            Engine.Timer.start o.assert_timer (config t).Pim_config.assert_time;
            trace t "(%s,%s) lost assert on iface %d to %s" (Addr.to_string source)
              (Addr.to_string group) iface (Addr.to_string src)
          end
          else
            (* We win: answer so the loser stands down. *)
            send_assert t entry iface
        end
    end

(* Receiving a State Refresh on the reverse-path interface renews the
   (S,G) state and every pruned-branch timer, then propagates it
   downstream — the re-flood suppression of the extension. *)
let handle_state_refresh t ~iface ~refresh_source ~refresh_group ~interval_s
    ~prune_indicator =
  let entry =
    match find_entry t ~source:refresh_source ~group:refresh_group with
    | Some _ as e -> e
    | None -> (
      (* RFC 3973-style: a State Refresh stands in for the data it
         describes, so a router without (S,G) state — one that
         restarted after its branch was pruned, and will never see the
         data itself — rebuilds the entry from it, RPF check
         included. *)
      match t.env.Pim_env.rpf ~source:refresh_source with
      | Some rpf when rpf.Pim_env.rpf_iface = iface ->
        find_or_create_entry t ~source:refresh_source ~group:refresh_group
      | Some _ | None -> None)
  in
  match entry with
  | None -> ()
  | Some entry ->
    if iface = entry.iif then begin
      Engine.Timer.start entry.expiry (config t).Pim_config.data_timeout;
      let needs_traffic = olist t entry <> [] in
      if not needs_traffic then begin
        (* A pruned downstream router answers the refresh by renewing
           its Prune, which keeps the upstream branch pruned (RFC
           3973-style behaviour). *)
        if entry.upstream_state = Pruned_up then begin
          entry.last_prune_sent <- None;
          send_prune_upstream t entry
        end
      end
      else if prune_indicator || entry.upstream_state = Pruned_up then begin
        (* Receivers exist but the upstream branch is (or is believed
           to be) pruned — a Join or Graft was lost, or the outgoing
           interface came back from assert-loser suppression after the
           prune went out.  Recover with a Graft (RFC 3973's
           prune-indicator rule, extended to our own pruned state). *)
        entry.upstream_state <- Pruned_up;
        touch t;
        send_graft_upstream t entry
      end;
      Hashtbl.iter
        (fun oif_iface o ->
          (match o.prune with
           | Pruned ->
             (* Keep the branch pruned instead of letting the holdtime
                re-flood it. *)
             Engine.Timer.start o.prune_timer (config t).Pim_config.prune_holdtime
           | Forwarding | Prune_pending -> ());
          if o.assert_lost = None && oif_has_neighbors o then
            t.env.Pim_env.send_message oif_iface
              (Pim_message.State_refresh
                 { refresh_source;
                   refresh_group;
                   interval_s;
                   prune_indicator = o.prune = Pruned }))
        entry.oifs
    end

let handle_message t ~iface ~src msg =
  if t.running then
    match (msg : Pim_message.t) with
    | Hello { holdtime_s } ->
      refresh_neighbor t iface src ~holdtime:(float_of_int holdtime_s)
    | Join_prune { upstream_neighbor; joins; prunes; holdtime_s = _ } ->
      List.iter
        (fun { Pim_message.source; group } ->
          match find_entry t ~source ~group with
          | Some entry -> handle_prune t ~iface ~upstream_neighbor entry
          | None -> ())
        prunes;
      List.iter
        (fun { Pim_message.source; group } ->
          match find_entry t ~source ~group with
          | Some entry -> handle_join t ~iface ~upstream_neighbor entry
          | None -> ())
        joins
    | Graft { upstream_neighbor; joins } -> handle_graft t ~iface ~src ~upstream_neighbor joins
    | Graft_ack { upstream_neighbor; joins } -> handle_graft_ack t ~iface ~upstream_neighbor joins
    | Assert { group; source; metric_preference; metric } ->
      handle_assert t ~iface ~src ~group ~source ~metric_preference ~metric
    | State_refresh { refresh_source; refresh_group; interval_s; prune_indicator } ->
      handle_state_refresh t ~iface ~refresh_source ~refresh_group ~interval_s
        ~prune_indicator

let local_members_changed t ~iface ~group ~present =
  (* Membership feeds [oif_would_forward], so a snapshot sees it either
     way. *)
  touch t;
  if t.running && present then
    (* A listener appeared: re-attach every (S,G) of the group whose
       upstream we pruned away (the Graft case of section 3.1). *)
    Sg_tbl.iter
      (fun (_, g) entry ->
        if Addr.equal g group && iface <> entry.iif then begin
          (match find_oif entry iface with
           | Some o -> o.leaf_flooded <- false
           | None -> ());
          if entry.upstream_state = Pruned_up then send_graft_upstream t entry
        end)
      t.entries
(* A disappearing listener needs no action here: the next datagram
   recomputes the outgoing list and triggers the upstream Prune, which
   is exactly the leave-delay behaviour the paper analyses. *)

let interface_added t ~iface =
  Sg_tbl.iter
    (fun (source, group) entry ->
      if iface <> entry.iif && not (Hashtbl.mem entry.oifs iface) then begin
        Hashtbl.replace entry.oifs iface
          (make_oif t iface
             (Printf.sprintf "%s.(%s,%s).oif%d" t.env.Pim_env.label (Addr.to_string source)
                (Addr.to_string group) iface));
        index_oifs entry;
        touch t
      end)
    t.entries

(* ---- lifecycle ---- *)

let create env =
  let rec t =
    lazy
      { env;
        entries = Sg_tbl.create 8;
        by_chan = [||];
        neighbors = Hashtbl.create 8;
        neighbor_count = Iface_tbl.create 8;
        hello_timer =
          Engine.Timer.create ~category:"pim" env.Pim_env.sim ~name:(env.Pim_env.label ^ ".hello")
            ~on_expire:(fun () ->
              let t = Lazy.force t in
              if t.running then begin
                send_hellos t;
                Engine.Timer.start t.hello_timer (config t).Pim_config.hello_period
              end);
        running = false;
        generation = 0 }
  in
  Lazy.force t

let start t =
  t.running <- true;
  touch t;
  send_hellos t;
  Engine.Timer.start t.hello_timer (config t).Pim_config.hello_period

let stop t =
  t.running <- false;
  Engine.Timer.stop t.hello_timer;
  Hashtbl.iter (fun _ timer -> Engine.Timer.stop timer) t.neighbors;
  Hashtbl.reset t.neighbors;
  Iface_tbl.iter (fun _ n -> n := 0) t.neighbor_count;
  touch t;
  let all = Sg_tbl.fold (fun _ e acc -> e :: acc) t.entries [] in
  List.iter
    (fun e ->
      stop_entry_timers e;
      cancel_join_override t e;
      uncache t e)
    all;
  Sg_tbl.reset t.entries

(* ---- introspection ---- *)

type oif_info = {
  oif : Pim_env.iface;
  forwarding : bool;
  pruned : bool;
  assert_lost : bool;
}

type entry_info = {
  source : Addr.t;
  group : Addr.t;
  iif : Pim_env.iface;
  upstream : Addr.t option;
  oifs : oif_info list;
}

let entries t =
  Sg_tbl.fold (fun key _ acc -> key :: acc) t.entries []
  |> List.sort (fun (s1, g1) (s2, g2) ->
         match Addr.compare s1 s2 with
         | 0 -> Addr.compare g1 g2
         | c -> c)

let entry_info t ~source ~group =
  match find_entry t ~source ~group with
  | None -> None
  | Some entry ->
    let oifs =
      List.map
        (fun (iface, o) ->
          { oif = iface;
            forwarding = oif_would_forward t entry iface o;
            pruned = o.prune = Pruned;
            assert_lost = o.assert_lost <> None })
        (oif_list entry)
    in
    Some { source; group; iif = entry.iif; upstream = entry.upstream; oifs }

let is_forwarding t ~source ~group ~iface =
  match find_entry t ~source ~group with
  | None -> false
  | Some entry -> (
    match find_oif entry iface with
    | None -> false
    | Some o -> oif_would_forward t entry iface o)

(* ---- read-only snapshots for the invariant monitor ---- *)

type upstream_snapshot =
  | Up_joined
  | Up_pruned
  | Up_grafting

type oif_snapshot = {
  snap_oif : Pim_env.iface;
  snap_forwarding : bool;
  snap_prune_pending : bool;
  snap_pruned : bool;
  snap_assert_winner : Addr.t option;
}

type entry_snapshot = {
  snap_source : Addr.t;
  snap_group : Addr.t;
  snap_iif : Pim_env.iface;
  snap_upstream : Addr.t option;
  snap_upstream_state : upstream_snapshot;
  snap_oifs : oif_snapshot list;
}

let snapshot_entry t entry =
  let snap_oifs =
    List.map
      (fun (iface, o) ->
        { snap_oif = iface;
          snap_forwarding = oif_would_forward t entry iface o;
          snap_prune_pending = o.prune = Prune_pending;
          snap_pruned = o.prune = Pruned;
          snap_assert_winner =
            (match o.assert_lost with
             | Some (_, _, winner) -> Some winner
             | None -> None) })
      (oif_list entry)
  in
  { snap_source = entry.source;
    snap_group = entry.group;
    snap_iif = entry.iif;
    snap_upstream = entry.upstream;
    snap_upstream_state =
      (match entry.upstream_state with
       | Joined -> Up_joined
       | Pruned_up -> Up_pruned
       | Grafting -> Up_grafting);
    snap_oifs }

let snapshot t =
  Sg_tbl.fold (fun _ entry acc -> snapshot_entry t entry :: acc) t.entries []
  |> List.sort (fun a b ->
         match Addr.compare a.snap_source b.snap_source with
         | 0 -> Addr.compare a.snap_group b.snap_group
         | c -> c)

let generation t = t.generation

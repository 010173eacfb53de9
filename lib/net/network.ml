open Ipv6
module Node_id = Ids.Node_id
module Link_id = Ids.Link_id
module Channel_id = Ids.Channel_id

type l2_dest =
  | To_node of Node_id.t
  | To_all

type link_stats = {
  packets : int;
  bytes : int;
  data_bytes : int;
}

let empty_stats = { packets = 0; bytes = 0; data_bytes = 0 }

(* Per-link counters live in mutable records, one per link id, so the
   per-packet path is one array read plus three in-place increments. *)
type stats_cell = {
  mutable c_packets : int;
  mutable c_bytes : int;
  mutable c_data_bytes : int;
}

(* Fault-injection state of one link; absent entry = pristine link. *)
type condition = {
  mutable up : bool;
  mutable loss : float;
  mutable dup : float;
  mutable reorder : float;
  mutable reorder_jitter : Engine.Time.t;
  mutable corrupt : float;
}

let pristine () =
  { up = true; loss = 0.0; dup = 0.0; reorder = 0.0; reorder_jitter = 0.0; corrupt = 0.0 }

(* A condition that behaves differently from an absent one. *)
let impaired c = (not c.up) || c.loss > 0.0 || c.dup > 0.0 || c.reorder > 0.0 || c.corrupt > 0.0

(* A channel's key: (source, group) for multicast, (source,
   destination) for unicast, the destination alone for a tunnel.
   Only [intern] builds one, on a memo miss. *)
type chan_kind =
  | Mcast
  | Ucast
  | Tunnel

module Chan_tbl = Hashtbl.Make (struct
  type t = chan_kind * Addr.t * Addr.t

  let equal (k, a, b) (k', a', b') = k = k' && Addr.equal a a' && Addr.equal b b'

  let hash (k, a, b) =
    let kind = match k with Mcast -> 0 | Ucast -> 1 | Tunnel -> 2 in
    let h = (((Addr.hash a * 0x100000001b3) lxor Addr.hash b) * 31) + kind in
    (h lxor (h lsr 32)) land max_int
end)

type handler = link:Link_id.t -> from:Node_id.t -> chan:Channel_id.t -> Packet.t -> unit

type t = {
  sim : Engine.Sim.t;
  topology : Topology.t;
  routing : Routing.t;
  trace : Engine.Trace.t;
  mutable handlers : handler option array;  (* by node id *)
  owners : (Link_id.t * Addr.t, Node_id.t) Hashtbl.t;
  mutable per_link : stats_cell array;  (* by link id *)
  channels : Channel_id.t Chan_tbl.t;
  mutable dropped : int;
  (* Observers in registration order in [observers.(0 .. n_observers-1)];
     a growable array keeps registration O(1) amortized and the
     per-packet iteration a tight counted loop. *)
  mutable observers : (Link_id.t -> Channel_id.t -> Packet.t -> unit) array;
  mutable n_observers : int;
  (* Frame observers additionally see the sender and L2 destination;
     the packet-capture layer filters on them.  Same growable-array
     scheme, same zero cost when none are registered.  They receive the
     transmission's interned {!Codec.Frame} cell, so forcing the frame
     is shared with wire-check deliveries of the same transmission. *)
  mutable frame_observers :
    (link:Link_id.t -> from:Node_id.t -> dest:l2_dest -> Codec.Frame.t -> unit) array;
  mutable n_frame_observers : int;
  (* One-slot frame memo keyed by physical packet identity: a router
     fanning the same packet value out over N links transmits N times
     in a row with the identical [Packet.t], and every one of those
     transmissions shares a single interned frame cell (one encode for
     the whole dense-mode flood step). *)
  mutable last_frame : Codec.Frame.t option;
  (* The channel of [last_frame], and the packet and channel of the
     delivery handled last: a router forwards what it received (the
     same value, or a copy with the hop limit decremented), so one of
     the two names the channel of almost every transmission and
     [intern] hashes only the first hop of a stream. *)
  mutable last_chan : Channel_id.t;
  mutable rx_packet : Packet.t;
  mutable rx_chan : Channel_id.t;
  conditions : (Link_id.t, condition) Hashtbl.t;
  mutable impaired_links : int;  (* entries of [conditions] that are [impaired] *)
  (* Independent fault randomness: [loss_rng] is split from the root
     stream (as it always was); the duplication and reordering streams
     are derived from it without advancing it, so enabling those faults
     does not perturb any other component's stream. *)
  loss_rng : Engine.Rng.t;
  dup_rng : Engine.Rng.t;
  reorder_rng : Engine.Rng.t;
  corrupt_rng : Engine.Rng.t;
  mutable lost : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable blocked : int;
  (* Wire-exactness mode: when on, every delivery round-trips through
     Codec.encode/Codec.decode, so the receiver only ever sees what a
     byte-exact frame would decode to; corruption injection mutates the
     frame in between and the checksum/format validation of the decoder
     drops it here, counted per receiving node. *)
  mutable wire_check : bool;
  malformed : (Node_id.t, int ref) Hashtbl.t;
  mutable malformed_total : int;
  (* Schedule exploration: when [delay_slots > 1] and the simulator has
     a decider installed, every per-receiver delivery consults a Delay
     choice point and slot k adds k·[delay_step] of extra latency. *)
  mutable delay_slots : int;
  mutable delay_step : Engine.Time.t;
  mutable span_names : span_names option;  (* built on first use *)
}

(* Attributes that lineage spans share, so a network that records no
   lineage allocates none of them: each link's [("link", name)] list
   and each group's [("group", address)] list. *)
and span_names = {
  mutable link_attrs : (string * string) list array;
  mutable group_attrs : (Addr.t * (string * string) list) list;
}

let new_cell () = { c_packets = 0; c_bytes = 0; c_data_bytes = 0 }

(* Node and link ids are dense from 0. *)
let id_bound to_int = List.fold_left (fun m x -> max m (to_int x + 1)) 0

let create sim topology =
  let loss_rng = Engine.Rng.split (Engine.Sim.rng sim) in
  { sim;
    topology;
    routing = Routing.create topology;
    trace = Engine.Trace.create sim;
    handlers = Array.make (id_bound Node_id.to_int (Topology.nodes topology)) None;
    owners = Hashtbl.create 64;
    per_link =
      Array.init (id_bound Link_id.to_int (Topology.links topology)) (fun _ -> new_cell ());
    channels = Chan_tbl.create 8;
    dropped = 0;
    observers = [||];
    n_observers = 0;
    frame_observers = [||];
    n_frame_observers = 0;
    last_frame = None;
    last_chan = Channel_id.none;
    rx_packet = Packet.make ~src:Addr.unspecified ~dst:Addr.unspecified Packet.Empty;
    rx_chan = Channel_id.none;
    conditions = Hashtbl.create 4;
    impaired_links = 0;
    loss_rng;
    dup_rng = Engine.Rng.derive loss_rng 1;
    reorder_rng = Engine.Rng.derive loss_rng 2;
    corrupt_rng = Engine.Rng.derive loss_rng 3;
    lost = 0;
    duplicated = 0;
    reordered = 0;
    blocked = 0;
    wire_check = false;
    malformed = Hashtbl.create 8;
    malformed_total = 0;
    delay_slots = 1;
    delay_step = 0.0;
    span_names = None }

let set_delay_exploration t ~slots ~max_extra =
  if slots < 1 then invalid_arg "Network.set_delay_exploration: slots < 1";
  if max_extra < 0.0 then
    invalid_arg "Network.set_delay_exploration: negative max_extra";
  t.delay_slots <- slots;
  t.delay_step <-
    (if slots <= 1 then 0.0 else max_extra /. float_of_int (slots - 1))

let sim t = t.sim
let topology t = t.topology
let routing t = t.routing
let trace t = t.trace

let set_handler t node f =
  let i = Node_id.to_int node in
  let len = Array.length t.handlers in
  if i >= len then begin
    let grown = Array.make (max (i + 1) (2 * len)) None in
    Array.blit t.handlers 0 grown 0 len;
    t.handlers <- grown
  end;
  t.handlers.(i) <- Some f

let handler t node =
  let i = Node_id.to_int node in
  if i < Array.length t.handlers then Array.unsafe_get t.handlers i else None

(* ---- channels ---- *)

(* Data and tunnelled packets have a channel; control messages none. *)
let data_bearing (p : Packet.t) =
  match p.Packet.payload with
  | Packet.Data _ | Packet.Encapsulated _ -> true
  | Packet.Mld _ | Packet.Pim _ | Packet.Nd _ | Packet.Empty -> false

let tunnelled (p : Packet.t) =
  match p.Packet.payload with
  | Packet.Encapsulated _ -> not (Packet.is_multicast_dst p)
  | Packet.Data _ | Packet.Mld _ | Packet.Pim _ | Packet.Nd _ | Packet.Empty -> false

(* Whether two data-bearing packets have the same channel key, without
   building either. *)
let same_channel (p : Packet.t) (q : Packet.t) =
  p == q
  || Addr.equal p.Packet.dst q.Packet.dst
     &&
     let tp = tunnelled p in
     tp = tunnelled q && (tp || Addr.equal p.Packet.src q.Packet.src)

let intern t (p : Packet.t) =
  let key =
    if Packet.is_multicast_dst p then (Mcast, p.Packet.src, p.Packet.dst)
    else if tunnelled p then (Tunnel, p.Packet.dst, p.Packet.dst)
    else (Ucast, p.Packet.src, p.Packet.dst)
  in
  match Chan_tbl.find_opt t.channels key with
  | Some c -> c
  | None ->
    let c = Channel_id.of_int (Chan_tbl.length t.channels) in
    Chan_tbl.add t.channels key c;
    c

let channel t packet =
  if not (data_bearing packet) then Channel_id.none
  else if (t.rx_chan :> int) >= 0 && same_channel t.rx_packet packet then t.rx_chan
  else
    match t.last_frame with
    | Some f when (t.last_chan :> int) >= 0 && same_channel (Codec.Frame.packet f) packet ->
      t.last_chan
    | Some _ | None -> intern t packet

(* The per-link cell; links added to the topology after [create] get
   theirs on first use. *)
let stats_cell t link =
  let i = Link_id.to_int link in
  let len = Array.length t.per_link in
  if i >= len then
    t.per_link <-
      Array.init (max (i + 1) (2 * len)) (fun j -> if j < len then t.per_link.(j) else new_cell ());
  Array.unsafe_get t.per_link i

let count t link packet ~size =
  let cell = stats_cell t link in
  cell.c_packets <- cell.c_packets + 1;
  cell.c_bytes <- cell.c_bytes + size;
  cell.c_data_bytes <- cell.c_data_bytes + Packet.payload_data_bytes packet

(* No impaired link — the overwhelmingly common case, and the state a
   network returns to when every fault window has closed — lets both
   transmit and delivery skip every per-link fault lookup: a pristine
   condition draws no randomness and changes no delay. *)
let faultless t = t.impaired_links = 0

let impaired_links t = t.impaired_links

(* Apply [f] to the link's condition, keeping [impaired_links] exact. *)
let update_condition t link f =
  let c =
    match Hashtbl.find_opt t.conditions link with
    | Some c -> c
    | None ->
      let c = pristine () in
      Hashtbl.replace t.conditions link c;
      c
  in
  let before = impaired c in
  f c;
  match (before, impaired c) with
  | false, true -> t.impaired_links <- t.impaired_links + 1
  | true, false -> t.impaired_links <- t.impaired_links - 1
  | true, true | false, false -> ()

let check_rate name rate =
  if rate < 0.0 || rate > 1.0 then
    invalid_arg (Printf.sprintf "Network.%s: rate outside [0,1]" name)

let set_loss_rate t link rate =
  check_rate "set_loss_rate" rate;
  update_condition t link (fun c -> c.loss <- rate)

let loss_rate t link =
  match Hashtbl.find_opt t.conditions link with
  | Some c -> c.loss
  | None -> 0.0

let set_duplicate_rate t link rate =
  check_rate "set_duplicate_rate" rate;
  update_condition t link (fun c -> c.dup <- rate)

let duplicate_rate t link =
  match Hashtbl.find_opt t.conditions link with
  | Some c -> c.dup
  | None -> 0.0

let set_reorder t link ~rate ~jitter =
  check_rate "set_reorder" rate;
  if jitter < 0.0 then invalid_arg "Network.set_reorder: negative jitter";
  update_condition t link (fun c ->
      c.reorder <- rate;
      c.reorder_jitter <- jitter)

let set_wire_check t flag = t.wire_check <- flag
let wire_check t = t.wire_check

let set_corrupt_rate t link rate =
  check_rate "set_corrupt_rate" rate;
  update_condition t link (fun c -> c.corrupt <- rate)

let corrupt_rate t link =
  match Hashtbl.find_opt t.conditions link with
  | Some c -> c.corrupt
  | None -> 0.0

let malformed_drops t node =
  match Hashtbl.find_opt t.malformed node with
  | Some r -> !r
  | None -> 0

let total_malformed_drops t = t.malformed_total

let count_malformed t node =
  t.malformed_total <- t.malformed_total + 1;
  match Hashtbl.find_opt t.malformed node with
  | Some r -> incr r
  | None -> Hashtbl.replace t.malformed node (ref 1)

let link_is_up t link =
  match Hashtbl.find_opt t.conditions link with
  | Some c -> c.up
  | None -> true

let set_link_up t link up =
  if link_is_up t link <> up then begin
    update_condition t link (fun c -> c.up <- up);
    Engine.Trace.record t.trace ~category:"fault"
      (Net_event.Link_set { link = Topology.link_name t.topology link; up })
  end

let losses t = t.lost
let duplicates_injected t = t.duplicated
let reordered t = t.reordered
let blocked t = t.blocked

let span_names t =
  match t.span_names with
  | Some n -> n
  | None ->
    let n = { link_attrs = [||]; group_attrs = [] } in
    t.span_names <- Some n;
    n

let link_attrs t link =
  let n = span_names t in
  let i = Link_id.to_int link in
  let len = Array.length n.link_attrs in
  if i >= len then begin
    let grown = Array.make (max (i + 1) (2 * len)) [] in
    Array.blit n.link_attrs 0 grown 0 len;
    n.link_attrs <- grown
  end;
  match n.link_attrs.(i) with
  | [] ->
    let attrs = [ ("link", Topology.link_name t.topology link) ] in
    n.link_attrs.(i) <- attrs;
    attrs
  | attrs -> attrs

(* [] when [group] has no list yet; a built list is never empty. *)
let rec attrs_of_group group = function
  | [] -> []
  | (g, attrs) :: rest -> if Addr.equal g group then attrs else attrs_of_group group rest

let group_attrs t group =
  let n = span_names t in
  match attrs_of_group group n.group_attrs with
  | [] ->
    let attrs = [ ("group", Addr.to_string group) ] in
    n.group_attrs <- (group, attrs) :: n.group_attrs;
    attrs
  | attrs -> attrs

let span_name c verb packet =
  let code = Packet.label_code packet in
  if code >= 0 then Engine.Span.packet_name verb code
  else Engine.Span.intern c (Engine.Span.verb_prefix verb ^ Packet.label packet)

(* Lineage drop record at a delivery-stage decision point, parented to
   the transmission span when one exists.  A plain function (not a
   closure built per delivery) so the disabled path allocates nothing. *)
let record_drop t ~to_node ~txsp reason =
  match Engine.Sim.lineage t.sim with
  | None -> ()
  | Some c ->
    ignore
      (Engine.Span.drop c ~at:(Engine.Sim.now t.sim)
         ~node:(Topology.node_name t.topology to_node)
         ~reason
         ~parent:txsp ())

let drop_malformed t ~link ~to_node reason =
  count_malformed t to_node;
  (match Engine.Sim.lineage t.sim with
  | None -> ()
  | Some c ->
    (* Ambient context is the delivery's rx span, so the malformed
       drop lands inside the right lineage. *)
    ignore
      (Engine.Span.drop c ~at:(Engine.Sim.now t.sim)
         ~node:(Topology.node_name t.topology to_node)
         ~reason:Engine.Span.Malformed ~detail:reason ()));
  Engine.Trace.record t.trace ~category:"link"
    (Net_event.Malformed_frame
       { node = Topology.node_name t.topology to_node;
         link = Topology.link_name t.topology link;
         reason })

(* Hand a received packet to its node, noting it and its channel for
   the node's forwarding transmits. *)
let hand_over t (handler : handler) ~link ~from ~chan packet =
  t.rx_packet <- packet;
  t.rx_chan <- chan;
  handler ~link ~from ~chan packet

(* Wire-exact delivery: serialize, optionally corrupt, re-parse.  The
   receiver only ever sees what the byte-exact frame decodes to; a
   frame the decoder rejects (truncation, checksum mismatch, malformed
   option) is dropped here and counted against the receiving node,
   exactly as a real stack discards a bad frame before any protocol
   logic sees it.

   The frame comes from the transmission's interned cell: encoded once,
   shared by every receiver.  An uncorrupted delivery also shares the
   cell's memoized decode — byte-identical input, so the same decoded
   value each receiver would have computed alone.  Corruption injection
   copies the shared frame before flipping bytes (copy-on-write), then
   decodes its private damaged copy. *)
let deliver_wire t ~link ~from ~to_node ~chan handler cell =
  match Codec.Frame.force cell with
  | Error _ ->
    (* Not expressible on the wire (a model-only packet): hand it over
       structurally rather than invent a drop no real link would add. *)
    hand_over t handler ~link ~from ~chan (Codec.Frame.packet cell)
  | Ok shared -> (
    let rate = corrupt_rate t link in
    if rate > 0.0 && Engine.Rng.float t.corrupt_rng 1.0 < rate then begin
      (* Flip a few random bytes; frames whose damage lands in a
         checksummed or length-checked region are rejected below, the
         rest decode to a (realistically) silently-altered packet. *)
      let frame = Bytes.copy shared in
      let len = Bytes.length frame in
      let flips = 1 + Engine.Rng.int t.corrupt_rng 3 in
      for _ = 1 to flips do
        let i = Engine.Rng.int t.corrupt_rng len in
        let mask = 1 + Engine.Rng.int t.corrupt_rng 255 in
        Bytes.set frame i (Char.chr (Char.code (Bytes.get frame i) lxor mask))
      done;
      match Codec.decode frame with
      | Ok received ->
        (* Damage to the header may have moved it to another channel. *)
        hand_over t handler ~link ~from ~chan:(channel t received) received
      | Error reason -> drop_malformed t ~link ~to_node reason
    end
    else
      match Codec.Frame.decoded cell with
      | Ok received -> hand_over t handler ~link ~from ~chan received
      | Error reason -> drop_malformed t ~link ~to_node reason)

let deliver t ~link ~from ~to_node ~txsp ~chan cell =
  (* Attachment and link state are re-checked at delivery time: a node
     that moved away while the frame was in flight misses it, and a
     link that went down kills its in-flight frames.  On a faultless
     network both checks reduce to the attachment test. *)
  let faultless = faultless t in
  if (not faultless) && not (link_is_up t link) then begin
    t.blocked <- t.blocked + 1;
    record_drop t ~to_node ~txsp Engine.Span.Link_down
  end
  else if not (Topology.is_attached t.topology to_node link) then
    (* A node that detached mid-flight misses the frame silently (no
       counter — a handoff dropping in-flight frames is the modelled
       behaviour); lineage still wants the typed reason. *)
    record_drop t ~to_node ~txsp Engine.Span.Not_attached
  else begin
    let rate = if faultless then 0.0 else loss_rate t link in
    if rate > 0.0 && Engine.Rng.float t.loss_rng 1.0 < rate then begin
      t.lost <- t.lost + 1;
      record_drop t ~to_node ~txsp Engine.Span.Loss_fault
    end
    else
      match handler t to_node with
      | Some handler -> (
        match Engine.Sim.lineage t.sim with
        | None ->
          if t.wire_check then deliver_wire t ~link ~from ~to_node ~chan handler cell
          else hand_over t handler ~link ~from ~chan (Codec.Frame.packet cell)
        | Some c ->
          let at = Engine.Sim.now t.sim in
          let rx =
            Engine.Span.open_span c ~at ~name:(span_name c Engine.Span.Rx (Codec.Frame.packet cell))
              ~node:(Topology.node_name t.topology to_node)
              ~parent:txsp ~attrs:(link_attrs t link) ()
          in
          Engine.Span.within c rx (fun () ->
              if t.wire_check then deliver_wire t ~link ~from ~to_node ~chan handler cell
              else hand_over t handler ~link ~from ~chan (Codec.Frame.packet cell));
          Engine.Span.close_span c ~at rx)
      | None -> record_drop t ~to_node ~txsp Engine.Span.No_handler
  end

let transmit t ~from ~link dest packet =
  if not (Topology.is_attached t.topology from link) then begin
    t.dropped <- t.dropped + 1;
    record_drop t ~to_node:from ~txsp:(-1) Engine.Span.Not_attached;
    Engine.Trace.record t.trace ~category:"link"
      (Net_event.Not_attached
         { node = Topology.node_name t.topology from; link = Topology.link_name t.topology link })
  end
  else begin
    let cond = if faultless t then None else Hashtbl.find_opt t.conditions link in
    match cond with
    | Some c when not c.up ->
      (* A down link takes no frames at all; the sender's MAC would
         report carrier loss, which no protocol here listens to. *)
      t.blocked <- t.blocked + 1;
      record_drop t ~to_node:from ~txsp:(-1) Engine.Span.Link_down;
      Engine.Trace.record t.trace ~category:"fault"
        (Net_event.Blocked (Topology.link_name t.topology link))
    | _ ->
      let size = Packet.size packet in
      count t link packet ~size;
      (* The interned frame cell for this transmission and its channel;
         consecutive transmits of the physically-same packet (a flood
         step's per-link fan-out) reuse the previous cell, so the whole
         fan-out encodes once and looks its channel up once. *)
      let cell =
        match t.last_frame with
        | Some f when Codec.Frame.packet f == packet -> f
        | Some _ | None ->
          let chan = channel t packet in
          let f = Codec.Frame.of_packet packet in
          t.last_frame <- Some f;
          t.last_chan <- chan;
          f
      in
      let chan = t.last_chan in
      for i = 0 to t.n_observers - 1 do
        (Array.unsafe_get t.observers i) link chan packet
      done;
      for i = 0 to t.n_frame_observers - 1 do
        (Array.unsafe_get t.frame_observers i) ~link ~from ~dest cell
      done;
      (* Propagation plus serialization: the link's bandwidth turns the
         packet size into transmission time. *)
      let base_delay =
        Engine.Time.add
          (Topology.link_delay t.topology link)
          (float_of_int (8 * size) /. Topology.link_bandwidth_bps t.topology link)
      in
      (* Lineage: the transmission span.  Under an ambient context (a
         handler forwarding what it just received) this chains as a
         child of the receive span, which is exactly how a PIM-DM flood
         step becomes one child span per downstream link; with no
         ambient context (fresh injection) it roots a new trace.  When
         collection is off [txsp] is -1 and the captured closure grows
         by one immediate word — no allocation, no encode, no copy. *)
      let txsp =
        match Engine.Sim.lineage t.sim with
        | None -> -1
        | Some c ->
          let at = Engine.Sim.now t.sim in
          let id =
            Engine.Span.open_span c ~at ~name:(span_name c Engine.Span.Tx packet)
              ~node:(Topology.node_name t.topology from)
              ~attrs:(link_attrs t link) ()
          in
          Engine.Span.close_span c ~at:(Engine.Time.add at base_delay) id;
          id
      in
      let schedule to_node delay =
        ignore
          (Engine.Sim.schedule_after ~category:"net" t.sim delay (fun () ->
               deliver t ~link ~from ~to_node ~txsp ~chan cell))
      in
      let deliver_to to_node =
        let delay =
          match cond with
          | Some c when c.reorder > 0.0 && Engine.Rng.float t.reorder_rng 1.0 < c.reorder ->
            t.reordered <- t.reordered + 1;
            Engine.Time.add base_delay
              (Engine.Rng.float t.reorder_rng (Engine.Time.seconds c.reorder_jitter))
          | Some _ | None -> base_delay
        in
        let delay =
          if t.delay_slots > 1 && Engine.Sim.decider_active t.sim then begin
            let k =
              Engine.Sim.decide t.sim ~kind:Engine.Sim.Delay
                ~arity:t.delay_slots
            in
            if k = 0 then delay
            else Engine.Time.add delay (t.delay_step *. float_of_int k)
          end
          else delay
        in
        schedule to_node delay;
        match cond with
        | Some c when c.dup > 0.0 && Engine.Rng.float t.dup_rng 1.0 < c.dup ->
          t.duplicated <- t.duplicated + 1;
          schedule to_node delay
        | Some _ | None -> ()
      in
      (match dest with
       | To_node n -> deliver_to n
       | To_all ->
         (* Same members in the same ascending order the old
            list-building path produced, without the list. *)
         Topology.iter_nodes_on_link t.topology link (fun n ->
             if not (Node_id.equal n from) then deliver_to n))
  end

let claim_address t node ~link addr = Hashtbl.replace t.owners (link, addr) node

let release_address t node ~link addr =
  match Hashtbl.find_opt t.owners (link, addr) with
  | Some owner when Node_id.equal owner node -> Hashtbl.remove t.owners (link, addr)
  | Some _ | None -> ()

let resolve t ~link addr = Hashtbl.find_opt t.owners (link, addr)

let addresses_of t node =
  Hashtbl.fold
    (fun (link, addr) owner acc ->
      if Node_id.equal owner node then (link, addr) :: acc else acc)
    t.owners []
  |> List.sort compare

let link_stats t link =
  let i = Link_id.to_int link in
  if i < 0 || i >= Array.length t.per_link then empty_stats
  else
    let c = t.per_link.(i) in
    { packets = c.c_packets; bytes = c.c_bytes; data_bytes = c.c_data_bytes }

let total_stats t =
  Array.fold_left
    (fun acc c ->
      { packets = acc.packets + c.c_packets;
        bytes = acc.bytes + c.c_bytes;
        data_bytes = acc.data_bytes + c.c_data_bytes })
    empty_stats t.per_link

let drops t = t.dropped

let add_transmit_observer t f =
  if t.n_observers = Array.length t.observers then begin
    let grown = Array.make (max 4 (2 * t.n_observers)) f in
    Array.blit t.observers 0 grown 0 t.n_observers;
    t.observers <- grown
  end;
  t.observers.(t.n_observers) <- f;
  t.n_observers <- t.n_observers + 1

let add_frame_observer t f =
  if t.n_frame_observers = Array.length t.frame_observers then begin
    let grown = Array.make (max 4 (2 * t.n_frame_observers)) f in
    Array.blit t.frame_observers 0 grown 0 t.n_frame_observers;
    t.frame_observers <- grown
  end;
  t.frame_observers.(t.n_frame_observers) <- f;
  t.n_frame_observers <- t.n_frame_observers + 1

let reset_stats t =
  Array.iter
    (fun c ->
      c.c_packets <- 0;
      c.c_bytes <- 0;
      c.c_data_bytes <- 0)
    t.per_link;
  t.dropped <- 0;
  t.lost <- 0;
  t.duplicated <- 0;
  t.reordered <- 0;
  t.blocked <- 0;
  Hashtbl.reset t.malformed;
  t.malformed_total <- 0

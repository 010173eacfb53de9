module Node_id = Ids.Node_id
module Link_id = Ids.Link_id

type decision =
  | Deliver_on_link of Link_id.t
  | Forward of { out_link : Link_id.t; next_hop : Node_id.t }
  | Unreachable

(* A table is one int array indexed by link id.  Each entry packs three
   21-bit fields, each stored plus one so that 0 reads as -1: the hop
   distance (bits 0-20), the previous link (21-41) and the router
   joining the two (42-62).  An entry of 0 is an unreachable link; the
   via fields of a directly attached link read -1. *)
let field_bits = 21
let field_mask = (1 lsl field_bits) - 1
let max_id = field_mask - 1

let pack ~dist ~via_link ~via_router =
  (dist + 1) lor ((via_link + 1) lsl field_bits) lor ((via_router + 1) lsl (2 * field_bits))

let dist_field e = (e land field_mask) - 1
let via_link_field e = ((e lsr field_bits) land field_mask) - 1
let via_router_field e = (e lsr (2 * field_bits)) - 1
let attached_entry = pack ~dist:0 ~via_link:(-1) ~via_router:(-1)

(* Everything below [version] is derived from the topology at that
   version.  [links_of.(node)] and [routers_on.(link)] are the
   attachment graph, both ascending, so the search visits neighbours in
   the same order as the sorted sets they come from; [tables.(node)] is
   the node's table, [||] until built.  [queue] and [expanded] are the
   search's scratch space, reused by every build: a link is queued at
   most once per search, and a router is expanded in the search
   numbered [expanded.(router)]. *)
type t = {
  topology : Topology.t;
  mutable version : int;
  mutable links_of : int array array;
  mutable routers_on : int array array;
  mutable tables : int array array;
  mutable queue : int array;
  mutable expanded : int array;
  mutable search : int;
}

let create topology =
  { topology;
    version = -1;
    links_of = [||];
    routers_on = [||];
    tables = [||];
    queue = [||];
    expanded = [||];
    search = 0 }

(* [a] if it has room for [n] cells, else a fresh array of [n]. *)
let at_least a n x = if Array.length a >= n then a else Array.make n x

let rebuild t =
  let topo = t.topology in
  let ids to_int l = Array.of_list (List.map to_int l) in
  let nodes = Topology.nodes topo and links = Topology.links topo in
  let n_nodes = List.length nodes and n_links = List.length links in
  if n_nodes - 1 > max_id || n_links - 1 > max_id then
    invalid_arg "Routing: more than 2^21-1 nodes or links";
  t.links_of <-
    Array.of_list (List.map (fun n -> ids Link_id.to_int (Topology.links_of_node topo n)) nodes);
  t.routers_on <-
    Array.of_list (List.map (fun l -> ids Node_id.to_int (Topology.routers_on_link topo l)) links);
  t.tables <- at_least t.tables n_nodes [||];
  Array.fill t.tables 0 (Array.length t.tables) [||];
  t.queue <- at_least t.queue n_links 0;
  t.expanded <- at_least t.expanded n_nodes 0;
  t.version <- Topology.version topo

(* Breadth-first over links from the links [from] is attached to; only
   routers forward between links.  A router's first expansion, from the
   nearest link it is on, discovers every one of its links, so a later
   one would discover nothing: each router is expanded once, and the
   table (equal-cost tie-breaks included) is the one expanding it from
   every link would give.  For the same reason [from] needs no
   exclusion when it is a router: its links are the roots, found
   before it is expanded. *)
let compute_table t ~from =
  let links_of = t.links_of and routers_on = t.routers_on in
  let queue = t.queue and expanded = t.expanded in
  let table = Array.make (Array.length routers_on) 0 in
  t.search <- t.search + 1;
  let search = t.search in
  let f = Node_id.to_int from in
  let roots =
    if f >= 0 && f < Array.length links_of then links_of.(f)
    else (* raises the topology's unknown-node error *)
      Array.of_list (List.map Link_id.to_int (Topology.links_of_node t.topology from))
  in
  for i = 0 to Array.length roots - 1 do
    table.(roots.(i)) <- attached_entry;
    queue.(i) <- roots.(i)
  done;
  let tail = ref (Array.length roots) in
  let head = ref 0 in
  while !head < !tail do
    let current = queue.(!head) in
    incr head;
    let d = dist_field table.(current) + 1 in
    let routers = routers_on.(current) in
    for i = 0 to Array.length routers - 1 do
      let router = routers.(i) in
      if expanded.(router) <> search then begin
        expanded.(router) <- search;
        let entry = pack ~dist:d ~via_link:current ~via_router:router in
        let links = links_of.(router) in
        for j = 0 to Array.length links - 1 do
          let next = links.(j) in
          if table.(next) = 0 then begin
            table.(next) <- entry;
            queue.(!tail) <- next;
            incr tail
          end
        done
      end
    done
  done;
  table

let table t ~from =
  if Topology.version t.topology <> t.version then rebuild t;
  let key = Node_id.to_int from in
  if key >= 0 && key < Array.length t.tables && Array.length t.tables.(key) > 0 then
    t.tables.(key)
  else begin
    let computed = compute_table t ~from in
    t.tables.(key) <- computed;
    computed
  end

let dist_of tbl link =
  let l = Link_id.to_int link in
  if l >= 0 && l < Array.length tbl then dist_field tbl.(l) else -1

(* The entry of the first link traversed on the way to [l] (distance
   >= 1): the one whose predecessor is a directly attached link. *)
let rec first_hop tbl l =
  let e = tbl.(l) in
  let prev = via_link_field e in
  if dist_field tbl.(prev) = 0 then e else first_hop tbl prev

let distance_to_link t ~from link =
  match dist_of (table t ~from) link with
  | -1 -> None
  | d -> Some d

let path_to_link t ~from link =
  let tbl = table t ~from in
  match dist_of tbl link with
  | -1 -> None
  | 0 -> Some []
  | _ ->
    (* Walk back to the attached link the path leaves through. *)
    let rec back l acc =
      let acc = Link_id.of_int l :: acc in
      let e = tbl.(l) in
      if dist_field e = 0 then acc else back (via_link_field e) acc
    in
    Some (back (Link_id.to_int link) [])

let decide t ~at ~dst =
  match Topology.link_of_address t.topology dst with
  | None -> Unreachable
  | Some dst_link ->
    if Topology.is_attached t.topology at dst_link then Deliver_on_link dst_link
    else
      let tbl = table t ~from:at in
      if dist_of tbl dst_link <= 0 then Unreachable
      else
        let e = first_hop tbl (Link_id.to_int dst_link) in
        Forward
          { out_link = Link_id.of_int (via_link_field e);
            next_hop = Node_id.of_int (via_router_field e) }

let rpf t ~at ~source =
  match Topology.link_of_address t.topology source with
  | None -> None
  | Some src_link ->
    if Topology.is_attached t.topology at src_link then Some (src_link, None, 0)
    else
      let tbl = table t ~from:at in
      let d = dist_of tbl src_link in
      if d <= 0 then None
      else
        let e = first_hop tbl (Link_id.to_int src_link) in
        Some
          ( Link_id.of_int (via_link_field e),
            Some (Node_id.of_int (via_router_field e)),
            d )

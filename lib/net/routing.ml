module Node_id = Ids.Node_id
module Link_id = Ids.Link_id

type decision =
  | Deliver_on_link of Link_id.t
  | Forward of { out_link : Link_id.t; next_hop : Node_id.t }
  | Unreachable

(* The attachment graph as int arrays, built once per topology version:
   [links_of.(node)] and [routers_on.(link)], both ascending, so the BFS
   visits neighbours in the same order as the sorted sets they come
   from. *)
type adjacency = {
  n_links : int;
  links_of : int array array;
  routers_on : int array array;
}

(* Per-source BFS result, indexed by link id: hop distance, and the
   previous link and the router joining the two; -1 for none (an
   unreachable link, or the via fields of a directly attached one). *)
type table = {
  dist : int array;
  via_link : int array;
  via_router : int array;
}

type t = {
  topology : Topology.t;
  mutable cache_version : int;
  mutable adjacency : adjacency option;
  cache : (int, table) Hashtbl.t;
}

let create topology =
  { topology;
    cache_version = Topology.version topology;
    adjacency = None;
    cache = Hashtbl.create 32 }

let build_adjacency topo =
  let ids to_int l = Array.of_list (List.map to_int l) in
  let nodes = Topology.nodes topo and links = Topology.links topo in
  let size to_int = List.fold_left (fun m x -> max m (to_int x + 1)) 0 in
  let links_of = Array.make (size Node_id.to_int nodes) [||] in
  List.iter
    (fun n ->
      links_of.(Node_id.to_int n) <- ids Link_id.to_int (Topology.links_of_node topo n))
    nodes;
  let n_links = size Link_id.to_int links in
  let routers_on = Array.make n_links [||] in
  List.iter
    (fun l ->
      routers_on.(Link_id.to_int l) <- ids Node_id.to_int (Topology.routers_on_link topo l))
    links;
  { n_links; links_of; routers_on }

let compute_table topo adj ~from =
  let n = adj.n_links in
  let dist = Array.make n (-1) in
  let via_link = Array.make n (-1) in
  let via_router = Array.make n (-1) in
  (* Every link is discovered at most once, so an array is the queue. *)
  let queue = Array.make n 0 in
  let tail = ref 0 in
  let discover link d prev router =
    if dist.(link) < 0 then begin
      dist.(link) <- d;
      via_link.(link) <- prev;
      via_router.(link) <- router;
      queue.(!tail) <- link;
      incr tail
    end
  in
  let f = Node_id.to_int from in
  let roots =
    if f >= 0 && f < Array.length adj.links_of then adj.links_of.(f)
    else (* raises the topology's unknown-node error *)
      Array.of_list (List.map Link_id.to_int (Topology.links_of_node topo from))
  in
  Array.iter (fun l -> discover l 0 (-1) (-1)) roots;
  let head = ref 0 in
  while !head < !tail do
    let current = queue.(!head) in
    incr head;
    let d = dist.(current) + 1 in
    (* Only routers forward between links, and the deciding node itself
       is not a transit hop. *)
    Array.iter
      (fun router ->
        if router <> f then
          Array.iter
            (fun next -> if next <> current then discover next d current router)
            adj.links_of.(router))
      adj.routers_on.(current)
  done;
  { dist; via_link; via_router }

let table t ~from =
  let version = Topology.version t.topology in
  if version <> t.cache_version then begin
    Hashtbl.reset t.cache;
    t.adjacency <- None;
    t.cache_version <- version
  end;
  let key = Node_id.to_int from in
  match Hashtbl.find_opt t.cache key with
  | Some table -> table
  | None ->
    let adj =
      match t.adjacency with
      | Some adj -> adj
      | None ->
        let adj = build_adjacency t.topology in
        t.adjacency <- Some adj;
        adj
    in
    let computed = compute_table t.topology adj ~from in
    Hashtbl.add t.cache key computed;
    computed

let dist_of tbl link =
  let l = Link_id.to_int link in
  if l >= 0 && l < Array.length tbl.dist then tbl.dist.(l) else -1

(* The first link traversed on the way to [l] (distance >= 1): the one
   whose predecessor is a directly attached link. *)
let rec first_traversed tbl l =
  let prev = tbl.via_link.(l) in
  if tbl.dist.(prev) = 0 then l else first_traversed tbl prev

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
      if tbl.dist.(l) = 0 then acc else back tbl.via_link.(l) acc
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
        let first = first_traversed tbl (Link_id.to_int dst_link) in
        Forward
          { out_link = Link_id.of_int tbl.via_link.(first);
            next_hop = Node_id.of_int tbl.via_router.(first) }

let rpf t ~at ~source =
  match decide t ~at ~dst:source with
  | Deliver_on_link l -> Some (l, None)
  | Forward { out_link; next_hop } -> Some (out_link, Some next_hop)
  | Unreachable -> None

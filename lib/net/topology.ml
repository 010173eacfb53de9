open Ipv6
module Node_id = Ids.Node_id
module Link_id = Ids.Link_id

type node_kind = Router | Host

type node = {
  node_name : string;
  kind : node_kind;
  iid : int64;
  mutable attached : Link_id.Set.t;
}

type link = {
  link_name : string;
  prefix : Prefix.t;
  delay : Engine.Time.t;
  bandwidth_bps : float;
  mutable members : Node_id.Set.t;
}

module Prefix_tbl = Hashtbl.Make (Prefix)

(* Ids are dense from 0 and never reused, so nodes and links live in
   growable arrays indexed by id: [node_table.(0 .. next_node - 1)]. *)
type t = {
  mutable node_table : node array;
  mutable link_table : link array;
  by_prefix : Link_id.t Prefix_tbl.t;
  (* Distinct prefix lengths in use, so [link_of_address] masks an
     address once per length instead of testing every link. *)
  mutable prefix_lengths : int list;
  mutable next_node : int;
  mutable next_link : int;
  mutable version : int;
}

let create () =
  { node_table = [||];
    link_table = [||];
    by_prefix = Prefix_tbl.create 16;
    prefix_lengths = [];
    next_node = 0;
    next_link = 0;
    version = 0 }

let bump t = t.version <- t.version + 1

let node t id =
  let i = Node_id.to_int id in
  if i >= 0 && i < t.next_node then Array.unsafe_get t.node_table i
  else invalid_arg (Format.asprintf "Topology: unknown node %a" Node_id.pp id)

let link t id =
  let i = Link_id.to_int id in
  if i >= 0 && i < t.next_link then Array.unsafe_get t.link_table i
  else invalid_arg (Format.asprintf "Topology: unknown link %a" Link_id.pp id)

(* [table] with room for index [n]. *)
let grow table n x =
  if n < Array.length table then table
  else begin
    let bigger = Array.make (max 8 (2 * n)) x in
    Array.blit table 0 bigger 0 (Array.length table);
    bigger
  end

let add_node t ~name ~kind =
  let id = Node_id.of_int t.next_node in
  t.next_node <- t.next_node + 1;
  let iid = Int64.of_int (Node_id.to_int id + 1) in
  let n = { node_name = name; kind; iid; attached = Link_id.Set.empty } in
  t.node_table <- grow t.node_table (Node_id.to_int id) n;
  t.node_table.(Node_id.to_int id) <- n;
  bump t;
  id

let add_link t ~name ~prefix ?(delay = 0.005) ?(bandwidth_bps = 10_000_000.0) () =
  if Prefix.length prefix > 64 then
    invalid_arg "Topology.add_link: link prefixes must be at most /64";
  if Prefix_tbl.mem t.by_prefix prefix then
    invalid_arg
      (Printf.sprintf "Topology.add_link: prefix %s already in use" (Prefix.to_string prefix));
  let id = Link_id.of_int t.next_link in
  t.next_link <- t.next_link + 1;
  let l = { link_name = name; prefix; delay; bandwidth_bps; members = Node_id.Set.empty } in
  t.link_table <- grow t.link_table (Link_id.to_int id) l;
  t.link_table.(Link_id.to_int id) <- l;
  Prefix_tbl.replace t.by_prefix prefix id;
  let len = Prefix.length prefix in
  if not (List.mem len t.prefix_lengths) then t.prefix_lengths <- len :: t.prefix_lengths;
  bump t;
  id

let nodes t = List.init t.next_node Node_id.of_int
let links t = List.init t.next_link Link_id.of_int

(* The last match in id order, as a scan of the whole table finds it. *)
let find_last n matches of_int =
  let rec go i = if i < 0 then None else if matches i then Some (of_int i) else go (i - 1) in
  go (n - 1)

let node_name t id = (node t id).node_name
let node_kind t id = (node t id).kind
let interface_id t id = (node t id).iid

let find_node_by_name t name =
  find_last t.next_node
    (fun i -> String.equal t.node_table.(i).node_name name)
    Node_id.of_int

let link_name t id = (link t id).link_name
let link_prefix t id = (link t id).prefix
let link_delay t id = (link t id).delay
let link_bandwidth_bps t id = (link t id).bandwidth_bps

let find_link_by_name t name =
  find_last t.next_link
    (fun i -> String.equal t.link_table.(i).link_name name)
    Link_id.of_int

let attach t node_id link_id =
  let n = node t node_id and l = link t link_id in
  if not (Link_id.Set.mem link_id n.attached) then begin
    n.attached <- Link_id.Set.add link_id n.attached;
    l.members <- Node_id.Set.add node_id l.members;
    bump t
  end

let detach t node_id link_id =
  let n = node t node_id and l = link t link_id in
  if Link_id.Set.mem link_id n.attached then begin
    n.attached <- Link_id.Set.remove link_id n.attached;
    l.members <- Node_id.Set.remove node_id l.members;
    bump t
  end

let is_attached t node_id link_id = Link_id.Set.mem link_id (node t node_id).attached

let nodes_on_link t link_id = Node_id.Set.elements (link t link_id).members

(* Same members, same ascending order, no list materialized — the
   per-transmit fan-out path. *)
let iter_nodes_on_link t link_id f = Node_id.Set.iter f (link t link_id).members

let routers_on_link t link_id =
  List.filter (fun n -> (node t n).kind = Router) (nodes_on_link t link_id)

let links_of_node t node_id = Link_id.Set.elements (node t node_id).attached

let address_on t node_id link_id =
  Prefix.append_interface_id (link t link_id).prefix (node t node_id).iid

let link_local_prefix = Prefix.make (Addr.make 0xfe80_0000_0000_0000L 0L) 64

let link_local t node_id = Prefix.append_interface_id link_local_prefix (node t node_id).iid

(* Prefixes of one length never overlap (equal ones are refused), so
   each length has at most one covering link.  Across lengths the
   highest link id wins, as a scan over every link in id order would
   have it. *)
let link_of_address t addr =
  List.fold_left
    (fun acc len ->
      match Prefix_tbl.find_opt t.by_prefix (Prefix.make addr len) with
      | Some id -> (
        match acc with
        | Some best when Link_id.compare best id > 0 -> acc
        | Some _ | None -> Some id)
      | None -> acc)
    None t.prefix_lengths

let is_connected t =
  if t.next_node = 0 then true
  else
    let start = Node_id.of_int 0 in
    let visited = Hashtbl.create 64 in
    let rec walk id =
      if not (Hashtbl.mem visited id) then begin
        Hashtbl.replace visited id ();
        Link_id.Set.iter
          (fun l -> Node_id.Set.iter walk (link t l).members)
          (node t id).attached
      end
    in
    walk start;
    Hashtbl.length visited = t.next_node

let version t = t.version
